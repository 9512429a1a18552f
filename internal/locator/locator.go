// Package locator implements the Locator service of §2.2/§3.4: "the
// locator service ... will resolve the location of the dataset from the
// dataset identifier. The location could be a URL to an FTP server or a
// set of contiguous records in a database server. In addition to the
// location of the dataset, the locator service returns the location of
// the splitter service." Here the manager node runs the one splitter
// (internal/splitter) itself, so a lookup returns replicas only.
//
// Datasets have replicas at sites; resolution prefers replicas co-located
// with the requesting site (the paper's observation that LAN staging beats
// WAN staging is exactly a replica-selection decision).
package locator

import (
	"fmt"
	"sort"
	"sync"
)

// Replica is one physical copy of a dataset.
type Replica struct {
	// URL locates the copy, e.g. "gsiftp://host:port/path" or
	// "file:///shared/disk/path".
	URL string
	// Site names the hosting site; staging within the same site runs
	// over the LAN.
	Site string
	// Priority breaks ties (higher preferred).
	Priority int
}

// Resolution answers a lookup.
type Resolution struct {
	Replicas []Replica // best first
}

// Service is the locator registry. Safe for concurrent use.
type Service struct {
	mu       sync.RWMutex
	replicas map[string][]Replica
}

// New creates an empty locator.
func New() *Service {
	return &Service{replicas: make(map[string][]Replica)}
}

// Register adds a replica for a dataset.
func (s *Service) Register(datasetID string, r Replica) error {
	if datasetID == "" || r.URL == "" {
		return fmt.Errorf("locator: dataset ID and URL required")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, existing := range s.replicas[datasetID] {
		if existing.URL == r.URL {
			return fmt.Errorf("locator: replica %s already registered for %s", r.URL, datasetID)
		}
	}
	s.replicas[datasetID] = append(s.replicas[datasetID], r)
	return nil
}

// Resolve returns replicas ordered best-first for a requesting site:
// same-site replicas first (by priority), then others (by priority).
func (s *Service) Resolve(datasetID, requestingSite string) (Resolution, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	reps := s.replicas[datasetID]
	if len(reps) == 0 {
		return Resolution{}, fmt.Errorf("locator: no replicas for dataset %q", datasetID)
	}
	ordered := append([]Replica(nil), reps...)
	sort.SliceStable(ordered, func(i, j int) bool {
		li, lj := ordered[i].Site == requestingSite, ordered[j].Site == requestingSite
		if li != lj {
			return li
		}
		if ordered[i].Priority != ordered[j].Priority {
			return ordered[i].Priority > ordered[j].Priority
		}
		return ordered[i].URL < ordered[j].URL
	})
	return Resolution{Replicas: ordered}, nil
}
