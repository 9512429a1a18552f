// Package session implements the Interactive Parallel Dataset Analysis
// Session Manager Service — "at the heart of the system design" (§3.2).
//
// A session is the unit of interactivity: creating one starts a set of
// analysis engines as jobs on the site's interactive scheduler queue,
// attaching a dataset runs the locate → fetch → split → stage pipeline of
// §3.4, loading code ships the user's analysis to every engine (§3.5),
// and the run controls of §3.6 fan out to all engines. Every client call
// happens "in the context of this session", authenticated by an
// unguessable token, and a session idle past its lifetime is swept (the
// WS-Resource lifetime of §3.2).
package session

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/ipa-grid/ipa/internal/catalog"
	"github.com/ipa-grid/ipa/internal/codeloader"
	"github.com/ipa-grid/ipa/internal/engine"
	"github.com/ipa-grid/ipa/internal/gridftp"
	"github.com/ipa-grid/ipa/internal/locator"
	"github.com/ipa-grid/ipa/internal/merge"
	"github.com/ipa-grid/ipa/internal/scheduler"
	"github.com/ipa-grid/ipa/internal/splitter"
	"github.com/ipa-grid/ipa/internal/storage"
)

// Config wires the session service into the manager node.
type Config struct {
	// Cluster is the compute element's scheduler: each engine of a
	// session is one job on Queue.
	Cluster *scheduler.Cluster
	// NewEngine builds the analysis engine a job runs for one worker of
	// a session.
	NewEngine func(sessionID, workerID string) *engine.Engine
	Locator   *locator.Service
	Catalog   *catalog.Catalog
	// Merge is the result fabric sessions publish into and clients poll
	// from: a single merge.Manager, or a shard.Router fronting several
	// manager shards — the service cannot tell the difference.
	Merge  merge.Service
	Loader *codeloader.Loader
	// SharedDisk is the compute element's shared disk (Figure 2), where
	// whole datasets land and are split.
	SharedDisk *storage.Element
	// WorkerScratch resolves a node name to its scratch storage.
	WorkerScratch func(node string) (*storage.Element, error)
	// Engines is the pre-configured engine count per session — "the
	// number of nodes is determined by the Grid site policy" (§3.2).
	Engines int
	// Queue is the scheduler queue engines are submitted to (the
	// dedicated interactive queue).
	Queue string
	// Site names this Grid site for replica selection.
	Site string
	// ActivateTimeout bounds the wait for every engine to start.
	ActivateTimeout time.Duration
	// SessionLifetime is how long a session may sit idle before Sweep
	// closes it; every Attach/LoadCode/Control/Status renews it (0 = 30
	// minutes).
	SessionLifetime time.Duration
}

// State is a session's lifecycle position.
type State string

// Session states.
const (
	StateNew       State = "New"    // created, engines starting
	StateActive    State = "Active" // engines ready
	StateStaged    State = "Staged" // dataset attached and distributed
	StateAnalyzing State = "Analyzing"
	StateClosed    State = "Closed"
)

// Session is one interactive analysis context.
type Session struct {
	ID      string
	Token   string
	OwnerDN string

	// expires is the UnixNano time after which Sweep closes the session.
	expires atomic.Int64

	mu      sync.Mutex
	state   State
	engines []*engine.Engine
	nodes   []string
	jobs    []int64 // scheduler job IDs, one per engine
	ds      *catalog.DatasetRef
	plan    splitter.Plan
	bundle  *codeloader.Bundle
}

// Service manages sessions.
type Service struct {
	cfg Config

	mu       sync.Mutex
	sessions map[string]*Session // by ID
	byToken  map[string]*Session
}

// New creates the session service.
func New(cfg Config) (*Service, error) {
	switch {
	case cfg.Cluster == nil, cfg.NewEngine == nil, cfg.Locator == nil,
		cfg.Catalog == nil, cfg.Merge == nil, cfg.Loader == nil, cfg.SharedDisk == nil:
		return nil, errors.New("session: incomplete configuration")
	}
	if cfg.Engines <= 0 {
		cfg.Engines = 4
	}
	if cfg.ActivateTimeout == 0 {
		cfg.ActivateTimeout = 30 * time.Second
	}
	if cfg.SessionLifetime == 0 {
		cfg.SessionLifetime = 30 * time.Minute
	}
	return &Service{cfg: cfg, sessions: make(map[string]*Session), byToken: make(map[string]*Session)}, nil
}

// newKey generates a fresh unguessable session ID or token.
func newKey() string {
	var b [16]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic("session: no entropy: " + err.Error())
	}
	return hex.EncodeToString(b[:])
}

// started is one engine job's ready signal: the engine it built and the
// node the scheduler placed it on.
type started struct {
	index int
	node  string
	eng   *engine.Engine
}

// Create starts a session for ownerDN: submit one scheduler job per
// engine, wait until every job has built its engine, and hand back the
// session with its token — steps 2–3 of Figure 2. If any submission fails
// or an engine is not up within ActivateTimeout, every job is cancelled.
func (s *Service) Create(ownerDN string) (*Session, error) {
	id, token := newKey(), newKey()
	sess := &Session{ID: id, Token: token, OwnerDN: ownerDN, state: StateNew}
	n := s.cfg.Engines
	up := make(chan started, n) // one send per job
	for i := 0; i < n; i++ {
		job, err := s.cfg.Cluster.Submit(scheduler.Spec{
			Name:  fmt.Sprintf("ipa-engine[%d]", i),
			User:  ownerDN,
			Queue: s.cfg.Queue,
			Run: func(ctx context.Context, node string) error {
				eng := s.cfg.NewEngine(id, fmt.Sprintf("engine-%02d", i))
				up <- started{index: i, node: node, eng: eng}
				stop := context.AfterFunc(ctx, eng.Shutdown)
				defer stop()
				eng.Serve() // until Shutdown
				return nil
			},
		})
		if err != nil {
			s.cancelJobs(sess.jobs)
			return nil, fmt.Errorf("session: starting engine %d: %w", i, err)
		}
		sess.jobs = append(sess.jobs, job.ID)
	}
	sess.engines = make([]*engine.Engine, n)
	sess.nodes = make([]string, n)
	timeout := time.NewTimer(s.cfg.ActivateTimeout)
	defer timeout.Stop()
	for ready := 0; ready < n; ready++ {
		select {
		case st := <-up:
			sess.engines[st.index], sess.nodes[st.index] = st.eng, st.node
		case <-timeout.C:
			s.cancelJobs(sess.jobs)
			return nil, fmt.Errorf("session: only %d/%d engines ready after %v", ready, n, s.cfg.ActivateTimeout)
		}
	}
	sess.state = StateActive
	s.touch(sess)

	s.mu.Lock()
	s.sessions[id] = sess
	s.byToken[token] = sess
	s.mu.Unlock()
	return sess, nil
}

// cancelJobs cancels engine jobs: a running engine shuts down through its
// job context and frees its slot, a pending job leaves the queue.
func (s *Service) cancelJobs(ids []int64) {
	for _, id := range ids {
		s.cfg.Cluster.Cancel(id)
	}
}

// Get resolves a session by ID.
func (s *Service) Get(id string) (*Session, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	sess := s.sessions[id]
	if sess == nil {
		return nil, fmt.Errorf("session: no session %q", id)
	}
	return sess, nil
}

// use resolves a session for an operation on it and renews its lifetime.
func (s *Service) use(id string) (*Session, error) {
	sess, err := s.Get(id)
	if err == nil {
		s.touch(sess)
	}
	return sess, err
}

// ValidateToken authorizes an RMI/GridFTP token: it must belong to a live
// session — the paper's rule that no RMI object works without a Web
// Service session (§3.7).
func (s *Service) ValidateToken(token string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.byToken[token]; !ok {
		return errors.New("session: unknown or expired session token")
	}
	return nil
}

// TokenChecker adapts ValidateToken for the gridftp server.
func (s *Service) TokenChecker() gridftp.TokenChecker {
	return func(token string) error { return s.ValidateToken(token) }
}

// StagingReport carries the phase timings of one AttachDataset — the
// quantities Table 2 reports (move whole / split / move parts).
type StagingReport struct {
	DatasetID  string
	SizeMB     float64
	Parts      int
	MoveWhole  time.Duration
	Split      time.Duration
	MoveParts  time.Duration
	Imbalance  float64
	ReplicaURL string
}

// AttachDataset runs the §3.4 staging pipeline: resolve the dataset ID via
// the catalog and locator, move the whole dataset to the shared disk,
// split it into one part per engine, move parts to the workers' scratch
// disks, and point every engine at its part.
func (s *Service) AttachDataset(sessionID, datasetID string) (*StagingReport, error) {
	sess, err := s.use(sessionID)
	if err != nil {
		return nil, err
	}
	sess.mu.Lock()
	defer sess.mu.Unlock()
	if sess.state == StateClosed {
		return nil, errors.New("session: closed")
	}
	info, err := s.cfg.Catalog.FindByID(datasetID)
	if err != nil {
		return nil, err
	}
	res, err := s.cfg.Locator.Resolve(datasetID, s.cfg.Site)
	if err != nil {
		return nil, err
	}
	report := &StagingReport{DatasetID: datasetID, SizeMB: info.Dataset.SizeMB, Parts: len(sess.engines)}

	// Phase 1: move the whole dataset to the shared disk.
	whole := path.Join("/sessions", sess.ID, "dataset.ipa")
	t0 := time.Now()
	var fetched bool
	var lastErr error
	for _, rep := range res.Replicas {
		if err := s.fetchReplica(rep, whole); err != nil {
			lastErr = err
			continue
		}
		report.ReplicaURL = rep.URL
		fetched = true
		break
	}
	if !fetched {
		return nil, fmt.Errorf("session: no replica reachable for %s: %w", datasetID, lastErr)
	}
	report.MoveWhole = time.Since(t0)

	// Phase 2: split into N approximately equal parts on the shared disk.
	t0 = time.Now()
	localWhole, err := s.cfg.SharedDisk.LocalPath(whole)
	if err != nil {
		return nil, err
	}
	partPath := func(i int) string {
		return path.Join("/sessions", sess.ID, fmt.Sprintf("part-%d.ipa", i))
	}
	plan, err := splitter.SplitFile(localWhole, len(sess.engines), func(i int) string {
		p, _ := s.cfg.SharedDisk.LocalPath(partPath(i))
		return p
	})
	if err != nil {
		return nil, fmt.Errorf("session: splitting: %w", err)
	}
	sess.plan = plan
	report.Split = time.Since(t0)
	report.Imbalance = plan.Imbalance()

	// Phase 3: move parts to worker scratch space, in parallel (§3.4:
	// "the transfers are done in parallel").
	t0 = time.Now()
	errs := make(chan error, len(sess.engines))
	staged := make([]string, len(sess.engines))
	for i := range sess.engines {
		i := i
		go func() {
			scratch, err := s.cfg.WorkerScratch(sess.nodes[i])
			if err != nil {
				errs <- err
				return
			}
			src, err := s.cfg.SharedDisk.LocalPath(partPath(i))
			if err != nil {
				errs <- err
				return
			}
			dst := path.Join("/scratch", sess.ID, fmt.Sprintf("part-%d.ipa", i))
			f, err := os.Open(src)
			if err != nil {
				errs <- err
				return
			}
			defer f.Close()
			if _, err := scratch.Put(dst, f); err != nil {
				errs <- err
				return
			}
			staged[i], err = scratch.LocalPath(dst)
			errs <- err
		}()
	}
	for range sess.engines {
		if err := <-errs; err != nil {
			return nil, fmt.Errorf("session: staging parts: %w", err)
		}
	}
	report.MoveParts = time.Since(t0)

	// Point engines at their parts.
	for i, eng := range sess.engines {
		if err := eng.SetPart(staged[i], plan.Parts[i].FromRecord); err != nil {
			return nil, fmt.Errorf("session: engine %d: %w", i, err)
		}
	}
	ref := *info.Dataset
	sess.ds = &ref
	sess.state = StateStaged
	return report, nil
}

// fetchReplica moves a replica to the shared disk. Supported schemes:
// file:// (shared filesystem) and gsiftp://host:port/path (GridFTP).
func (s *Service) fetchReplica(rep locator.Replica, dstPath string) error {
	switch {
	case strings.HasPrefix(rep.URL, "file://"):
		src := strings.TrimPrefix(rep.URL, "file://")
		f, err := os.Open(src)
		if err != nil {
			return err
		}
		defer f.Close()
		_, err = s.cfg.SharedDisk.Put(dstPath, f)
		return err
	case strings.HasPrefix(rep.URL, "gsiftp://"):
		rest := strings.TrimPrefix(rep.URL, "gsiftp://")
		slash := strings.Index(rest, "/")
		if slash < 0 {
			return fmt.Errorf("session: malformed gridftp URL %q", rep.URL)
		}
		addr, remote := rest[:slash], rest[slash:]
		c, err := gridftp.Dial(addr, "")
		if err != nil {
			return err
		}
		defer c.Close()
		local, err := s.cfg.SharedDisk.LocalPath(dstPath)
		if err != nil {
			return err
		}
		if err := os.MkdirAll(path.Dir(local), 0o755); err != nil {
			return err
		}
		_, err = c.RetrieveFile(remote, local)
		return err
	default:
		return fmt.Errorf("session: unsupported replica scheme in %q", rep.URL)
	}
}

// LoadCode stores the bundle and ships it to every engine (§3.5). The
// engines pick it up immediately when idle, or at the next rewind.
func (s *Service) LoadCode(sessionID string, b codeloader.Bundle) (*codeloader.Bundle, error) {
	sess, err := s.use(sessionID)
	if err != nil {
		return nil, err
	}
	stored, err := s.cfg.Loader.Store(b)
	if err != nil {
		return nil, err
	}
	sess.mu.Lock()
	defer sess.mu.Unlock()
	for i, eng := range sess.engines {
		if err := eng.LoadCode(stored); err != nil {
			return nil, fmt.Errorf("session: engine %d rejected code: %w", i, err)
		}
	}
	sess.bundle = stored
	return stored, nil
}

// Action is an interactive control verb.
type Action string

// The Figure 4 controls.
const (
	ActionRun    Action = "run"
	ActionPause  Action = "pause"
	ActionStop   Action = "stop"
	ActionRewind Action = "rewind"
	ActionStep   Action = "step"
)

// Control fans a verb out to every engine. Step takes n events per engine.
func (s *Service) Control(sessionID string, action Action, n int64) error {
	sess, err := s.use(sessionID)
	if err != nil {
		return err
	}
	sess.mu.Lock()
	defer sess.mu.Unlock()
	if sess.state == StateClosed {
		return errors.New("session: closed")
	}
	apply := func(f func(*engine.Engine) error) error {
		for i, eng := range sess.engines {
			if err := f(eng); err != nil {
				return fmt.Errorf("session: engine %d: %w", i, err)
			}
		}
		return nil
	}
	var actErr error
	switch action {
	case ActionRun:
		actErr = apply((*engine.Engine).Run)
		if actErr == nil {
			sess.state = StateAnalyzing
		}
	case ActionPause:
		actErr = apply((*engine.Engine).Pause)
	case ActionStep:
		actErr = apply(func(e *engine.Engine) error { return e.Step(n) })
	case ActionStop, ActionRewind:
		actErr = apply((*engine.Engine).Rewind)
		if actErr == nil {
			// Clear merged results so the client sees a fresh start.
			var rr merge.ResetReply
			actErr = s.cfg.Merge.Reset(merge.ResetArgs{SessionID: sess.ID}, &rr)
			if sess.ds != nil {
				sess.state = StateStaged
			} else {
				sess.state = StateActive
			}
		}
	default:
		return fmt.Errorf("session: unknown action %q", action)
	}
	return actErr
}

// EngineStatus is one engine's view in a status report.
type EngineStatus struct {
	Node  string
	State engine.State
	Err   string
	Done  int64
	Total int64
}

// Status summarizes the session.
type Status struct {
	ID      string
	State   State
	Dataset string
	Bundle  string
	Engines []EngineStatus
	// ResultVersion is the AIDA manager's current merged-result
	// version for this session (what clients poll against).
	ResultVersion int64
	// PollCacheHits / PollCacheMisses report the manager's encoded-
	// frame poll cache: hits are objects served to polling clients
	// without re-encoding.
	PollCacheHits   int64
	PollCacheMisses int64
	// Shard names the merge-fabric shard owning this session's results
	// ("" when results are served by a single unsharded manager).
	Shard string
	// ShardAddr is the RMI endpoint serving that shard directly ("" when
	// unsharded or unadvertised). Heavy pollers dial it and skip the
	// router hop.
	ShardAddr string
	// RelayName names the read relay assigned to this session's polls
	// ("" when the fabric has no relay tier or relay reads are off).
	RelayName string
	// RelayAddr is the RMI endpoint serving that relay ("" when
	// unadvertised). Read-heavy clients dial it and leave the owning
	// shard to writers.
	RelayAddr string
	// PlacementGen is the fabric's placement-table generation (0 when
	// unsharded): it bumps on every topology edit, rebalance move, or
	// fault eviction, so a client can tell "the fabric changed under me"
	// from "nothing moved" without diffing placements.
	PlacementGen uint64
	// DeadShards lists fabric shards the health prober currently marks
	// unreachable (nil when unsharded or all healthy).
	DeadShards []string
	// ResultEpoch is the session's merge-state incarnation stamp (0 when
	// the fabric does not expose one). It changes when the state is
	// rebuilt — a failover promotion or a post-fault re-baseline — so a
	// client can tell "same state, newer version" from "new incarnation,
	// discard the mirror".
	ResultEpoch int64
	// Replica names the shard holding this session's first standby copy
	// ("" when replication is off or no replica is assigned).
	Replica string
	// ReplicaChain lists every shard in the session's replica chain in
	// order, primary excluded (nil when unreplicated or depth 1 fabrics
	// that predate chains report only Replica).
	ReplicaChain []string
	// Publishes / Polls are the session's cumulative merge-traffic
	// counters; FastPolls is the subset of polls answered on the
	// lock-free quiescent path (fast-path poll ratio = FastPolls/Polls).
	Publishes, Polls, FastPolls int64
	// ReplicaLag is how many merged-result versions the standby copy
	// trails the owner (0 when unreplicated, unreachable, or caught up).
	ReplicaLag int64
}

// Status reports the session and per-engine state — the client's "hosts
// that has Analysis Engines running" panel.
func (s *Service) Status(sessionID string) (Status, error) {
	sess, err := s.use(sessionID)
	if err != nil {
		return Status{}, err
	}
	sess.mu.Lock()
	defer sess.mu.Unlock()
	st := Status{ID: sess.ID, State: sess.state}
	if sess.ds != nil {
		st.Dataset = sess.ds.ID
	}
	if sess.bundle != nil {
		st.Bundle = fmt.Sprintf("%s v%d", sess.bundle.Name, sess.bundle.Version)
	}
	allDone := len(sess.engines) > 0
	for i, eng := range sess.engines {
		es, err := eng.State()
		done, total := eng.Progress()
		e := EngineStatus{Node: sess.nodes[i], State: es, Done: done, Total: total}
		if err != nil {
			e.Err = err.Error()
		}
		if es != engine.StateFinished {
			allDone = false
		}
		st.Engines = append(st.Engines, e)
	}
	if sess.state == StateAnalyzing && allDone {
		sess.state = StateStaged
		st.State = StateStaged
	}
	st.ResultVersion = s.cfg.Merge.Version(sess.ID)
	st.PollCacheHits, st.PollCacheMisses = s.cfg.Merge.CacheStats(sess.ID)
	switch p := s.cfg.Merge.(type) {
	case interface {
		PlacementInfo(string) (string, string)
		Generation() uint64
		DeadShards() []string
	}:
		st.Shard, st.ShardAddr = p.PlacementInfo(sess.ID)
		st.PlacementGen = p.Generation()
		st.DeadShards = p.DeadShards()
	case interface {
		PlacementInfo(string) (string, string)
	}:
		st.Shard, st.ShardAddr = p.PlacementInfo(sess.ID)
	case interface{ Placement(string) string }:
		st.Shard = p.Placement(sess.ID)
	}
	if p, ok := s.cfg.Merge.(interface {
		RelayFor(string) (string, string)
	}); ok {
		st.RelayName, st.RelayAddr = p.RelayFor(sess.ID)
	}
	// Replication surfaces are capability probes too: any fabric that
	// stamps incarnations or assigns standbys reports them.
	if p, ok := s.cfg.Merge.(interface{ Epoch(string) int64 }); ok {
		st.ResultEpoch = p.Epoch(sess.ID)
	}
	if p, ok := s.cfg.Merge.(interface{ ReplicaOf(string) string }); ok {
		st.Replica = p.ReplicaOf(sess.ID)
	}
	if p, ok := s.cfg.Merge.(interface{ ReplicasOf(string) []string }); ok {
		st.ReplicaChain = p.ReplicasOf(sess.ID)
	}
	// Traffic counters ride the same lock-free Stats surface the health
	// prober and balancer use; any fabric exposing it reports them.
	if p, ok := s.cfg.Merge.(interface {
		Stats(merge.StatsArgs, *merge.StatsReply) error
	}); ok {
		var sr merge.StatsReply
		if err := p.Stats(merge.StatsArgs{SessionID: sess.ID}, &sr); err == nil && sr.Found {
			st.Publishes, st.Polls, st.FastPolls = sr.Publishes, sr.Polls, sr.FastPolls
		}
	}
	if p, ok := s.cfg.Merge.(interface{ ReplicaLag(string) int64 }); ok {
		st.ReplicaLag = p.ReplicaLag(sess.ID)
	}
	return st, nil
}

// Close tears the session down: engines and their jobs, staged files and
// merge state. Closing a session that is already gone does nothing.
func (s *Service) Close(sessionID string) {
	if sess, err := s.Get(sessionID); err == nil {
		s.teardown(sess)
	}
}

func (s *Service) teardown(sess *Session) {
	sess.mu.Lock()
	if sess.state == StateClosed {
		sess.mu.Unlock()
		return
	}
	sess.state = StateClosed
	engines, jobs, nodes := sess.engines, sess.jobs, sess.nodes
	sess.mu.Unlock()
	// Stop the engines before their jobs: Shutdown returns once an
	// engine's loop has exited, so nothing publishes after Close.
	for _, eng := range engines {
		eng.Shutdown()
	}
	s.cancelJobs(jobs)
	s.cfg.Merge.Drop(sess.ID)
	s.cfg.SharedDisk.DeleteTree(path.Join("/sessions", sess.ID))
	// The staged parts on every worker's scratch disk add up to the whole
	// dataset; they go with the session.
	if s.cfg.WorkerScratch != nil {
		for _, node := range nodes {
			if scratch, err := s.cfg.WorkerScratch(node); err == nil {
				scratch.DeleteTree(path.Join("/scratch", sess.ID))
			}
		}
	}
	s.mu.Lock()
	delete(s.sessions, sess.ID)
	delete(s.byToken, sess.Token)
	s.mu.Unlock()
}

// touch renews the session's lifetime on activity.
func (s *Service) touch(sess *Session) {
	sess.expires.Store(time.Now().Add(s.cfg.SessionLifetime).UnixNano())
}

// Sweep closes every session idle past its lifetime at now and reports
// how many it closed; call periodically.
func (s *Service) Sweep(now time.Time) int {
	s.mu.Lock()
	var expired []*Session
	for _, sess := range s.sessions {
		if now.UnixNano() > sess.expires.Load() {
			expired = append(expired, sess)
		}
	}
	s.mu.Unlock()
	for _, sess := range expired {
		s.teardown(sess)
	}
	return len(expired)
}

// Sessions returns live session IDs.
func (s *Service) Sessions() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, 0, len(s.sessions))
	for id := range s.sessions {
		out = append(out, id)
	}
	return out
}
