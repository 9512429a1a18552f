// Package session implements the Interactive Parallel Dataset Analysis
// Session Manager Service — "at the heart of the system design" (§3.2).
//
// A session is the unit of interactivity: creating one starts a set of
// analysis engines as jobs on the site's interactive scheduler queue,
// attaching a dataset runs the locate → split → stage pipeline of §3.4
// as one pass over the replica (a file:// replica is planned and each
// engine reads its record range of it in place; a gsiftp:// replica
// streams each range into its worker's scratch), loading code ships the
// user's analysis to every engine (§3.5), and the run controls of §3.6
// fan out to all engines. Every client call
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
	"io"
	"path"
	"runtime/debug"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/ipa-grid/ipa/internal/catalog"
	"github.com/ipa-grid/ipa/internal/codeloader"
	"github.com/ipa-grid/ipa/internal/dataset"
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
	// WorkerScratch resolves a node name to its scratch storage, where
	// the node's engine reads its part staged from a gsiftp:// replica. A
	// file:// replica is read in place and stages nothing.
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
	// open opens a replica for staging: openReplica, which a test wraps
	// to act on a replica between its opening and the plan.
	open func(url string) (*replica, error)

	mu       sync.Mutex
	sessions map[string]*Session // by ID
	byToken  map[string]*Session
}

// New creates the session service.
func New(cfg Config) (*Service, error) {
	switch {
	case cfg.Cluster == nil, cfg.NewEngine == nil, cfg.Locator == nil,
		cfg.Catalog == nil, cfg.Merge == nil, cfg.Loader == nil:
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
	return &Service{cfg: cfg, open: openReplica, sessions: make(map[string]*Session), byToken: make(map[string]*Session)}, nil
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

// ValidateToken authorizes an RMI token and returns the ID of the
// session it opens: it must belong to a live session — the paper's rule
// that no RMI object works without a Web Service session (§3.7).
func (s *Service) ValidateToken(token string) (sessionID string, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	sess, ok := s.byToken[token]
	if !ok {
		return "", errors.New("session: unknown or expired session token")
	}
	return sess.ID, nil
}

// StagingReport carries the phase timings of one AttachDataset — the
// quantities Table 2 reports (move whole / split / move parts). Staging is
// one fused pass, so the three columns are its sub-spans, end to end:
// MoveWhole opens the replica and reads its trailer and index (the
// records stay where they are), Split plans the record ranges, and
// MoveParts streams every range of a gsiftp:// replica into its worker's
// scratch in parallel. Staging from a file:// replica is planning only:
// its engines read their ranges in place, nothing moves, and MoveParts
// is zero.
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

// AttachDataset runs the §3.4 staging pipeline as one pass: resolve the
// dataset ID via the catalog and locator, read the replica's index, plan
// one record range per engine, and point every engine at its range. A
// file:// replica lies on a filesystem the workers share, so each engine
// maps it and reads its range in place, and no byte is copied. From a
// gsiftp:// replica each range streams straight into its worker's scratch
// disk as a standalone container, which the engine then maps. There is no
// whole-file copy and no shared-disk part file.
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

	// A replica that fails anywhere in the pass — opening, its index, its
	// plan, or any part's stream — hands the whole pass to the next one.
	start := time.Now()
	var plan splitter.Plan
	var staged []string
	var lastErr error
	for _, rep := range res.Replicas {
		if plan, staged, lastErr = s.stageFrom(rep.URL, sess, start, report); lastErr == nil {
			report.ReplicaURL = rep.URL
			break
		}
	}
	if report.ReplicaURL == "" {
		return nil, fmt.Errorf("session: no replica could stage %s: %w", datasetID, lastErr)
	}
	sess.plan = plan

	// Point engines at their ranges: of the file:// replica itself, or of
	// the parts staged from a gsiftp:// one.
	local, inPlace := strings.CutPrefix(report.ReplicaURL, "file://")
	for i, eng := range sess.engines {
		p := plan.Parts[i]
		if inPlace {
			err = eng.SetRange(local, p.FromRecord, p.ToRecord)
		} else {
			err = eng.SetPart(staged[i], p.FromRecord)
		}
		if err != nil {
			return nil, fmt.Errorf("session: engine %d: %w", i, err)
		}
	}
	ref := *info.Dataset
	sess.ds = &ref
	sess.state = StateStaged
	return report, nil
}

// stageFrom runs the staging pass from one replica: open it and read its
// index, and plan one record range per engine. A file:// replica's pass
// ends there, as its engines read their ranges in place. A gsiftp://
// replica's ranges then stream into their workers' scratch (§3.4: "the
// transfers are done in parallel"). It returns the plan and the staged
// files' local paths (none for file://), and fills the report's phase
// timings; MoveWhole counts from start, so it includes replicas that
// failed before this one. A pass that fails deletes the parts it staged.
// The plan reads a file:// replica through its mapping, so a file
// truncated under it faults; the fault fails this replica's pass as
// ErrCorrupt, like a short read.
func (s *Service) stageFrom(url string, sess *Session, start time.Time, report *StagingReport) (_ splitter.Plan, _ []string, err error) {
	defer debug.SetPanicOnFault(debug.SetPanicOnFault(true))
	defer dataset.CatchFault(&err)
	src, err := s.open(url)
	if err != nil {
		return splitter.Plan{}, nil, err
	}
	defer src.close()
	report.MoveWhole = time.Since(start)

	t0 := time.Now()
	plan, err := splitter.PlanRecords(src.index, len(sess.engines))
	if err != nil {
		return splitter.Plan{}, nil, fmt.Errorf("splitting: %w", err)
	}
	report.Split = time.Since(t0)
	report.Imbalance = plan.Imbalance()
	if src.open == nil {
		return plan, nil, nil
	}

	t0 = time.Now()
	errs := make(chan error, len(sess.engines))
	staged := make([]string, len(sess.engines))
	for i := range sess.engines {
		go func() {
			var err error
			staged[i], err = s.stagePart(src, sess.ID, sess.nodes[i], plan.Parts[i])
			errs <- err
		}()
	}
	// Every stream ends before src closes.
	var stageErr error
	for range sess.engines {
		if err := <-errs; err != nil && stageErr == nil {
			stageErr = err
		}
	}
	if stageErr != nil {
		// The next replica's pass may not stage at all, so nothing this
		// one staged may stay behind.
		for i, local := range staged {
			if scratch, err := s.cfg.WorkerScratch(sess.nodes[i]); local != "" && err == nil {
				scratch.Delete(partFile(sess.ID, i))
			}
		}
		return splitter.Plan{}, nil, fmt.Errorf("staging parts: %w", stageErr)
	}
	report.MoveParts = time.Since(t0)
	return plan, staged, nil
}

// partFile names part i of a session on its node's scratch disk.
func partFile(sessionID string, i int) string {
	return path.Join("/scratch", sessionID, fmt.Sprintf("part-%d.ipa", i))
}

// stagePart streams one part's record range from the replica into the
// node's scratch disk as a standalone container and returns the staged
// file's local path.
func (s *Service) stagePart(src *replica, sessionID, node string, part splitter.Part) (string, error) {
	scratch, err := s.cfg.WorkerScratch(node)
	if err != nil {
		return "", err
	}
	rc, err := src.open(part)
	if err != nil {
		return "", fmt.Errorf("part %d: %w", part.Index, err)
	}
	// Put has read and checked every byte by the time it returns.
	defer rc.Close()
	dst := partFile(sessionID, part.Index)
	if _, err := scratch.Put(dst, rc); err != nil {
		return "", fmt.Errorf("part %d: %w", part.Index, err)
	}
	return scratch.LocalPath(dst)
}

// replica is an open dataset replica: its container index plans the
// split. open streams one part of a gsiftp:// replica as a standalone
// container; it is nil for a file:// replica, whose engines read their
// ranges in place.
type replica struct {
	index *dataset.Reader
	open  func(splitter.Part) (io.ReadCloser, error)
	close func() error
}

// openReplica opens a replica for staging. Supported schemes: file://
// (a filesystem the workers share: the file is mapped to read its index
// and plan the split) and gsiftp://host:port/path (GridFTP: the index is
// read through ranged retrieves, and each part streams over a control
// connection of its own).
func openReplica(url string) (*replica, error) {
	switch {
	case strings.HasPrefix(url, "file://"):
		r, m, err := dataset.Open(strings.TrimPrefix(url, "file://"))
		if err != nil {
			return nil, err
		}
		return &replica{index: r, close: m.Close}, nil
	case strings.HasPrefix(url, "gsiftp://"):
		rest := strings.TrimPrefix(url, "gsiftp://")
		slash := strings.Index(rest, "/")
		if slash < 0 {
			return nil, fmt.Errorf("session: malformed gridftp URL %q", url)
		}
		addr, remote := rest[:slash], rest[slash:]
		c, err := gridftp.Dial(addr, "")
		if err != nil {
			return nil, err
		}
		size, err := c.Size(remote)
		var r *dataset.Reader
		if err == nil {
			r, err = dataset.NewReader(c.ReaderAt(remote, size), size)
		}
		if err != nil {
			c.Close()
			return nil, err
		}
		return &replica{index: r, close: c.Close, open: func(p splitter.Part) (io.ReadCloser, error) {
			pc, err := gridftp.Dial(addr, "")
			if err != nil {
				return nil, err
			}
			rc, err := pc.OpenRange(remote, p.Offset, p.Bytes)
			if err != nil {
				pc.Close()
				return nil, err
			}
			return ownedRange{dataset.NewRangeReader(rc, p.Bytes, p.Records()), rc, pc}, nil
		}}, nil
	default:
		return nil, fmt.Errorf("session: unsupported replica scheme in %q", url)
	}
}

// ownedRange is a part re-framed from a ranged retrieve that owns its
// control connection.
type ownedRange struct {
	*dataset.RangeReader
	body io.Closer
	c    *gridftp.Client
}

func (r ownedRange) Close() error {
	err := r.body.Close()
	r.c.Close()
	return err
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
	// unsharded): it bumps on every topology edit or session move, so a
	// client can tell "the fabric changed under me" from "nothing moved"
	// without diffing placements.
	PlacementGen uint64
	// ResultEpoch is the session's merge-state incarnation stamp (0 when
	// the fabric does not expose one). It changes when the session is
	// re-created, so a client can tell "same state, newer version" from
	// "new incarnation, discard the mirror".
	ResultEpoch int64
	// Replica names the shard holding this session's first replica copy
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
	// ReplicaLag is how many merged-result versions the replica copy
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
	}:
		st.Shard, st.ShardAddr = p.PlacementInfo(sess.ID)
		st.PlacementGen = p.Generation()
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
	// stamps incarnations or assigns replicas reports them.
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
	// prober uses; any fabric exposing it reports them.
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

// Close tears the session down: engines and their jobs, parts staged from
// a gsiftp:// replica and merge state. Closing a session that is already
// gone does nothing.
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
	// Parts staged from a gsiftp:// replica add up to the whole dataset
	// over the workers' scratch disks; they go with the session.
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
