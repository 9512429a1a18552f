// Package merge implements the AIDA manager service of §3.7: "as soon as
// the analysis begins, the intermediate results from each individual
// analysis engine are collected and merged at the Manager node ... a
// separate plug-in on the JAS client constantly polls the AIDA manager
// ... to check for any updated histograms."
//
// Engines publish snapshots tagged with a sequence number. Each carries a
// delta (PublishArgs.Delta): only the objects touched since the worker's
// previous snapshot plus removed paths. Deltas apply additively —
// the manager patches the worker's retained tree and re-merges just the
// touched paths into the persistent merged tree, so publish cost is
// proportional to what changed, not to total state × workers. Deltas must
// arrive in sequence; on a gap (lost or reordered publish) the manager
// answers NeedFull and the engine re-baselines with a full delta, which is
// also how first publishes and rewinds work.
//
// Clients poll with their last-seen version and receive either nothing
// (unchanged) or the updated objects — incremental polling is what makes
// sub-minute feedback affordable (ablation A4). Changed objects are
// served as pre-encoded wire frames from a per-session cache keyed by
// (path, version), so N polling clients share one encode per change.
// For large worker counts a SubMerger aggregates a group of workers and
// republishes upward as one pseudo-worker, the §2.5 "sub-level of
// components" scalability design (ablation A2); it forwards
// touched-only deltas through the snapshot Transport, so the hierarchy
// composes with the incremental pipeline.
//
// Concurrency: sessions live in a lock-free table and
// each carries its own RWMutex, so publishes and polls of unrelated
// sessions never contend. Within a session, N polling clients read the
// merged tree and the encoded-frame cache under RLock while only
// publishes take the write lock; and a quiescent poll — the client's
// SinceVersion equals the current version, the overwhelmingly common
// case for interactive clients — is answered from one atomic snapshot
// without taking any lock at all. A quiescent poll may instead park
// (PollArgs.Wait): it waits on a channel carried by that snapshot, which
// the next commit closes, so a change wakes every parked reader at once
// with no lock, waiter list or goroutine of the manager's own.
//
// The exported method signatures are RMI-compatible (args/reply structs),
// so a Manager registers directly on an rmi.Server.
package merge

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/ipa-grid/ipa/internal/aida"
	"github.com/ipa-grid/ipa/internal/obs"
)

// Service is the result-fabric surface the session service and the node
// wiring program against: the RMI triple every client and engine speaks
// (Publish/Poll/Reset) plus the manager-side bookkeeping calls. Both the
// single Manager and the sharded shard.Router implement it, so one
// configuration field selects a bare manager or a multi-shard fabric.
type Service interface {
	Publisher
	Poll(args PollArgs, reply *PollReply) error
	Reset(args ResetArgs, reply *ResetReply) error
	// Version returns a session's current merged-result version (0 for
	// unknown sessions).
	Version(sessionID string) int64
	// CacheStats reports the poll encode cache's hits and misses.
	CacheStats(sessionID string) (hits, misses int64)
	// Drop removes a session entirely (teardown).
	Drop(sessionID string)
}

// PublishArgs is an engine's snapshot upload.
type PublishArgs struct {
	SessionID string
	WorkerID  string
	// Seq orders snapshots from one worker; stale ones are dropped and
	// non-consecutive deltas trigger a NeedFull resync.
	Seq int64
	// Delta is the snapshot: the objects touched since the worker's
	// previous publish, or its whole state when Delta.Full is set.
	Delta *aida.DeltaState
	// EventsDone / EventsTotal drive the client progress display.
	EventsDone  int64
	EventsTotal int64
	// Log carries accumulated script print() output (may be "").
	Log string
	// Trace is the publish's propagated trace context (zero = untraced).
	// Injected by the snapshot Transport, lifted into the RMI envelope by
	// the client, hop-advanced by the server, and forwarded into the
	// mirror stream — so one engine publish is followable end to end.
	// Old gob peers silently drop the field.
	Trace obs.TraceContext

	// frame is the publish's delta as a plain binary frame
	// (aida.AppendDeltaState) when some hop already encoded it — the
	// bytes the manager's log appends verbatim instead of re-encoding.
	// Unexported, so gob and RMI never carry it.
	frame []byte
}

// TraceCtx implements obs.Carrier: rmi.Client lifts the context into
// the wire envelope.
func (a PublishArgs) TraceCtx() obs.TraceContext { return a.Trace }

// SetFrame attaches the delta's encoded frame. b must be exactly
// aida.AppendDeltaState of the delta, must not be modified afterwards,
// and may be shared by every copy that logs this publish.
func (a *PublishArgs) SetFrame(b []byte) { a.frame = b }

// Frame returns the attached encoded frame (nil when none).
func (a PublishArgs) Frame() []byte { return a.frame }

// SetTraceCtx implements obs.Setter: rmi.Server stores the recovered,
// hop-advanced context back before dispatch.
func (a *PublishArgs) SetTraceCtx(t obs.TraceContext) { a.Trace = t }

// PublishReply acknowledges a snapshot.
type PublishReply struct {
	Accepted bool
	Version  int64 // session version after this publish
	// Epoch is the session's incarnation stamp at this publish — what a
	// replicating router forwards with the mirrored delta so the
	// replica can tell live mirrors from a deposed primary's
	// stragglers.
	Epoch int64
	// NeedFull asks the worker to re-baseline: the manager cannot apply
	// the delta (unknown worker or a sequence gap) and needs a full
	// snapshot next.
	NeedFull bool

	// frame is the accepted delta's encoded frame as the manager logged
	// it (nil without a log), handed back so a replicating router's
	// replicas log the same bytes instead of encoding their own.
	frame []byte
}

// Frame returns the accepted publish's logged frame (nil when the
// manager has no log or the reply crossed RMI).
func (r PublishReply) Frame() []byte { return r.frame }

// PollArgs is the client's update request.
type PollArgs struct {
	SessionID string
	// SinceVersion is the client's last seen version (0 = everything).
	SinceVersion int64
	// Full forces a complete tree regardless of SinceVersion.
	Full bool
	// Wait parks a non-Full poll that has nothing new — SinceVersion is
	// the current version, or the session is unknown here — for up to
	// Wait (capped at MaxPollWait), until the session commits a new
	// version or is dropped, sealed or fenced. The poll then answers as
	// an unparked one would. 0 answers at once.
	Wait time.Duration
	// SinceEpoch is the epoch SinceVersion was read at (0 = not known).
	// A session at another epoch is a rebuilt state whose versions do
	// not compare with SinceVersion, so a Wait poll of it is not parked.
	SinceEpoch int64
}

// MaxPollWait caps PollArgs.Wait, so that a remote caller cannot pin a
// handler goroutine for longer than this per call.
const MaxPollWait = 5 * time.Second

// WorkerProgress summarizes one engine for the client status panel
// ("Information about the hosts that has Analysis Engines running",
// Figure 4).
type WorkerProgress struct {
	WorkerID    string
	EventsDone  int64
	EventsTotal int64
	Seq         int64
}

// PollReply carries merged updates.
type PollReply struct {
	// Version is the current session version; poll with it next time.
	Version int64
	// Epoch identifies this incarnation of the session's merged state.
	// It survives a shard handoff (the import carries it) but changes
	// when the state is rebuilt from scratch — a fault re-home after a
	// shard death. A client seeing a new epoch must discard its mirror
	// and full-resync: the new incarnation's version counter is
	// unrelated to the old one and may have already overtaken it, so
	// version regression alone cannot signal the rebuild. 0 for unknown
	// sessions.
	Epoch int64
	// Changed reports whether Entries carries anything new.
	Changed bool
	// Entries are the merged objects that changed since SinceVersion
	// (or all of them for a full poll), as pre-encoded wire frames
	// served from the manager's encode cache — N polling clients share
	// one encode per changed object. Unlike the frame version byte,
	// this reply schema is not cross-version compatible: clients and
	// managers ship together.
	Entries []PollEntry
	// Removed lists paths that disappeared (e.g. after rewind).
	Removed []string
	// Progress per worker, sorted by worker ID. The slice is the
	// manager's shared per-version snapshot — treat it as read-only.
	Progress []WorkerProgress
	// Logs are new log lines since the last poll.
	Logs []string
}

// PollEntry is one changed merged object in a poll reply.
type PollEntry struct {
	Path  string
	Frame aida.ObjectFrame
}

// State decodes the entry's wire frame.
func (e PollEntry) State() (aida.ObjectState, error) { return e.Frame.Decode() }

// Restore decodes the frame and rebuilds the live object.
func (e PollEntry) Restore() (aida.Object, error) { return e.Frame.Restore() }

// Release recycles every entry's frame buffer into the decode free
// list and clears the entries, so the next poll's wire decode reuses
// the memory instead of allocating. Call it only on replies that
// crossed the wire (core.Client does, after restoring the objects):
// an in-process reply's frames are shared with the manager's encode
// cache, and releasing those would corrupt later polls.
func (r *PollReply) Release() {
	for i := range r.Entries {
		r.Entries[i].Frame.Release()
		r.Entries[i].Frame = nil
	}
	r.Entries = r.Entries[:0]
}

type workerState struct {
	seq   int64
	tree  *aida.Tree
	done  int64
	total int64
	// pending is the undecoded delta tail of a mirror-fed standby copy:
	// Mirror appends here instead of decoding and re-merging, so
	// synchronous replication stays cheap on the publish path.
	// Materialized (folded into tree) when it grows long, on export,
	// and at promotion. Empty on live primaries.
	pending []*aida.DeltaState
}

// polledState is the atomically-published read snapshot behind the
// lock-free poll fast path: the session version and the per-worker
// progress at that version, swapped in as one pointer at the end of
// every write section. A reader that loads it sees a version whose
// state is fully visible — never a version ahead of the merged tree.
type polledState struct {
	version  int64
	progress []WorkerProgress // sorted by worker ID; immutable
	// changed is closed when this snapshot is replaced, which wakes
	// every poll parked on it (see Manager.park).
	changed chan struct{}
}

// retired is the wake channel of a dropped session's snapshots: already
// closed, so a poll that finds it returns at once.
var retired = func() chan struct{} {
	c := make(chan struct{})
	close(c)
	return c
}()

type sessionState struct {
	// mu orders writers (publish/reset/import/export/flush) against
	// readers (poll); polls of an unchanged session skip it entirely via
	// pub. All plain fields below are guarded by it.
	mu sync.RWMutex

	// epoch identifies this incarnation of the session (see
	// PollReply.Epoch). Assigned at creation, overwritten by Import so
	// handoffs keep it stable. Atomic because the lock-free poll fast
	// path reads it while an Import may be writing.
	epoch atomic.Int64

	// pub is the atomic read snapshot (see polledState). Stored only at
	// the end of a write section, before mu is released.
	pub atomic.Pointer[polledState]
	// sealed freezes the session for a shard handoff: publishes are
	// refused with NeedFull (the producer re-baselines on the session's
	// new owner shard) while polls keep serving the frozen state until
	// routing flips. Import clears it. Atomic so Stats never waits on a
	// write section.
	sealed atomic.Bool
	// fence is the failover fence floor: state whose epoch is at or
	// below it is refused on every write surface, and a session whose
	// own epoch sits at or below it is a deposed copy that answers
	// polls like an unknown session. Only ever rises. Atomic because
	// the lock-free poll fast path reads it.
	fence atomic.Int64
	// Poll bookkeeping, atomic so read paths never take the write lock.
	cacheHits, cacheMisses atomic.Int64
	indexPolls, walkPolls  atomic.Int64
	fastPolls              atomic.Int64
	// parked counts the polls parked on this session now.
	parked atomic.Int64
	// Cumulative traffic counters — what the shard balancer ranks
	// session moves by. Publishes counts every snapshot upload routed
	// here, polls every client read (fast path included).
	publishes, polls atomic.Int64
	// lastTrace is the trace ID of the most recent traced publish or
	// mirror applied to this state — the observable that lets a test (or
	// an operator) confirm one traced publish reached the owner, its
	// replica, and the post-failover promoted copy.
	lastTrace atomic.Uint64

	version int64
	workers map[string]*workerState
	// workerIDs mirrors the workers keys in sorted order, maintained on
	// insert so neither publish nor poll re-sorts.
	workerIDs  []string
	merged     *aida.Tree
	objVersion map[string]int64 // path → version of last content change
	gone       map[string]int64 // path → version at which it vanished
	logs       []logLine
	// frames caches each merged path's encoded wire frame at the
	// version it was stamped; Poll serves hits without re-encoding.
	// Invalidation is by version mismatch (delta applies bump
	// objVersion) plus explicit deletes on removal. A sync.Map because
	// concurrent RLock-holding polls insert misses into it.
	frames sync.Map // path → cachedFrame
	// changeLog is the per-version change index: for every version since
	// indexedSince, the merged paths stamped at it. Incremental polls
	// whose SinceVersion is covered walk only these paths instead of the
	// whole merged tree; older ones fall back to a full walk.
	changeLog    []versionChanges
	indexLen     int   // total path entries across changeLog
	indexedSince int64 // changeLog covers every change after this version
}

type versionChanges struct {
	version int64
	paths   []string
}

// maxChangeIndex bounds the change index; past it the oldest versions
// are dropped and polls from before the new floor do a full walk.
const maxChangeIndex = 4096

type cachedFrame struct {
	version int64
	frame   aida.ObjectFrame
}

type logLine struct {
	version int64
	text    string
}

// maxLogLines bounds per-session log retention.
const maxLogLines = 1000

// Manager is the root AIDA manager. Safe for concurrent use; see the
// package comment for the locking model.
type Manager struct {
	sessions sync.Map // sessionID → *sessionState

	// born is closed and replaced whenever a session is created, waking
	// polls parked on a session this manager did not hold yet.
	born atomic.Pointer[chan struct{}]

	// wal, when attached via SetWAL, logs every state-changing call for
	// crash-restart replay; walCompacting single-flights compactions.
	wal           *WAL
	walCompacting atomic.Bool
}

// NewManager creates an empty manager.
func NewManager() *Manager {
	m := &Manager{}
	born := make(chan struct{})
	m.born.Store(&born)
	return m
}

// sessionEpoch seeds session incarnation stamps: the process start
// time in nanoseconds plus one per session created. Unique within a
// process by construction and across manager processes with
// overwhelming probability — enough for "did the state get rebuilt
// under me" detection.
var sessionEpoch atomic.Int64

func init() { sessionEpoch.Store(time.Now().UnixNano()) }

func newSessionState() *sessionState {
	s := &sessionState{
		workers:    make(map[string]*workerState),
		merged:     aida.NewTree(),
		objVersion: make(map[string]int64),
		gone:       make(map[string]int64),
	}
	s.epoch.Store(sessionEpoch.Add(1))
	s.pub.Store(&polledState{changed: make(chan struct{})})
	return s
}

// session returns the state for id, creating it on first use. Only the
// publish path creates sessions; read-only RPCs use lookup so stray or
// malicious polls cannot grow memory without bound.
func (m *Manager) session(id string) *sessionState {
	if v, ok := m.sessions.Load(id); ok {
		return v.(*sessionState)
	}
	s := newSessionState()
	if v, raced := m.sessions.LoadOrStore(id, s); raced {
		return v.(*sessionState)
	}
	born := make(chan struct{})
	close(*m.born.Swap(&born))
	return s
}

// lookup returns the state for id, or nil.
func (m *Manager) lookup(id string) *sessionState {
	if v, ok := m.sessions.Load(id); ok {
		return v.(*sessionState)
	}
	return nil
}

// commitLocked publishes the atomic read snapshot for the current write
// section: version plus per-worker progress. Call at the end of every
// write section that changed session state, while still holding mu —
// the store is what makes the new version visible to lock-free polls,
// so everything the version covers must already be in place.
func (s *sessionState) commitLocked() {
	ps := &polledState{version: s.version}
	if len(s.workerIDs) > 0 {
		ps.progress = make([]WorkerProgress, 0, len(s.workerIDs))
		for _, id := range s.workerIDs {
			w := s.workers[id]
			ps.progress = append(ps.progress, WorkerProgress{
				WorkerID: id, EventsDone: w.done, EventsTotal: w.total, Seq: w.seq,
			})
		}
	}
	s.storePubLocked(ps)
}

// storePubLocked installs ps as the read snapshot, then wakes every poll
// parked on the one it replaces — in that order, so a woken poll reads
// ps. A retired session's snapshots keep the retired channel, so
// nothing parks on it again. Caller holds mu.
func (s *sessionState) storePubLocked(ps *polledState) {
	old := s.pub.Load()
	switch {
	case old.changed == retired:
		ps.changed = retired
	case ps.changed == nil:
		ps.changed = make(chan struct{})
	}
	s.pub.Store(ps)
	if old.changed != retired {
		close(old.changed)
	}
}

// wakeLocked wakes the parked polls of an event that changes how a poll
// is answered but not the version — a seal, a fence — or, with retire,
// that ends the session here. Caller holds mu.
func (s *sessionState) wakeLocked(retire bool) {
	ps := *s.pub.Load()
	ps.changed = nil
	if retire {
		ps.changed = retired
	}
	s.storePubLocked(&ps)
}

// retire wakes, for good, every poll parked on a state the manager no
// longer holds.
func (s *sessionState) retire() {
	s.mu.Lock()
	s.wakeLocked(true)
	s.mu.Unlock()
}

// clearFrames empties the encode cache (reset, import, tombstone).
// Caller holds mu, so no poll is concurrently reading.
func (s *sessionState) clearFrames() {
	s.frames.Range(func(k, _ any) bool {
		s.frames.Delete(k)
		return true
	})
}

// worker returns the state for workerID, creating (and index-inserting)
// it on first use. Caller holds s.mu.
func (s *sessionState) worker(workerID string) *workerState {
	w := s.workers[workerID]
	if w == nil {
		w = &workerState{}
		s.workers[workerID] = w
		at := sort.SearchStrings(s.workerIDs, workerID)
		s.workerIDs = append(s.workerIDs, "")
		copy(s.workerIDs[at+1:], s.workerIDs[at:])
		s.workerIDs[at] = workerID
	}
	return w
}

// recordChange appends path to the per-version change index. Caller
// holds s.mu and has already stamped objVersion[path] = s.version.
func (s *sessionState) recordChange(path string) {
	n := len(s.changeLog)
	if n == 0 || s.changeLog[n-1].version != s.version {
		s.changeLog = append(s.changeLog, versionChanges{version: s.version})
		n++
	}
	vc := &s.changeLog[n-1]
	vc.paths = append(vc.paths, path)
	s.indexLen++
	if s.indexLen <= maxChangeIndex {
		return
	}
	// Shed the oldest versions down to half capacity; the floor moves up
	// so polls from before it take the full-walk fallback.
	drop := 0
	for drop < len(s.changeLog)-1 && s.indexLen > maxChangeIndex/2 {
		s.indexLen -= len(s.changeLog[drop].paths)
		drop++
	}
	if drop == 0 || s.indexLen > maxChangeIndex {
		// A single version touched more paths than the whole cap (a
		// huge baseline publish): any poll it could serve would return
		// nearly everything, so the index degenerates to the full walk.
		s.invalidateChangeIndex()
		return
	}
	s.indexedSince = s.changeLog[drop-1].version
	s.changeLog = append([]versionChanges(nil), s.changeLog[drop:]...)
}

// invalidateChangeIndex empties the index after a bulk restamp (reset,
// session import, promotion); it refills from the next delta.
func (s *sessionState) invalidateChangeIndex() {
	s.changeLog = nil
	s.indexLen = 0
	s.indexedSince = s.version
}

// changedSince returns the deduplicated sorted paths stamped after
// since. Caller holds s.mu (read or write) and has checked
// since >= indexedSince.
func (s *sessionState) changedSince(since int64) []string {
	i := sort.Search(len(s.changeLog), func(i int) bool { return s.changeLog[i].version > since })
	if i == len(s.changeLog) {
		return nil
	}
	seen := make(map[string]struct{})
	var out []string
	for ; i < len(s.changeLog); i++ {
		for _, p := range s.changeLog[i].paths {
			if _, dup := seen[p]; !dup {
				seen[p] = struct{}{}
				out = append(out, p)
			}
		}
	}
	sort.Strings(out)
	return out
}

func (s *sessionState) appendLog(text string) {
	if text == "" {
		return
	}
	s.logs = append(s.logs, logLine{version: s.version, text: text})
	if len(s.logs) > maxLogLines {
		s.logs = s.logs[len(s.logs)-maxLogLines:]
	}
}

// logFrame returns the frame a publish or mirror record logs for d: the
// one a previous hop encoded, else — with a log attached — a fresh
// encoding, made here once and outside the session write section. nil
// without a log.
func (m *Manager) logFrame(have []byte, d *aida.DeltaState) ([]byte, error) {
	if have != nil || m.wal == nil {
		return have, nil
	}
	return encodeFrame(d)
}

// recordTrace notes an accepted traced write on this state: the trace
// ID becomes observable via Stats, and the apply is recorded as a span
// (also covering in-process calls that never crossed RMI). Caller
// holds s.mu; no-op for untraced writes.
func (s *sessionState) recordTrace(t obs.TraceContext, t0 time.Time) {
	if !t.Valid() {
		return
	}
	s.lastTrace.Store(t.TraceID)
	if !t0.IsZero() {
		obs.RecordSpan(t, "merge.apply", time.Since(t0))
	}
}

// Publish ingests a worker snapshot (RMI-compatible): patch the worker's
// retained tree with the delta, then re-merge only the touched paths.
func (m *Manager) Publish(args PublishArgs, reply *PublishReply) error {
	if args.SessionID == "" || args.WorkerID == "" {
		return fmt.Errorf("merge: session and worker IDs required")
	}
	d := args.Delta
	if d == nil {
		return fmt.Errorf("merge: publish from %s carries no delta", args.WorkerID)
	}
	// Restore all payload objects before locking anything so a corrupt
	// delta is rejected atomically and decode cost stays outside the
	// critical section.
	objs := make([]aida.Object, len(d.Entries))
	for i, e := range d.Entries {
		obj, err := e.Object.Restore()
		if err != nil {
			return fmt.Errorf("merge: bad delta from %s at %q: %w", args.WorkerID, e.Path, err)
		}
		objs[i] = obj
	}
	var err error
	if args.frame, err = m.logFrame(args.frame, d); err != nil {
		return err
	}
	t0 := obs.Now()
	defer obsPublishSeconds.ObserveSince(t0)
	s := m.session(args.SessionID)
	s.publishes.Add(1)
	obsPublishes.Inc()
	obsPubWaiting.Add(1)
	s.mu.Lock()
	defer s.mu.Unlock()
	defer obsPubWaiting.Add(-1)
	reply.Version = s.version
	reply.Epoch = s.epoch.Load()
	if s.sealed.Load() || s.fenced() {
		// Mid-handoff (or a deposed post-failover copy): refusing with
		// NeedFull makes the producer re-baseline — by the time it does,
		// routing has flipped and the baseline lands on the live owner.
		reply.Accepted, reply.NeedFull = false, true
		return nil
	}
	w := s.worker(args.WorkerID)
	if len(w.pending) > 0 {
		// A mirror-fed worker taking direct publishes (its copy went
		// live): fold the stored tail first so the delta lands on the
		// full baseline.
		if err := w.materialize(); err != nil {
			return err
		}
	}
	if !d.Full {
		if args.Seq <= w.seq && w.tree != nil {
			// Duplicate or stale retry: w.seq only advances on applied
			// snapshots, so this delta's content is already incorporated
			// (or superseded by a later baseline). Drop it cheaply — no
			// resync needed.
			reply.Accepted = false
			return nil
		}
		if w.tree == nil || args.Seq != w.seq+1 {
			// Unknown baseline or a sequence gap ahead: deltas are
			// cumulative from the previous snapshot, so the missing one
			// is unrecoverable. Ask for a re-baseline.
			reply.Accepted = false
			reply.NeedFull = true
			return nil
		}
	} else if w.tree != nil && args.Seq <= w.seq && args.Seq != 0 {
		// Stale baseline (out-of-order retry of an old full snapshot).
		reply.Accepted = false
		return nil
	}
	touched := make([]string, 0, len(d.Entries)+len(d.Removed))
	if d.Full {
		old := w.tree
		next := aida.NewTree()
		for i, e := range d.Entries {
			if err := next.PutAt(e.Path, objs[i]); err != nil {
				return err
			}
			touched = append(touched, e.Path)
		}
		if old != nil {
			// Paths the worker used to contribute but no longer does
			// (rewind with a changed analysis) must re-merge too.
			old.Walk(func(path string, _ aida.Object) {
				if next.Get(path) == nil {
					touched = append(touched, path)
				}
			})
		}
		w.tree = next
	} else {
		for i, e := range d.Entries {
			if err := w.tree.PutAt(e.Path, objs[i]); err != nil {
				return err
			}
			touched = append(touched, e.Path)
		}
		for _, path := range d.Removed {
			if w.tree.Rm(path) {
				touched = append(touched, path)
			}
		}
	}
	w.seq = args.Seq
	w.done = args.EventsDone
	w.total = args.EventsTotal
	s.version++
	for _, path := range touched {
		if err := s.recomputePath(path); err != nil {
			return err
		}
	}
	s.appendLog(args.Log)
	s.commitLocked()
	s.recordTrace(args.Trace, t0)
	reply.Accepted = true
	reply.Version = s.version
	reply.frame = args.frame
	return m.walAppend(&walRecord{Kind: walPublish, Publish: &args})
}

// recomputePath rebuilds the merged object at path from every worker's
// contribution and stamps it with the current version. Workers merge in
// sorted-ID order so results are deterministic and identical to a full
// rebuild. The merged tree only ever receives freshly-built objects
// here — existing entries are replaced, never mutated — which is what
// lets polls read them under RLock. Caller holds s.mu.
func (s *sessionState) recomputePath(path string) error {
	var acc aida.Object
	for _, id := range s.workerIDs {
		w := s.workers[id]
		if w.tree == nil {
			continue
		}
		obj := w.tree.Get(path)
		if obj == nil {
			continue
		}
		if acc == nil {
			cp, err := aida.CloneObject(obj)
			if err != nil {
				return fmt.Errorf("merge: %q: %w", path, err)
			}
			acc = cp
			continue
		}
		mo, ok := acc.(aida.Mergeable)
		if !ok {
			return fmt.Errorf("merge: object %q (%s) is not mergeable", path, acc.Kind())
		}
		if err := mo.MergeFrom(obj); err != nil {
			return fmt.Errorf("merge: merging %q: %w", path, err)
		}
	}
	if acc == nil {
		if s.merged.Rm(path) {
			s.gone[path] = s.version
		}
		delete(s.objVersion, path)
		s.frames.Delete(path)
		return nil
	}
	if err := s.merged.PutAt(path, acc); err != nil {
		return err
	}
	s.objVersion[path] = s.version
	s.recordChange(path)
	delete(s.gone, path)
	return nil
}

// rebuild recomputes the merged tree from every worker tree and stamps
// every path with the current version — how an imported or promoted copy
// becomes servable. Paths that vanished are recorded as removed. Caller
// holds s.mu.
func (s *sessionState) rebuild() error {
	prev := s.merged
	next := aida.NewTree()
	for _, id := range s.workerIDs {
		if w := s.workers[id]; w.tree != nil {
			if err := next.MergeFrom(w.tree); err != nil {
				return err
			}
		}
	}
	next.Walk(func(path string, _ aida.Object) {
		s.objVersion[path] = s.version
		delete(s.gone, path)
	})
	prev.Walk(func(path string, _ aida.Object) {
		if next.Get(path) == nil {
			s.gone[path] = s.version
			delete(s.objVersion, path)
			s.frames.Delete(path)
		}
	})
	s.merged = next
	// Every path was restamped at once; the index refills from the next
	// delta, and older polls take the full walk meanwhile.
	s.invalidateChangeIndex()
	return nil
}

// Poll returns merged updates since the client's version
// (RMI-compatible). Unknown sessions yield an empty reply rather than
// allocating state. Quiescent polls (SinceVersion == current version)
// return on one atomic load; other polls share the session read lock,
// so any number of clients poll concurrently with each other. With
// args.Wait a poll that has nothing new parks first (see park).
func (m *Manager) Poll(args PollArgs, reply *PollReply) error {
	if args.Wait > 0 && !args.Full {
		m.park(args)
	}
	t0 := obs.Now()
	defer obsPollSeconds.ObserveSince(t0)
	s := m.lookup(args.SessionID)
	if s == nil {
		return nil
	}
	s.polls.Add(1)
	obsPolls.Inc()
	if s.fenced() {
		// A deposed post-failover copy answers like an unknown session:
		// version 0 sends a direct-polling straggler back to placement
		// resolution, where it finds the promoted owner.
		return nil
	}
	if !args.Full {
		// Lock-free fast path: nothing changed since the client's last
		// poll. The snapshot pointer is stored only after a write
		// section completes, so the version it reports never runs ahead
		// of visible state; a concurrent in-flight publish simply isn't
		// observed until its commit.
		if ps := s.pub.Load(); ps.version == args.SinceVersion {
			reply.Version = ps.version
			reply.Epoch = s.epoch.Load()
			reply.Progress = ps.progress
			s.fastPolls.Add(1)
			obsFastPolls.Inc()
			return nil
		}
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	reply.Version = s.version
	reply.Epoch = s.epoch.Load()
	reply.Progress = s.pub.Load().progress
	for _, l := range s.logs {
		if l.version > args.SinceVersion {
			reply.Logs = append(reply.Logs, l.text)
		}
	}
	var firstErr error
	emit := func(path string, obj aida.Object) {
		if firstErr != nil {
			return
		}
		ver := s.objVersion[path]
		if v, ok := s.frames.Load(path); ok {
			if cf := v.(cachedFrame); cf.version == ver {
				s.cacheHits.Add(1)
				obsCacheHits.Inc()
				reply.Entries = append(reply.Entries, PollEntry{Path: path, Frame: cf.frame})
				return
			}
		}
		st, err := aida.StateOf(obj)
		if err != nil {
			firstErr = err
			return
		}
		frame, err := aida.EncodeObjectFrame(&st)
		if err != nil {
			firstErr = err
			return
		}
		s.cacheMisses.Add(1)
		obsCacheMisses.Inc()
		// Concurrent pollers may both miss and store; the entries are
		// identical for a given (path, version), so last-write-wins is
		// fine.
		s.frames.Store(path, cachedFrame{version: ver, frame: frame})
		reply.Entries = append(reply.Entries, PollEntry{Path: path, Frame: frame})
	}
	if !args.Full && args.SinceVersion > 0 && args.SinceVersion >= s.indexedSince {
		// Change-index fast path: touch only the paths stamped after the
		// client's version instead of walking the whole merged tree.
		s.indexPolls.Add(1)
		for _, path := range s.changedSince(args.SinceVersion) {
			if obj := s.merged.Get(path); obj != nil {
				emit(path, obj)
			}
		}
	} else {
		s.walkPolls.Add(1)
		include := func(path string) bool {
			if args.Full || args.SinceVersion == 0 {
				return true
			}
			return s.objVersion[path] > args.SinceVersion
		}
		s.merged.Walk(func(path string, obj aida.Object) {
			if include(path) {
				emit(path, obj)
			}
		})
	}
	if firstErr != nil {
		return firstErr
	}
	for path, ver := range s.gone {
		if args.Full || ver > args.SinceVersion {
			reply.Removed = append(reply.Removed, path)
		}
	}
	sort.Strings(reply.Removed)
	reply.Changed = len(reply.Entries) > 0 || len(reply.Removed) > 0
	return nil
}

// park holds a poll that has nothing new for its caller until that may
// have changed, or until args.Wait (capped at MaxPollWait) has passed.
// Nothing is new while the session is still at the caller's version and
// epoch, is fenced (it answers like an unknown session until it
// changes), or is unknown here. The poll waits on the snapshot's
// changed channel and wakes once: a commit, seal, fence or drop may
// change the answer, and the caller polls again to find out. A poll of
// an unknown session waits on born instead, and then for the new
// session's first commit, which its creator makes right after.
func (m *Manager) park(args PollArgs) {
	t := time.NewTimer(min(args.Wait, MaxPollWait))
	defer t.Stop()
	// Load born before the lookup, so a session created in between still
	// wakes this poll.
	born := m.born.Load()
	s := m.lookup(args.SessionID)
	if s == nil {
		select {
		case <-*born:
		case <-t.C:
			return
		}
		if s = m.lookup(args.SessionID); s == nil || s.fenced() {
			return
		}
		args.SinceVersion, args.SinceEpoch = 0, 0
	}
	ps := s.pub.Load()
	if !s.fenced() && (ps.version != args.SinceVersion ||
		args.SinceEpoch != 0 && args.SinceEpoch != s.epoch.Load()) {
		return
	}
	s.parked.Add(1)
	defer s.parked.Add(-1)
	select {
	case <-ps.changed:
	case <-t.C:
	}
}

// ResetArgs clears a session's results (rewind).
type ResetArgs struct {
	SessionID string
}

// ResetReply acknowledges a reset.
type ResetReply struct {
	Version int64
}

// ErrSealed rejects writes against a session frozen for a shard
// handoff; the caller should retry once routing has flipped.
var ErrSealed = errors.New("merge: session sealed for shard handoff; retry")

// Reset drops all worker snapshots for a session — issued on rewind so the
// next run starts from empty histograms (RMI-compatible).
func (m *Manager) Reset(args ResetArgs, reply *ResetReply) error {
	s := m.lookup(args.SessionID)
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.sealed.Load() {
		return ErrSealed
	}
	s.version++
	for path := range s.objVersion {
		s.gone[path] = s.version
		delete(s.objVersion, path)
	}
	s.workers = make(map[string]*workerState)
	s.workerIDs = nil
	s.merged = aida.NewTree()
	s.clearFrames()
	s.logs = nil
	s.invalidateChangeIndex()
	s.commitLocked()
	reply.Version = s.version
	return m.walAppend(&walRecord{Kind: walReset, Session: args.SessionID})
}

// Version returns a session's current merged-result version (0 for
// unknown sessions) — the generation stamp clients poll against. Served
// from the atomic snapshot; never blocks behind a publish.
func (m *Manager) Version(sessionID string) int64 {
	if s := m.lookup(sessionID); s != nil {
		return s.pub.Load().version
	}
	return 0
}

// CacheStats reports the poll encode cache's effectiveness for a
// session: hits are entries served without re-encoding, misses are
// fresh encodes (including every first-touch encode after a change).
// Lock-free.
func (m *Manager) CacheStats(sessionID string) (hits, misses int64) {
	if s := m.lookup(sessionID); s != nil {
		return s.cacheHits.Load(), s.cacheMisses.Load()
	}
	return 0, 0
}

// Drop removes a session entirely (teardown). Polls parked on it return.
func (m *Manager) Drop(sessionID string) {
	if v, ok := m.sessions.LoadAndDelete(sessionID); ok {
		v.(*sessionState).retire()
		m.walAppend(&walRecord{Kind: walDrop, Session: sessionID})
	}
}

// SeedFrames stores encoded frames that another manager made for this
// session's objects in the poll frame cache, stamped at version: the
// version at which the caller's own publish of those objects committed.
// An entry whose path has changed since is skipped. A relay seeds the
// upstream's frames after republishing them, so its readers are served
// the owner's encoding instead of a second one; the codec is
// deterministic, so the bytes are the same. The frames must not be
// modified or released afterwards.
func (m *Manager) SeedFrames(sessionID string, version int64, entries []PollEntry) {
	s := m.lookup(sessionID)
	if s == nil {
		return
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	for _, e := range entries {
		if s.objVersion[e.Path] == version {
			s.frames.Store(e.Path, cachedFrame{version: version, frame: e.Frame})
		}
	}
}

// MergedTree returns a deep copy of the current merged tree (manager-side
// consumers like XML export). Unknown sessions yield an empty tree.
func (m *Manager) MergedTree(sessionID string) (*aida.Tree, int64, error) {
	s := m.lookup(sessionID)
	if s == nil {
		return aida.NewTree(), 0, nil
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	cp, err := s.merged.Clone()
	return cp, s.version, err
}

// FlushState is the upstream-snapshot material a SubMerger pulls from
// its local manager in one locked read: the merged objects stamped
// after since (all of them, as a Full baseline, when since is 0), the
// paths removed after since, aggregate progress, and the log lines
// accumulated after logSince.
type FlushState struct {
	Delta       *aida.DeltaState
	Version     int64
	Done, Total int64
	Logs        []string
}

// FlushState assembles a forwardable delta of everything that changed
// in the merged tree after since. Unknown sessions yield an empty
// snapshot.
func (m *Manager) FlushState(sessionID string, since, logSince int64) (FlushState, error) {
	fs := FlushState{Delta: &aida.DeltaState{Full: since == 0}}
	s := m.lookup(sessionID)
	if s == nil {
		return fs, nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	fs.Version = s.version
	for _, id := range s.workerIDs {
		w := s.workers[id]
		fs.Done += w.done
		fs.Total += w.total
	}
	for _, l := range s.logs {
		if l.version > logSince {
			fs.Logs = append(fs.Logs, l.text)
		}
	}
	var firstErr error
	s.merged.Walk(func(path string, obj aida.Object) {
		if firstErr != nil {
			return
		}
		if since != 0 && s.objVersion[path] <= since {
			return
		}
		st, err := aida.StateOf(obj)
		if err != nil {
			firstErr = err
			return
		}
		fs.Delta.Entries = append(fs.Delta.Entries, aida.TreeEntry{Path: path, Object: st})
	})
	if firstErr != nil {
		return fs, firstErr
	}
	if since != 0 {
		for path, ver := range s.gone {
			if ver > since {
				fs.Delta.Removed = append(fs.Delta.Removed, path)
			}
		}
		sort.Strings(fs.Delta.Removed)
	}
	return fs, nil
}

// ------------------------------------------------------------------
// Shard handoff surface. A shard router migrates a session between
// Manager shards by Export(Seal)ing it on the old owner, Import()ing the
// dump into the new one, flipping routing, and dropping the old copy.
// All methods are RMI-compatible, so remote shards need no extra
// plumbing beyond their registration name.

// ExportArgs requests a full session dump for a shard handoff.
type ExportArgs struct {
	SessionID string
	// Seal freezes the session on this manager: subsequent publishes are
	// refused with NeedFull (so producers re-baseline on the session's
	// new owner) while polls keep serving the frozen state until routing
	// flips. Import on this manager lifts the seal.
	Seal bool
}

// WorkerSnapshot is one worker's complete retained state in an export.
type WorkerSnapshot struct {
	WorkerID    string
	Seq         int64
	Done, Total int64
	// HasTree distinguishes a worker with an empty tree from one that
	// never baselined (nil tree: its next delta draws NeedFull).
	HasTree bool
	Tree    aida.TreeState
}

// RemovedPath is one vanished merged path with the version it vanished
// at — carried across handoffs so incremental pollers still learn of
// removals that predate the move.
type RemovedPath struct {
	Path    string
	Version int64
}

// LogLine is one retained log line with the version it was stamped at.
type LogLine struct {
	Version int64
	Text    string
}

// ExportReply is the complete migratable state of one session.
type ExportReply struct {
	Found   bool
	Version int64
	// Epoch is the session's incarnation stamp; the importer adopts it
	// so a handoff does not look like a rebuild to polling clients.
	Epoch   int64
	Workers []WorkerSnapshot
	Removed []RemovedPath
	Logs    []LogLine
	// LastTraceID carries the most recent traced write's trace ID so a
	// handoff or replica seed stays observable under the same trace.
	LastTraceID uint64
}

// Export dumps a session's full state for migration (RMI-compatible).
// Unknown sessions report Found=false. With args.Seal the session is
// atomically frozen in the same locked section, so no publish can slip
// between the dump and the freeze.
func (m *Manager) Export(args ExportArgs, reply *ExportReply) error {
	s := m.lookup(args.SessionID)
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, id := range s.workerIDs {
		// A mirror-fed copy's stored delta tails must fold into the
		// worker trees so the dump is complete.
		if err := s.workers[id].materialize(); err != nil {
			return err
		}
	}
	reply.Found = true
	reply.Version = s.version
	reply.Epoch = s.epoch.Load()
	reply.LastTraceID = s.lastTrace.Load()
	for _, id := range s.workerIDs {
		w := s.workers[id]
		ws := WorkerSnapshot{WorkerID: id, Seq: w.seq, Done: w.done, Total: w.total}
		if w.tree != nil {
			st, err := w.tree.State()
			if err != nil {
				return fmt.Errorf("merge: exporting %s/%s: %w", args.SessionID, id, err)
			}
			ws.HasTree, ws.Tree = true, *st
		}
		reply.Workers = append(reply.Workers, ws)
	}
	for path, ver := range s.gone {
		reply.Removed = append(reply.Removed, RemovedPath{Path: path, Version: ver})
	}
	sort.Slice(reply.Removed, func(i, j int) bool { return reply.Removed[i].Path < reply.Removed[j].Path })
	for _, l := range s.logs {
		reply.Logs = append(reply.Logs, LogLine{Version: l.version, Text: l.text})
	}
	if args.Seal {
		s.sealed.Store(true)
		s.wakeLocked(false)
	}
	return nil
}

// ImportArgs installs an exported session dump on its new owner shard.
type ImportArgs struct {
	SessionID string
	Version   int64
	// Epoch, when non-zero, carries the exported incarnation stamp
	// across the handoff (see ExportReply.Epoch).
	Epoch   int64
	Workers []WorkerSnapshot
	Removed []RemovedPath
	Logs    []LogLine
	// LastTraceID restores the exported copy's most recent trace ID
	// (zero = the source had seen no traced writes).
	LastTraceID uint64
}

// ImportReply acknowledges an import.
type ImportReply struct {
	Version int64
}

// Import installs an exported session, replacing any prior state for
// that ID (RMI-compatible). The session version continues from the
// imported one and every merged path is stamped at it, so clients
// polling with any older version refresh fully; workers continue
// publishing deltas from their exported sequence numbers without a
// resync. Import also lifts a seal, which doubles as the rollback path
// when a handoff fails after sealing the source.
func (m *Manager) Import(args ImportArgs, reply *ImportReply) error {
	if args.SessionID == "" {
		return errors.New("merge: import needs a session ID")
	}
	// Restore all worker trees before locking anything so a corrupt
	// import is rejected atomically.
	trees := make([]*aida.Tree, len(args.Workers))
	for i, ws := range args.Workers {
		if !ws.HasTree {
			continue
		}
		tree, err := ws.Tree.Restore()
		if err != nil {
			return fmt.Errorf("merge: importing %s/%s: %w", args.SessionID, ws.WorkerID, err)
		}
		trees[i] = tree
	}
	s := m.session(args.SessionID)
	s.mu.Lock()
	defer s.mu.Unlock()
	if f := s.fence.Load(); f > 0 && args.Epoch <= f {
		// A stale incarnation (or one of unknown vintage) must not
		// resurrect over a fenced copy — the exact zombie-rebaseline
		// race the fence exists to close.
		return ErrFenced
	}
	if args.Version > s.version {
		s.version = args.Version
	}
	if args.Epoch != 0 {
		s.epoch.Store(args.Epoch)
	}
	if args.LastTraceID != 0 {
		s.lastTrace.Store(args.LastTraceID)
	}
	s.sealed.Store(false)
	s.workers = make(map[string]*workerState)
	s.workerIDs = nil
	s.merged = aida.NewTree()
	s.objVersion = make(map[string]int64)
	s.gone = make(map[string]int64)
	s.clearFrames()
	s.logs = nil
	for i, ws := range args.Workers {
		w := s.worker(ws.WorkerID)
		w.seq, w.done, w.total = ws.Seq, ws.Done, ws.Total
		w.tree = trees[i]
	}
	// Rebuild merged from the imported workers, every path stamped at
	// the (imported) current version.
	if err := s.rebuild(); err != nil {
		return err
	}
	for _, rp := range args.Removed {
		if s.merged.Get(rp.Path) != nil {
			continue
		}
		ver := rp.Version
		if ver > s.version {
			ver = s.version
		}
		s.gone[rp.Path] = ver
	}
	for _, l := range args.Logs {
		s.logs = append(s.logs, logLine{version: l.Version, text: l.Text})
	}
	if len(s.logs) > maxLogLines {
		s.logs = s.logs[len(s.logs)-maxLogLines:]
	}
	s.commitLocked()
	reply.Version = s.version
	return m.walAppend(&walRecord{Kind: walImport, Import: &args})
}

// StatsArgs requests a session's bookkeeping counters.
type StatsArgs struct {
	SessionID string
}

// StatsReply carries them: the RMI-shaped form of Version/CacheStats,
// which is what lets a router answer those for remote shards.
type StatsReply struct {
	Found                  bool
	Version                int64
	CacheHits, CacheMisses int64
	Workers                int
	Sealed                 bool
	// Epoch is the session's incarnation stamp; Fenced marks a deposed
	// post-failover copy (its epoch sits at or below its fence floor).
	Epoch  int64
	Fenced bool
	// FastPolls counts polls answered by the lock-free quiescent path.
	FastPolls int64
	// Parked counts the polls parked on the session right now (see
	// PollArgs.Wait). Behind a relay tier it is at most one per relay.
	Parked int64
	// Publishes / Polls are the session's cumulative traffic counters —
	// the load signal the shard balancer ranks migration candidates by.
	Publishes, Polls int64
	// LastTraceID is the trace ID of the most recent traced publish or
	// mirror applied here (0 = none yet) — how trace propagation is
	// observed on owners, replicas, and post-failover promoted copies.
	LastTraceID uint64
}

// Stats reports a session's version and cache counters (RMI-compatible).
// Served entirely from atomics, so a fault-detection probe never blocks
// behind a long publish holding the session write lock.
func (m *Manager) Stats(args StatsArgs, reply *StatsReply) error {
	s := m.lookup(args.SessionID)
	if s == nil {
		return nil
	}
	ps := s.pub.Load()
	reply.Found = true
	reply.Version = ps.version
	reply.CacheHits, reply.CacheMisses = s.cacheHits.Load(), s.cacheMisses.Load()
	reply.Workers = len(ps.progress)
	reply.Sealed = s.sealed.Load()
	reply.Epoch = s.epoch.Load()
	reply.Fenced = s.fenced()
	reply.FastPolls = s.fastPolls.Load()
	reply.Parked = s.parked.Load()
	reply.Publishes = s.publishes.Load()
	reply.Polls = s.polls.Load()
	reply.LastTraceID = s.lastTrace.Load()
	return nil
}

// SealArgs / SealReply toggle a session's handoff freeze directly —
// the cheap rollback when a migration fails after sealing the source
// (the source still holds all its state; only the seal needs lifting).
type SealArgs struct {
	SessionID string
	On        bool
}

// SealReply acknowledges a seal toggle.
type SealReply struct {
	Found bool
}

// Seal freezes or thaws a session without touching its state
// (RMI-compatible). The write lock orders the toggle against in-flight
// publishes: after Seal returns, every subsequent publish sees it.
func (m *Manager) Seal(args SealArgs, reply *SealReply) error {
	s := m.lookup(args.SessionID)
	if s == nil {
		return nil
	}
	s.mu.Lock()
	s.sealed.Store(args.On)
	s.wakeLocked(false)
	s.mu.Unlock()
	reply.Found = true
	return nil
}

// DropArgs / DropReply are the RMI-shaped form of Drop.
type DropArgs struct {
	SessionID string
	// Tombstone frees the session's state but leaves an empty sealed
	// shell behind. A completed handoff drops the old owner's copy this
	// way: a publish that raced the migration must keep drawing
	// NeedFull here rather than re-creating an unsealed session whose
	// accepted snapshots nobody would ever poll. Teardown (plain drop)
	// reaps tombstones.
	Tombstone bool
}

// DropReply acknowledges a drop.
type DropReply struct{}

// DropSession removes a session entirely, or reduces it to a sealed
// tombstone (RMI-compatible Drop).
func (m *Manager) DropSession(args DropArgs, reply *DropReply) error {
	if !args.Tombstone {
		m.Drop(args.SessionID)
		return nil
	}
	// The shell keeps version 0, not the live version: a poll that
	// resolved this shard just before the routing flip would otherwise
	// read an empty tree stamped at the live version and fast-forward
	// its SinceVersion past everything the new owner imported. Version 0
	// makes such a straggler poll reset to a full refresh instead —
	// exactly what it would see if the session were already deleted.
	// CompareAndSwap (not Store) so a concurrent teardown Drop wins and
	// no empty shell lingers after it.
	if v, ok := m.sessions.Load(args.SessionID); ok {
		shell := newSessionState()
		shell.sealed.Store(true)
		// A fence floor outlives the state it fenced: the shell must
		// keep refusing the dead incarnation's stragglers and imports.
		shell.fence.Store(v.(*sessionState).fence.Load())
		if m.sessions.CompareAndSwap(args.SessionID, v, shell) {
			v.(*sessionState).retire()
			m.walAppend(&walRecord{Kind: walDrop, Session: args.SessionID, Tombstone: true})
		}
	}
	return nil
}

// SessionsArgs requests the session enumeration.
type SessionsArgs struct{}

// SessionsReply lists the sessions a manager currently holds.
type SessionsReply struct {
	SessionIDs []string
	// Loads carries each session's cumulative traffic counters, aligned
	// with SessionIDs — one probe gives the balancer the whole shard's
	// load picture instead of a Stats call per session.
	Loads []SessionLoad
}

// SessionLoad is one session's traffic summary in a SessionList reply.
type SessionLoad struct {
	SessionID        string
	Publishes, Polls int64
	Version          int64
}

// SessionList enumerates this manager's sessions, sorted, with their
// traffic counters (RMI-compatible) — the balancer's probe surface; the
// shard router tracks placement itself and does not depend on it.
// Lock-free: a long publish on any session never delays the
// enumeration.
func (m *Manager) SessionList(args SessionsArgs, reply *SessionsReply) error {
	m.sessions.Range(func(k, v any) bool {
		s := v.(*sessionState)
		reply.Loads = append(reply.Loads, SessionLoad{
			SessionID: k.(string),
			Publishes: s.publishes.Load(), Polls: s.polls.Load(),
			Version: s.pub.Load().version,
		})
		return true
	})
	sort.Slice(reply.Loads, func(i, j int) bool { return reply.Loads[i].SessionID < reply.Loads[j].SessionID })
	reply.SessionIDs = make([]string, len(reply.Loads))
	for i, l := range reply.Loads {
		reply.SessionIDs[i] = l.SessionID
	}
	return nil
}

// PollIndexStats reports how many polls were served off the change
// index vs by a full merged-tree walk. Polls answered by the lock-free
// quiescent path count in neither (see StatsReply.FastPolls).
func (m *Manager) PollIndexStats(sessionID string) (indexed, walked int64) {
	if s := m.lookup(sessionID); s != nil {
		return s.indexPolls.Load(), s.walkPolls.Load()
	}
	return 0, 0
}

// FastPolls reports how many polls a session answered on the lock-free
// quiescent fast path.
func (m *Manager) FastPolls(sessionID string) int64 {
	if s := m.lookup(sessionID); s != nil {
		return s.fastPolls.Load()
	}
	return 0
}

// SubMerger aggregates the engines of one group and forwards one
// combined pseudo-worker snapshot upstream (§2.5). It implements
// Publisher so engines can't tell it from the root manager. Flushes
// forward touched-only deltas through the shared snapshot Transport —
// cost proportional to what the group changed since the last flush —
// so multi-level hierarchies compose with the incremental pipeline
// instead of re-shipping the group's whole state every hop.
type SubMerger struct {
	session string

	mu        sync.Mutex
	local     *Manager
	transport *Transport
	// lastFlushed is the local merged version covered by the last
	// accepted upstream flush; the next delta starts there.
	lastFlushed int64
	// FlushEvery forwards upstream after this many local publishes
	// (1 = every time; larger batches trade freshness for fan-in).
	FlushEvery int
	pending    int
}

// NewSubMerger creates a group merger forwarding to upstream as the
// pseudo-worker name.
func NewSubMerger(name, sessionID string, upstream Publisher, flushEvery int) *SubMerger {
	if flushEvery <= 0 {
		flushEvery = 1
	}
	return &SubMerger{
		session:    sessionID,
		local:      NewManager(),
		transport:  NewTransport(sessionID, name, upstream),
		FlushEvery: flushEvery,
	}
}

// Publish implements Publisher: merge locally, forward the group total
// every FlushEvery publishes.
func (s *SubMerger) Publish(args PublishArgs, reply *PublishReply) error {
	if err := s.local.Publish(args, reply); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.pending++
	if s.pending < s.FlushEvery {
		return nil
	}
	s.pending = 0
	return s.flushLocked()
}

// Flush forces the group snapshot upstream (end of run).
func (s *SubMerger) Flush() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.flushLocked()
}

func (s *SubMerger) flushLocked() error {
	var covered int64
	reply, err := s.transport.Send(func(full bool) (Snapshot, error) {
		since := s.lastFlushed
		if full {
			since = 0
		}
		fs, err := s.local.FlushState(s.session, since, s.lastFlushed)
		if err != nil {
			return Snapshot{}, err
		}
		covered = fs.Version
		return Snapshot{
			Delta: fs.Delta, Done: fs.Done, Total: fs.Total,
			Log: strings.Join(fs.Logs, "\n"),
		}, nil
	})
	if err != nil {
		return err
	}
	if reply.Accepted {
		s.lastFlushed = covered
	}
	return nil
}
