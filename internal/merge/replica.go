// Replication surface: a shard router mirrors every accepted publish to
// a replica shard, which keeps a write-only copy of the session by
// applying the same generation-stamped deltas — the SubMerger uplink
// machinery pointed sideways instead of upward. The replica stores each
// worker's delta tail without decoding it (Mirror is append-mostly, so
// mirroring stays cheap) and only materializes trees when the tail grows
// long or the copy is exported.

package merge

import (
	"fmt"

	"github.com/ipa-grid/ipa/internal/aida"
	"github.com/ipa-grid/ipa/internal/obs"
)

// mirrorPendingMax bounds a worker's stored delta tail; past it the
// tail is materialized inline (amortized, so Mirror stays cheap).
const mirrorPendingMax = 64

// MirrorArgs is one accepted publish forwarded to the session's replica
// shard: the same worker delta, seq, and progress the primary applied,
// plus the primary's incarnation stamp so a mirror from an older
// incarnation is recognizably stale.
type MirrorArgs struct {
	SessionID string
	WorkerID  string
	Seq       int64
	// Epoch is the primary's session incarnation at the mirrored
	// publish; the replica adopts it and asks for a re-baseline on a
	// mirror from any other incarnation.
	Epoch int64
	// Version is the primary's session version after the publish; the
	// replica's version tracks it so observers can watch the copy
	// catch up.
	Version int64
	Delta   *aida.DeltaState
	// Progress and logs ride along so the copy holds the same status
	// panel the primary does.
	EventsDone  int64
	EventsTotal int64
	Log         string
	// Trace is the mirrored publish's trace context, forwarded from the
	// primary so the same trace ID is observable on the replica.
	Trace obs.TraceContext

	// frame is Delta's encoded frame as the primary logged it; the
	// replica's log appends it verbatim (see PublishArgs.frame).
	frame []byte
}

// SetFrame attaches Delta's encoded frame, under the same contract as
// PublishArgs.SetFrame.
func (a *MirrorArgs) SetFrame(b []byte) { a.frame = b }

// Frame returns the attached encoded frame (nil when none).
func (a MirrorArgs) Frame() []byte { return a.frame }

// MirrorReply acknowledges a mirrored publish.
type MirrorReply struct {
	Accepted bool
	// NeedFull asks the router to re-baseline the replica from the
	// primary (Export → Import): the replica has no baseline for this
	// worker or the delta tail has a gap.
	NeedFull bool
	Version  int64
}

// Mirror applies one forwarded publish to the session's replica copy
// (RMI-compatible). The delta is seq-checked exactly like a publish but
// stored undecoded on the worker's pending tail; a long tail, or an
// Export, materializes it. A gap or missing baseline
// answers NeedFull and the router re-baselines the whole copy via
// Export/Import — the same resync contract every transport honors.
func (m *Manager) Mirror(args MirrorArgs, reply *MirrorReply) error {
	if args.SessionID == "" || args.WorkerID == "" {
		return fmt.Errorf("merge: mirror needs session and worker IDs")
	}
	if args.Delta == nil {
		return fmt.Errorf("merge: mirror from %s carries no delta", args.WorkerID)
	}
	var err error
	if args.frame, err = m.logFrame(args.frame, args.Delta); err != nil {
		return err
	}
	s := m.session(args.SessionID)
	s.mu.Lock()
	defer s.mu.Unlock()
	reply.Version = s.version
	if s.sealed.Load() {
		reply.NeedFull = true
		return nil
	}
	virgin := s.version == 0 && len(s.workers) == 0
	if virgin && args.Epoch != 0 {
		s.epoch.Store(args.Epoch)
	}
	if !virgin && args.Epoch != 0 && args.Epoch != s.epoch.Load() {
		// A different incarnation than the copy we hold (the session
		// was dropped and re-created on its primary). Ask for a
		// re-baseline: the import carries the right epoch.
		reply.NeedFull = true
		return nil
	}
	d := args.Delta
	w := s.worker(args.WorkerID)
	hasBase := w.tree != nil || len(w.pending) > 0
	if !d.Full {
		if args.Seq <= w.seq && hasBase {
			// Stale or duplicate mirror retry: already incorporated —
			// including via a seeding Import that raced this mirror, so
			// the traced publish is in this copy and its trace is noted.
			if args.Trace.Valid() {
				s.lastTrace.Store(args.Trace.TraceID)
			}
			return nil
		}
		if !hasBase || args.Seq != w.seq+1 {
			reply.NeedFull = true
			return nil
		}
	} else if hasBase && args.Seq <= w.seq && args.Seq != 0 {
		if args.Trace.Valid() {
			s.lastTrace.Store(args.Trace.TraceID)
		}
		return nil
	}
	if d.Full {
		// A full baseline supersedes everything queued before it.
		w.pending = w.pending[:0]
		w.tree = nil
	}
	w.pending = append(w.pending, d)
	if len(w.pending) >= mirrorPendingMax {
		if err := w.materialize(); err != nil {
			return err
		}
	}
	w.seq = args.Seq
	w.done, w.total = args.EventsDone, args.EventsTotal
	if args.Version > s.version {
		s.version = args.Version
	}
	s.appendLog(args.Log)
	s.commitLocked()
	if args.Trace.Valid() {
		s.lastTrace.Store(args.Trace.TraceID)
	}
	reply.Accepted = true
	reply.Version = s.version
	return m.walAppend(&walRecord{Kind: walMirror, Mirror: &args})
}

// materialize folds the worker's pending delta tail into its retained
// tree. Caller holds the session write lock.
func (w *workerState) materialize() error {
	for _, d := range w.pending {
		dst := w.tree
		if d.Full {
			dst = aida.NewTree()
		} else if dst == nil {
			return fmt.Errorf("merge: mirrored delta tail has no baseline")
		}
		for _, e := range d.Entries {
			obj, err := e.Object.Restore()
			if err != nil {
				return fmt.Errorf("merge: materializing mirrored delta at %q: %w", e.Path, err)
			}
			if err := dst.PutAt(e.Path, obj); err != nil {
				return err
			}
		}
		if d.Full {
			w.tree = dst
		} else {
			for _, p := range d.Removed {
				w.tree.Rm(p)
			}
		}
	}
	w.pending = nil
	return nil
}

// Epoch reports a session's current incarnation stamp (0 for unknown
// sessions). Lock-free.
func (m *Manager) Epoch(sessionID string) int64 {
	if s := m.lookup(sessionID); s != nil {
		return s.epoch.Load()
	}
	return 0
}
