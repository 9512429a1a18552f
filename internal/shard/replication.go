// Replication: the router mirrors every accepted publish — the same
// generation-stamped delta, seq and all — down a per-session chain of
// K replicas (primary → r1 → … → rK) on other shards, in order, so each
// hop holds an Export/Import-compatible copy that re-baselines on
// NeedFull exactly like any transport. The copies are write-only:
// every shard is an in-process manager that lives and dies with the
// process, so no replica is ever read or promoted.

package shard

import (
	"fmt"

	"github.com/ipa-grid/ipa/internal/merge"
	"github.com/ipa-grid/ipa/internal/obs"
	"github.com/ipa-grid/ipa/internal/shard/placement"
)

// mirrorJob is one queued mirror: an accepted publish (with the epoch
// and version its accept carried) bound for the session's replica
// chain.
type mirrorJob struct {
	primary string
	args    merge.PublishArgs
	epoch   int64
	version int64
}

// mirrorQueueDepth bounds the in-flight mirror backlog; a full queue
// blocks publishes (backpressure) rather than dropping or reordering.
const mirrorQueueDepth = 256

// enqueueMirror hands an accepted publish to the mirror worker. The
// mirror stream is asynchronous — the publish path pays one channel
// send, not a second apply — but strictly ordered: one worker drains
// the queue FIFO, so per-session seq order is preserved. A full queue
// blocks the publish (backpressure) and is no longer invisible: the
// occurrence counts, and the episode emits one fabric event. The frame the primary logged rides along, so every hop
// logs those bytes instead of encoding its own.
func (r *Router) enqueueMirror(primary string, args merge.PublishArgs, reply *merge.PublishReply) {
	if args.Frame() == nil {
		args.SetFrame(reply.Frame())
	}
	job := mirrorJob{
		primary: primary, args: args, epoch: reply.Epoch, version: reply.Version,
	}
	q := r.mirrorQueue()
	select {
	case q <- job:
		return
	default:
	}
	obsMirrorBackpressure.Inc()
	if r.backpressured.CompareAndSwap(false, true) {
		obs.Emit(obs.EventBackpressure, primary, args.SessionID, args.Trace.TraceID,
			fmt.Sprintf("mirror queue full (%d); publish blocked", mirrorQueueDepth))
	}
	q <- job
	r.backpressured.Store(false)
}

// mirrorQueue lazily starts the mirror worker (replicating routers
// only; it lives for the router's lifetime).
func (r *Router) mirrorQueue() chan mirrorJob {
	r.mirrorMu.Lock()
	defer r.mirrorMu.Unlock()
	if r.mirrorQ == nil {
		r.mirrorQ = make(chan mirrorJob, mirrorQueueDepth)
		go r.mirrorLoop(r.mirrorQ)
	}
	return r.mirrorQ
}

func (r *Router) mirrorLoop(q chan mirrorJob) {
	for job := range q {
		r.mirror(job.primary, job.args, job.epoch, job.version)
	}
}

// depthWanted is the configured chain length K (at least 1).
func (r *Router) depthWanted() int {
	if r.ReplicaDepth < 1 {
		return 1
	}
	return r.ReplicaDepth
}

// chainUsable filters a recorded chain down to hops that can accept a
// mirror right now: registered, not the primary.
func chainUsable(t *placement.Table[Backend], primary string, chain []string) []string {
	out := chain
	for i, h := range chain {
		if h == "" || h == primary || !t.HasBackend(h) {
			// First unusable hop: switch to a filtered copy.
			out = append([]string(nil), chain[:i]...)
			for _, rest := range chain[i+1:] {
				if rest != "" && rest != primary && t.HasBackend(rest) {
					out = append(out, rest)
				}
			}
			break
		}
	}
	return out
}

func sameChain(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// mirror forwards one accepted publish down the session's replica
// chain, repairing the chain first if any hop is unusable or the chain
// is short of depth K. Mirror failures are absorbed per hop: a missed
// delta leaves a seq gap the next mirror detects, and NeedFull answers
// trigger a full re-baseline from the hop's predecessor — replication
// self-heals through the same resync contract the publish path uses,
// and the primary's accept is never rolled back.
func (r *Router) mirror(primary string, args merge.PublishArgs, epoch, version int64) {
	t := r.table.Load()
	e, ok := t.Lookup(args.SessionID)
	if !ok || e.Shard != primary {
		return
	}
	chain := e.Replicas
	usable := chainUsable(t, primary, chain)
	if !sameChain(usable, chain) || len(usable) < min(r.depthWanted(), t.MaxChainDepth()) {
		// First touch (or a hop is gone): repair the chain, then fall
		// through and mirror this delta to it. The delta stream must not
		// be dropped on assignment — a session's first delta is its full
		// baseline, so the stream alone can bootstrap a copy even before
		// the seeding Export/Import succeeds.
		chain = r.ensureChain(args.SessionID, primary)
		t = r.table.Load()
	} else {
		chain = usable
	}
	if len(chain) == 0 {
		return
	}
	// Walk the chain: each hop is one trace hop deeper than the last,
	// and a failed hop re-baselines from the nearest healthy predecessor
	// (the primary for hop 0) without stopping the walk.
	trace := args.Trace
	lastGood := primary
	for _, hop := range chain {
		trace = trace.NextHop()
		hb, ok := t.Backend(hop)
		if !ok {
			continue
		}
		margs := merge.MirrorArgs{
			SessionID: args.SessionID, WorkerID: args.WorkerID, Seq: args.Seq,
			Epoch: epoch, Version: version, Delta: args.Delta,
			EventsDone: args.EventsDone, EventsTotal: args.EventsTotal, Log: args.Log,
			// Forward the publish's trace so each replica hop joins the
			// same trace the engine started.
			Trace: trace,
		}
		margs.SetFrame(args.Frame())
		var mr merge.MirrorReply
		if err := hb.Mirror(margs, &mr); err != nil || mr.NeedFull {
			r.rebaseline(args.SessionID, lastGood, hop)
			continue
		}
		if mr.Accepted {
			r.mirrored.Add(1)
			obsMirrored.Inc()
		}
		lastGood = hop
	}
}

// ensureChain prunes a session's chain of unusable hops and extends it
// to depth K (capped by the fabric's shard count) with ring
// successors, recording the result in the placement table and seeding
// each newly added hop from its predecessor (best-effort: a failed seed
// is healed by the mirror stream's own NeedFull re-baseline, or by the
// stream itself when it starts with a full delta). Returns the chain as
// recorded, nil when the session moved or the fabric has no second
// shard.
func (r *Router) ensureChain(sessionID, primary string) []string {
	var chain, added, preds []string
	r.table.Update(func(m *placement.Table[Backend]) bool {
		chain, added, preds = nil, nil, nil
		e, ok := m.Lookup(sessionID)
		if !ok || e.Shard != primary {
			return false
		}
		kept := chainUsable(m, primary, e.Replicas)
		desired := min(r.depthWanted(), m.MaxChainDepth())
		for len(kept) < desired {
			next := m.ReplicaHome(sessionID, primary, kept)
			if next == "" {
				break
			}
			pred := primary
			if len(kept) > 0 {
				pred = kept[len(kept)-1]
			}
			added = append(added, next)
			preds = append(preds, pred)
			kept = append(kept, next)
		}
		chain = kept
		if sameChain(kept, e.Replicas) {
			return false
		}
		m.SetReplicas(sessionID, kept)
		return true
	})
	for i, hop := range added {
		obs.Emit(obs.EventReplicate, hop, sessionID, 0,
			fmt.Sprintf("chain hop %d seeded from %s", len(chain)-len(added)+i+1, preds[i]))
		r.rebaseline(sessionID, preds[i], hop)
	}
	return chain
}

// rebaseline copies a session's full state from one shard to another
// (Export without seal → Import) — how a replica catches up after a
// miss, a gap, or first assignment. Serialized so NeedFull bursts
// cannot storm a shard with concurrent exports; mirrors racing the copy
// resolve through the seq machinery (a delta the export already covers
// is dropped as stale, a delta it misses gaps and re-baselines again).
func (r *Router) rebaseline(sessionID, from, to string) error {
	r.replMu.Lock()
	defer r.replMu.Unlock()
	t := r.table.Load()
	fb, okF := t.Backend(from)
	tb, okT := t.Backend(to)
	if !okF || !okT {
		return nil
	}
	var exp merge.ExportReply
	if err := fb.Export(merge.ExportArgs{SessionID: sessionID}, &exp); err != nil {
		return err
	}
	if !exp.Found {
		return nil
	}
	var ir merge.ImportReply
	return tb.Import(merge.ImportArgs{
		SessionID: sessionID, Version: exp.Version, Epoch: exp.Epoch,
		Workers: exp.Workers, Removed: exp.Removed, Logs: exp.Logs,
		LastTraceID: exp.LastTraceID,
	}, &ir)
}

// ReplicaOf names the shard holding a session's first replica copy (""
// when none is assigned) — surfaced through session status.
func (r *Router) ReplicaOf(sessionID string) string {
	if e, ok := r.table.Load().Lookup(sessionID); ok {
		return e.Replica()
	}
	return ""
}

// ReplicasOf returns a session's replica chain in order (nil when none
// is assigned) — surfaced through session status and /fabric/status.
func (r *Router) ReplicasOf(sessionID string) []string {
	if e, ok := r.table.Load().Lookup(sessionID); ok && len(e.Replicas) > 0 {
		return append([]string(nil), e.Replicas...)
	}
	return nil
}

// Epoch reports a session's incarnation stamp from its owning shard (0
// when unknown) — surfaced through session status so clients can tell a
// re-created session from a newer version of the same one.
func (r *Router) Epoch(sessionID string) int64 {
	var reply merge.StatsReply
	if _, b, err := r.owner(sessionID, false); err == nil {
		b.Stats(merge.StatsArgs{SessionID: sessionID}, &reply)
	}
	return reply.Epoch
}
