// Replication: per-session redundancy over the machinery the fabric
// already has, generalized from one standby to a chain of K replicas
// (primary → r1 → … → rK). The router mirrors every accepted publish —
// the same generation-stamped delta, seq and all — down the chain in
// order, so each hop holds an Export/Import-compatible standby copy
// that re-baselines on NeedFull exactly like any transport. When the
// health prober declares the primary dead, the deepest caught-up
// replica (max epoch, then max version, then deepest hop) is promoted
// under a bumped session epoch — first inheriting the dead primary's
// WAL tail when one is on disk — the placement table flips atomically,
// the remaining chain members are fenced against the dead incarnation's
// epoch, and the chain is eagerly rebuilt back to depth K from the
// survivors. A zombie shard can neither accept straggler publishes
// (they draw NeedFull until routing flips) nor resurrect stale state
// through a racing re-baseline. Clients full-resync on the epoch stamp
// they already honor.

package shard

import (
	"fmt"
	"sort"

	"github.com/ipa-grid/ipa/internal/merge"
	"github.com/ipa-grid/ipa/internal/obs"
	"github.com/ipa-grid/ipa/internal/shard/placement"
)

// mirrorJob is one queued mirror: an accepted publish (with the epoch
// and version its accept carried) bound for the session's replica
// chain. A job with a non-nil barrier is a drain sentinel instead.
type mirrorJob struct {
	primary string
	args    merge.PublishArgs
	epoch   int64
	version int64
	barrier chan struct{}
}

// mirrorQueueDepth bounds the in-flight mirror backlog; a full queue
// blocks publishes (backpressure) rather than dropping or reordering.
const mirrorQueueDepth = 256

// enqueueMirror hands an accepted publish to the mirror worker. The
// mirror stream is asynchronous — the publish path pays one channel
// send, not a second apply — but strictly ordered: one worker drains
// the queue FIFO, so per-session seq order is preserved, and failover
// flushes the queue (drainMirrors) before promoting, so a quiesced
// session's replicas have every accepted delta by the time one is asked
// to take over. A full queue blocks the publish (backpressure) and is
// no longer invisible: the occurrence counts, and the episode emits one
// fabric event. The frame the primary logged rides along, so every hop
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
		if job.barrier != nil {
			close(job.barrier)
			continue
		}
		r.mirror(job.primary, job.args, job.epoch, job.version)
	}
}

// drainMirrors blocks until every mirror enqueued before the call has
// been applied — the barrier failover takes before promoting replicas.
func (r *Router) drainMirrors() {
	r.mirrorMu.Lock()
	q := r.mirrorQ
	r.mirrorMu.Unlock()
	if q == nil {
		return
	}
	done := make(chan struct{})
	q <- mirrorJob{barrier: done}
	<-done
}

// depthWanted is the configured chain length K (at least 1).
func (r *Router) depthWanted() int {
	if r.ReplicaDepth < 1 {
		return 1
	}
	return r.ReplicaDepth
}

// chainUsable filters a recorded chain down to hops that can accept a
// mirror right now: live, registered, not the primary.
func chainUsable(t *placement.Table[Backend], primary string, chain []string) []string {
	out := chain
	for i, h := range chain {
		if h == "" || h == primary || !t.HasBackend(h) || t.IsDead(h) {
			// First unusable hop: switch to a filtered copy.
			out = append([]string(nil), chain[:i]...)
			for _, rest := range chain[i+1:] {
				if rest != "" && rest != primary && t.HasBackend(rest) && !t.IsDead(rest) {
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
		// baseline, so the stream alone can bootstrap a standby even when
		// the primary dies before the seeding Export/Import ever
		// succeeds.
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
// to depth K (capped by the fabric's live-shard count) with ring
// successors, recording the result in the placement table and seeding
// each newly added hop from its predecessor (best-effort: a failed seed
// is healed by the mirror stream's own NeedFull re-baseline, or by the
// stream itself when it starts with a full delta). Returns the chain as
// recorded, nil when the session moved or the fabric has no second live
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

// failover handles a shard death with replication on: every session the
// dead shard owned is promoted on its deepest caught-up replica
// (replaying the dead primary's WAL tail into it first when a WALTail
// hook is wired, and fencing both the dead incarnation and the
// not-chosen chain members) or, with no usable replica, evicted as
// before. Caller holds topoMu; t is the table that recorded the death.
func (r *Router) failover(t *placement.Table[Backend], dead string) (evicted, promoted []string) {
	// Flush the asynchronous mirror stream first: every delta the dead
	// primary accepted before it died is on the replicas before any of
	// them is promoted. (A publish racing the flip enqueues later, with
	// the dead incarnation's epoch — the replicas answer NeedFull and
	// the stream re-baselines; nothing stale sticks.) The table is
	// re-read after the barrier: chain repairs recorded by the drained
	// mirrors must be visible to the promotion scan.
	r.drainMirrors()
	t = r.table.Load()
	type flip struct {
		sid       string
		to        string
		survivors []string // chain members not chosen, in chain order
	}
	var flips []flip
	var lost, reChain []string
	deadB, deadReachable := t.Backend(dead)
	t.EachSession(func(sid string, e placement.Entry) {
		if e.Shard != dead {
			if e.HasReplica(dead) {
				// One of the session's standbys died; survivors need the
				// chain rebuilt.
				reChain = append(reChain, sid)
			}
			return
		}
		usable := chainUsable(t, dead, e.Replicas)
		if len(usable) > 0 {
			if deadReachable {
				// Best-effort self-fence of the (probably gone, possibly
				// zombie) primary: if it still answers, its copy refuses
				// every straggler publish from here on, so nothing lands
				// there during the promotion window.
				var fr merge.FenceReply
				deadB.Fence(merge.FenceArgs{SessionID: sid}, &fr)
				obs.Emit(obs.EventFence, dead, sid, 0, "self-fence deposed primary")
			}
			// Try the deepest caught-up hop first; if it cannot take over
			// (it died mid-failover, or its copy is an empty shell), fall
			// back to the next-best candidate rather than declaring the
			// session lost while healthy copies remain — the multi-failure
			// case a chaos schedule's mid-failover kill exercises.
			candidates := usable
			for len(candidates) > 0 {
				chosen := r.pickCaughtUp(t, sid, candidates)
				if r.WALTail != nil {
					// Hand the promoted copy the dead primary's durable log
					// tail: deltas the primary accepted and fsynced but the
					// asynchronous mirror stream never delivered.
					if n, err := r.WALTail(dead, sid, chosen); err == nil && n > 0 {
						obsWALTails.Inc()
						obs.Emit(obs.EventWALTail, chosen, sid, 0,
							fmt.Sprintf("replayed %d records from %s's log", n, dead))
					}
				}
				cb, okC := t.Backend(chosen)
				var pr merge.PromoteReply
				if okC {
					if err := cb.Promote(merge.PromoteArgs{SessionID: sid}, &pr); err == nil && pr.Found {
						survivors := make([]string, 0, len(usable)-1)
						for _, h := range usable {
							if h != chosen {
								survivors = append(survivors, h)
							}
						}
						// Fence the not-chosen chain members at the deposed
						// incarnation's epoch: their copies are stale the moment
						// the promotion bumps the epoch, and nothing may serve or
						// resurrect them until the new primary re-baselines each
						// one (Imports stamped with the new epoch clear the floor).
						for _, h := range survivors {
							if hb, ok := t.Backend(h); ok {
								var fr merge.FenceReply
								hb.Fence(merge.FenceArgs{SessionID: sid, Epoch: pr.PrevEpoch}, &fr)
								obs.Emit(obs.EventFence, h, sid, 0,
									fmt.Sprintf("chain member fenced below %d pending re-baseline", pr.PrevEpoch))
							}
						}
						flips = append(flips, flip{sid: sid, to: chosen, survivors: survivors})
						promoted = append(promoted, sid)
						obs.Emit(obs.EventPromote, chosen, sid, 0,
							fmt.Sprintf("epoch %d fenced below %d (deepest caught-up of %d)", pr.Epoch, pr.PrevEpoch, len(usable)))
						return
					}
				}
				next := make([]string, 0, len(candidates)-1)
				for _, h := range candidates {
					if h != chosen {
						next = append(next, h)
					}
				}
				candidates = next
			}
		}
		lost = append(lost, sid)
		obs.Emit(obs.EventEviction, dead, sid, 0, "no usable replica; state lost")
	})
	sort.Strings(promoted)
	sort.Strings(lost)
	r.table.Update(func(m *placement.Table[Backend]) bool {
		did := false
		for _, f := range flips {
			if e, ok := m.Lookup(f.sid); ok && e.Shard == dead {
				// Pinned like a balancer move: ring edits must not bounce
				// a failed-over session around while its old home is down.
				m.Place(f.sid, f.to, true)
				m.SetReplicas(f.sid, f.survivors)
				did = true
			}
		}
		for _, sid := range lost {
			if e, ok := m.Lookup(sid); ok && e.Shard == dead {
				m.Evict(sid)
				did = true
			}
		}
		for _, sid := range reChain {
			if e, ok := m.Lookup(sid); ok && e.HasReplica(dead) {
				m.DropReplica(sid, dead)
				did = true
			}
		}
		return did
	})
	r.promotions.Add(int64(len(promoted)))
	obsPromotions.Add(int64(len(promoted)))
	// Re-protect: promoted sessions re-baseline their fenced survivors
	// from the new primary and extend back to depth K; survivors whose
	// chain lost a member get it rebuilt — seeded now rather than on
	// their next publish, because a finished session never publishes
	// again, and it must not ride out the next failure underprotected.
	for _, f := range flips {
		for _, h := range f.survivors {
			r.rebaseline(f.sid, f.to, h)
		}
	}
	reseed := append(append([]string(nil), promoted...), reChain...)
	for _, sid := range reseed {
		cur := r.table.Load()
		if e, ok := cur.Lookup(sid); ok && e.Shard != dead && !cur.IsDead(e.Shard) {
			r.ensureChain(sid, e.Shard)
		}
	}
	return lost, promoted
}

// pickCaughtUp chooses the chain hop to promote: among the usable hops,
// the one with the highest epoch, then the highest version, then the
// deepest chain position (iteration order breaks ties toward depth —
// the hop that heard the stream last still accepted everything its
// predecessors did, and deeper copies are the ones a mid-rebuild
// failure would otherwise strand). Hops whose Stats fail are still
// eligible as a last resort — Promote on an empty shell answers !Found
// and the session is declared lost by the caller.
func (r *Router) pickCaughtUp(t *placement.Table[Backend], sid string, usable []string) string {
	chosen := usable[0]
	var bestEpoch, bestVersion int64 = -1, -1
	for _, h := range usable {
		hb, ok := t.Backend(h)
		if !ok {
			continue
		}
		var st merge.StatsReply
		if err := hb.Stats(merge.StatsArgs{SessionID: sid}, &st); err != nil || !st.Found || st.Version == 0 {
			continue
		}
		if st.Epoch > bestEpoch || (st.Epoch == bestEpoch && st.Version >= bestVersion) {
			chosen, bestEpoch, bestVersion = h, st.Epoch, st.Version
		}
	}
	return chosen
}

// reapRevived reconciles a revived shard's leftover session copies
// against current placement. Copies of sessions now owned elsewhere are
// tombstoned (deposed state must neither serve nor resurrect); copies
// backing a session as a recorded chain member are re-baselined from
// the live primary (they went stale while the shard was down); sessions
// the table no longer places at all — evicted at death with no replica,
// and untouched since — are re-adopted, recovering their state. Caller
// holds topoMu.
func (r *Router) reapRevived(name string) {
	t := r.table.Load()
	b, ok := t.Backend(name)
	if !ok {
		return
	}
	var sl merge.SessionsReply
	if err := b.SessionList(merge.SessionsArgs{}, &sl); err != nil {
		return
	}
	var adopt []string
	for _, l := range sl.Loads {
		if l.Version == 0 {
			continue // tombstones and empty shells
		}
		e, placed := t.Lookup(l.SessionID)
		switch {
		case !placed:
			adopt = append(adopt, l.SessionID)
		case e.Shard == name:
			// Still the recorded owner — nothing re-homed it.
		case e.HasReplica(name):
			r.rebaseline(l.SessionID, e.Shard, name)
		default:
			var dr merge.DropReply
			b.DropSession(merge.DropArgs{SessionID: l.SessionID, Tombstone: true}, &dr)
		}
	}
	for _, sid := range adopt {
		readopted := false
		r.table.Update(func(m *placement.Table[Backend]) bool {
			if _, ok := m.Lookup(sid); ok {
				return false
			}
			m.Place(sid, name, false)
			readopted = true
			return true
		})
		if readopted {
			r.ensureChain(sid, name)
		}
	}
}

// ReplicaOf names the shard holding a session's first standby copy (""
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
// when unknown) — surfaced through session status so operators can see
// a failover happened.
func (r *Router) Epoch(sessionID string) int64 {
	var reply merge.StatsReply
	if _, b, err := r.owner(sessionID, false); err == nil {
		b.Stats(merge.StatsArgs{SessionID: sessionID}, &reply)
	}
	return reply.Epoch
}
