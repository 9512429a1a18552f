// Package shard turns the single AIDA merge manager into a horizontally
// scalable fabric: sessions are spread across multiple merge.Manager
// shards by consistent hashing on the session ID, behind a Router that
// speaks exactly the surface one Manager spoke — engines, SubMergers,
// polling clients, and the session service cannot tell the difference.
//
// The paper's architecture funnels every session's publishes and polls
// through one mediator, the ceiling DIAL's distributed-scheduler design
// warns about for interactive analysis at scale. Here the root tier
// becomes N in-process managers, an immutable placement table
// (internal/shard/placement) assigns each session a home shard, and
// ring changes migrate live sessions with no lost updates: the old owner is sealed and exported, the dump is
// imported into the new owner as a baseline at the same version,
// routing flips, and any publish that raced the move is answered
// NeedFull so its producer re-baselines on the new shard.
//
// Placement is a subsystem of its own: routing reads are lock-free RCU
// loads of the placement table, and MoveSession pins a session to a
// chosen shard. Every shard is an in-process manager that lives and dies
// with the process, so the fabric has no notion of a dead shard: a
// session leaves its shard only by a handoff.
package shard

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/ipa-grid/ipa/internal/merge"
	"github.com/ipa-grid/ipa/internal/obs"
	"github.com/ipa-grid/ipa/internal/shard/placement"
)

// Backend is one merge shard as the router sees it: the engine/client
// RPC triple, the handoff and bookkeeping calls, and Mirror, which feeds
// a replica's write-only copy. *merge.Manager implements it directly.
type Backend interface {
	Publish(args merge.PublishArgs, reply *merge.PublishReply) error
	Poll(args merge.PollArgs, reply *merge.PollReply) error
	Reset(args merge.ResetArgs, reply *merge.ResetReply) error
	Export(args merge.ExportArgs, reply *merge.ExportReply) error
	Import(args merge.ImportArgs, reply *merge.ImportReply) error
	Stats(args merge.StatsArgs, reply *merge.StatsReply) error
	Seal(args merge.SealArgs, reply *merge.SealReply) error
	DropSession(args merge.DropArgs, reply *merge.DropReply) error
	SessionList(args merge.SessionsArgs, reply *merge.SessionsReply) error
	Mirror(args merge.MirrorArgs, reply *merge.MirrorReply) error
}

// ObjectName is the RMI registration name of one shard's manager on its
// node — "AIDAShard:" + the shard's fabric name. Shard-aware clients
// poll the owning shard directly under it; engines publish to the
// Router in process.
func ObjectName(shard string) string { return "AIDAShard:" + shard }

// ReadBackend is the read-only surface a relay tier exposes to the
// router: just Poll. Relays never own sessions, so they need none of
// the write/handoff surface a full Backend carries.
type ReadBackend interface {
	Poll(args merge.PollArgs, reply *merge.PollReply) error
}

// ErrNoShards rejects routing on an empty fabric.
var ErrNoShards = errors.New("shard: router has no shards")

// Router fronts a set of Manager shards behind the single-manager
// surface (merge.Service plus the handoff RPCs). Every call is routed
// to the session's home shard, assigned by the consistent-hash ring on
// first touch and moved only by explicit handoff, so a ring edit never silently strands a live session's state on its old
// owner.
//
// Poll has an RMI-compatible signature: registered under the AIDA
// manager's name (Poll only, see core.Manager), the Router gives remote
// clients a sharded fabric transparently.
//
// Safe for concurrent use. Routing is lock-free: it loads the current
// placement table (one atomic pointer read) and resolves the owner from
// immutable maps, so any number of publishes and polls resolve
// concurrently and a slow shard or a topology edit never stalls the
// fabric. Only topology edits, first-touch placements and MoveSession
// flips take the write path (clone-and-swap under
// the store mutex). Handoffs (AddShard/RemoveShard/MoveSession) run
// concurrently with traffic: a publish that races the migration lands
// on the sealed old owner, is answered NeedFull, and its producer
// re-baselines on the new owner — nothing is lost and nothing is
// double-merged.
type Router struct {
	// Replicate mirrors every accepted publish, in order, to a
	// per-session replica chain on other shards. The copies are
	// write-only: nothing reads or promotes them. Off by default. Set
	// before first use.
	Replicate bool
	// ReplicaDepth is the target chain length K (primary → r1 → … → rK).
	// Zero or negative means 1, a single replica.
	// Chains are silently capped at the fabric's live-shard count minus
	// one. Set before first use.
	ReplicaDepth int
	// replMu serializes replica re-baselines (Export→Import copies) so
	// a burst of NeedFull answers cannot storm a shard.
	replMu sync.Mutex
	// mirrorMu guards the lazy start of the mirror worker; the queue
	// itself orders the asynchronous mirror stream (see enqueueMirror).
	mirrorMu sync.Mutex
	mirrorQ  chan mirrorJob
	// backpressured marks an in-progress mirror-queue backpressure
	// episode so the fabric event fires once per episode, not once per
	// blocked publish (the counter records every occurrence).
	backpressured atomic.Bool

	// relayHandles maps relay name → its locally reachable read
	// surface. Registration data (names, endpoints, the relay ring)
	// lives in the placement table; the handles stay here so the table
	// needs no second type parameter.
	relayHandles sync.Map

	table    *placement.Store[Backend]
	handoffs atomic.Int64
	mirrored atomic.Int64

	// topoMu serializes topology edits (and their handoffs) against each
	// other without blocking routing.
	topoMu sync.Mutex
}

// NewRouter creates an empty router (vnodes <= 0 selects the default
// virtual-node count).
func NewRouter(vnodes int) *Router {
	return &Router{table: placement.NewStore[Backend](vnodes)}
}

// Table exposes the current placement snapshot (diagnostics). Treat it
// as read-only.
func (r *Router) Table() *placement.Table[Backend] { return r.table.Load() }

// Generation is the placement table's generation stamp: it bumps on
// every topology edit, first-touch placement or MoveSession — surfaced through session status so clients can tell the
// fabric changed under them.
func (r *Router) Generation() uint64 { return r.table.Load().Gen() }

// owner resolves the home shard of a session with no locks: one atomic
// load of the placement table, then plain map reads. Only the publish
// path records a first-touch placement (mirroring the Manager's rule
// that read-only RPCs never allocate state): an unplaced session's
// reads route by ring position, which is exactly where a later publish
// would place it.
func (r *Router) owner(sessionID string, place bool) (string, Backend, error) {
	t := r.table.Load()
	if e, ok := t.Lookup(sessionID); ok {
		return backendOf(t, sessionID, e.Shard)
	}
	if !place {
		home := t.Home(sessionID)
		if home == "" {
			return "", nil, ErrNoShards
		}
		return backendOf(t, sessionID, home)
	}
	// First-touch publish: record the placement. This is the only read
	// that takes the write path, once per session lifetime — the edit
	// re-resolves inside the store lock so a racing topology change or a
	// concurrent first touch cannot double-place.
	var home string
	t = r.table.Update(func(m *placement.Table[Backend]) bool {
		if e, ok := m.Lookup(sessionID); ok {
			home = e.Shard
			return false
		}
		home = m.Home(sessionID)
		if home == "" {
			return false
		}
		m.Place(sessionID, home, false)
		return true
	})
	if home == "" {
		return "", nil, ErrNoShards
	}
	return backendOf(t, sessionID, home)
}

func backendOf(t *placement.Table[Backend], sessionID, shard string) (string, Backend, error) {
	b, ok := t.Backend(shard)
	if !ok {
		return "", nil, fmt.Errorf("shard: session %s routed to unknown shard %q", sessionID, shard)
	}
	return shard, b, nil
}

// Publish routes an engine/SubMerger snapshot to the session's shard
// (RMI-compatible).
func (r *Router) Publish(args merge.PublishArgs, reply *merge.PublishReply) error {
	name, b, err := r.owner(args.SessionID, true)
	if err != nil {
		return err
	}
	if !obs.Disabled() {
		shardCall(name, "publish").Inc()
	}
	if err := b.Publish(args, reply); err != nil {
		return err
	}
	if r.Replicate && reply.Accepted {
		r.enqueueMirror(name, args, reply)
	}
	return nil
}

// Poll routes a client update request (RMI-compatible). While a relay
// is registered, placed sessions are served by their assigned read
// relay — the owner shard sees one subscription stream instead of
// every viewer's round-trip; everything else (no relay, unplaced
// session, relay not locally reachable) polls the owner. Writes always
// go to the primary.
func (r *Router) Poll(args merge.PollArgs, reply *merge.PollReply) error {
	if name, rb := r.relayFor(args.SessionID); rb != nil {
		if !obs.Disabled() {
			obsRelayPolls.Inc()
			shardCall("relay/"+name, "poll").Inc()
		}
		return rb.Poll(args, reply)
	}
	return r.PollOwner(args, reply)
}

// PollOwner routes a read to the session's owning shard, bypassing the
// relay tier — the subscription path the relays themselves poll
// through (a relay read must never route back into the relay tier).
func (r *Router) PollOwner(args merge.PollArgs, reply *merge.PollReply) error {
	name, b, err := r.owner(args.SessionID, false)
	if err != nil {
		return err
	}
	if !obs.Disabled() {
		shardCall(name, "poll").Inc()
	}
	return b.Poll(args, reply)
}

// relayFor resolves the relay handle serving a session's reads (nil
// when the session is unplaced, no relay is registered, or the
// assigned relay has no local handle). Unplaced sessions stay on the
// owner path: a stray read must not open a relay subscription for a
// session that may never exist.
func (r *Router) relayFor(sessionID string) (string, ReadBackend) {
	t := r.table.Load()
	if _, ok := t.Lookup(sessionID); !ok {
		return "", nil
	}
	name := t.RelayHome(sessionID)
	if name == "" {
		return "", nil
	}
	if v, ok := r.relayHandles.Load(name); ok {
		return name, v.(ReadBackend)
	}
	return "", nil
}

// OriginPoller is the router's relay-bypassing read surface — what a
// relay's upstream subscription polls through.
type OriginPoller struct{ r *Router }

// Poll implements relay-tier Poller against the owning shard.
func (p OriginPoller) Poll(args merge.PollArgs, reply *merge.PollReply) error {
	return p.r.PollOwner(args, reply)
}

// OriginPoller returns the relay-bypassing read surface.
func (r *Router) OriginPoller() OriginPoller { return OriginPoller{r} }

// AddRelay registers a read relay: its handle for local routing and
// its name in the placement table's relay ring (which assigns each
// session a home relay deterministically).
func (r *Router) AddRelay(name string, rb ReadBackend) error {
	if name == "" || rb == nil {
		return errors.New("shard: AddRelay needs a name and a backend")
	}
	if _, loaded := r.relayHandles.LoadOrStore(name, rb); loaded {
		return fmt.Errorf("shard: relay %q already present", name)
	}
	r.table.Update(func(m *placement.Table[Backend]) bool {
		m.AddRelay(name, "")
		return true
	})
	return nil
}

// RemoveRelay retires a relay; its sessions' reads fall back to other
// relays (or the owner when none remain).
func (r *Router) RemoveRelay(name string) {
	r.relayHandles.Delete(name)
	r.table.Update(func(m *placement.Table[Backend]) bool {
		if !m.HasRelay(name) {
			return false
		}
		m.RemoveRelay(name)
		return true
	})
}

// SetRelayAddr records the RMI endpoint whose relay.ObjectName(name)
// registration serves a relay ("" clears it). Clients learn it through
// session status and dial the relay directly for reads.
func (r *Router) SetRelayAddr(name, addr string) {
	r.table.Update(func(m *placement.Table[Backend]) bool {
		if !m.HasRelay(name) || m.RelayAddr(name) == addr {
			return false
		}
		m.SetRelayAddr(name, addr)
		return true
	})
}

// Relays lists registered relay names, sorted.
func (r *Router) Relays() []string { return r.table.Load().Relays() }

// RelayFor names the relay assigned a session's reads together with
// its advertised endpoint — both "" when no relay is registered,
// sending the client to the owner instead.
func (r *Router) RelayFor(sessionID string) (name, addr string) {
	t := r.table.Load()
	name = t.RelayHome(sessionID)
	return name, t.RelayAddr(name)
}

// Reset routes a rewind (RMI-compatible). A rewind that races a live
// handoff hits the sealed old owner and gets ErrSealed — a transient
// the fabric expects callers to absorb, so the router absorbs it:
// re-resolve (the flip lands mid-retry) and try again briefly before
// surfacing the error.
func (r *Router) Reset(args merge.ResetArgs, reply *merge.ResetReply) error {
	var err error
	for attempt := 0; attempt < 50; attempt++ {
		var b Backend
		if _, b, err = r.owner(args.SessionID, false); err != nil {
			return err
		}
		if err = b.Reset(args, reply); !isSealedErr(err) {
			return err
		}
		time.Sleep(10 * time.Millisecond)
	}
	return err
}

// isSealedErr matches ErrSealed locally and across RMI (where it
// arrives as a flattened RemoteError string).
func isSealedErr(err error) bool {
	if err == nil {
		return false
	}
	return errors.Is(err, merge.ErrSealed) || strings.Contains(err.Error(), merge.ErrSealed.Error())
}

// Version implements merge.Service against the owning shard (0 when the
// fabric is empty or the shard unreachable).
func (r *Router) Version(sessionID string) int64 {
	var reply merge.StatsReply
	if _, b, err := r.owner(sessionID, false); err == nil {
		b.Stats(merge.StatsArgs{SessionID: sessionID}, &reply)
	}
	return reply.Version
}

// CacheStats implements merge.Service against the owning shard.
func (r *Router) CacheStats(sessionID string) (hits, misses int64) {
	var reply merge.StatsReply
	if _, b, err := r.owner(sessionID, false); err == nil {
		b.Stats(merge.StatsArgs{SessionID: sessionID}, &reply)
	}
	return reply.CacheHits, reply.CacheMisses
}

// Drop removes the session and forgets its placement. The drop is
// broadcast to every shard, not just the owner: a publish that raced a
// past handoff can have left a stray (resynced-away) session copy on a
// previous owner, and teardown is the moment to reap it.
func (r *Router) Drop(sessionID string) {
	t := r.table.Update(func(m *placement.Table[Backend]) bool {
		if _, ok := m.Lookup(sessionID); !ok {
			return false
		}
		m.Evict(sessionID)
		return true
	})
	t.EachBackend(func(_ string, b Backend) {
		var dr merge.DropReply
		b.DropSession(merge.DropArgs{SessionID: sessionID}, &dr)
	})
	// Relays mirroring the session tear down their subscription and
	// local copy too.
	r.relayHandles.Range(func(_, v any) bool {
		if d, ok := v.(interface{ Drop(string) }); ok {
			d.Drop(sessionID)
		}
		return true
	})
}

// Placement names the shard currently owning a session (by placement if
// the session is live, by ring position otherwise; "" on an empty
// fabric) — surfaced through session.Status.
func (r *Router) Placement(sessionID string) string {
	t := r.table.Load()
	if e, ok := t.Lookup(sessionID); ok {
		return e.Shard
	}
	return t.Home(sessionID)
}

// SetShardAddr records the RMI endpoint whose ObjectName(shard)
// registration serves a shard's manager ("" clears it). Heavy polling
// clients learn it through PlacementInfo and dial the owning shard
// directly, skipping the router hop on every poll.
func (r *Router) SetShardAddr(shard, addr string) {
	r.table.Update(func(m *placement.Table[Backend]) bool {
		if m.AddrEntry(shard) == addr {
			// Re-advertising the same endpoint must not bump the
			// placement generation clients watch for real changes.
			return false
		}
		m.SetAddr(shard, addr)
		return true
	})
}

// PlacementInfo names the shard currently owning a session together
// with the RMI endpoint serving it (addr "" when the shard's endpoint
// was never recorded — the client then keeps polling via the router).
// A departed shard's endpoint is cleared with the shard, so this never
// reports a stale address.
func (r *Router) PlacementInfo(sessionID string) (shard, addr string) {
	t := r.table.Load()
	if e, ok := t.Lookup(sessionID); ok {
		return e.Shard, t.Addr(e.Shard)
	}
	home := t.Home(sessionID)
	return home, t.Addr(home)
}

// Shards lists the fabric members, sorted.
func (r *Router) Shards() []string { return r.table.Load().Shards() }

// Handoffs reports how many live-session migrations the router has
// completed across all ring edits and MoveSession calls.
func (r *Router) Handoffs() int64 { return r.handoffs.Load() }

// Mirrored reports how many publishes were successfully mirrored to a
// replica shard.
func (r *Router) Mirrored() int64 { return r.mirrored.Load() }

// Sessions enumerates every session the router has placed, sorted.
func (r *Router) Sessions() []string { return r.table.Load().Sessions() }

// AddShard joins a shard to the fabric and migrates to it every live
// session the new ring assigns it. The first error aborts the remaining
// migrations (already-moved sessions stay moved).
func (r *Router) AddShard(name string, b Backend) error {
	if name == "" || b == nil {
		return errors.New("shard: AddShard needs a name and a backend")
	}
	r.topoMu.Lock()
	defer r.topoMu.Unlock()
	dup := false
	t := r.table.Update(func(m *placement.Table[Backend]) bool {
		if m.HasBackend(name) {
			dup = true
			return false
		}
		m.AddShard(name, b)
		return true
	})
	if dup {
		return fmt.Errorf("shard: shard %q already present", name)
	}
	return r.migrate(r.pendingMoves(t))
}

// RemoveShard retires a shard, first migrating every session it owns to
// the shard's successors on the ring. The last shard cannot be removed.
// The shard's backend and advertised endpoint are both forgotten, so PlacementInfo never reports a departed shard.
func (r *Router) RemoveShard(name string) error {
	r.topoMu.Lock()
	defer r.topoMu.Unlock()
	missing, last := false, false
	t := r.table.Update(func(m *placement.Table[Backend]) bool {
		if !m.HasBackend(name) {
			missing = true
			return false
		}
		if m.RingSize() == 1 && m.InRing(name) {
			last = true
			return false
		}
		m.RemoveFromRing(name)
		return true
	})
	if missing {
		return fmt.Errorf("shard: no shard %q", name)
	}
	if last {
		return errors.New("shard: cannot remove the last shard")
	}
	if err := r.migrate(r.pendingMoves(t)); err != nil {
		return err
	}
	r.table.Update(func(m *placement.Table[Backend]) bool {
		m.DropShard(name)
		return true
	})
	return nil
}

// MoveSession migrates one live session to a named shard regardless of
// its ring position. The new placement is pinned: later ring edits
// leave the session where the caller put it; only removing its shard
// re-homes it.
func (r *Router) MoveSession(sessionID, to string) error {
	r.topoMu.Lock()
	defer r.topoMu.Unlock()
	t := r.table.Load()
	e, ok := t.Lookup(sessionID)
	if !ok {
		return fmt.Errorf("shard: session %s has no recorded placement", sessionID)
	}
	if e.Shard == to {
		return nil
	}
	toB, ok := t.Backend(to)
	if !ok {
		return fmt.Errorf("shard: no shard %q", to)
	}
	fromB, ok := t.Backend(e.Shard)
	if !ok {
		return fmt.Errorf("shard: session %s placed on unknown shard %q", sessionID, e.Shard)
	}
	mv := move{session: sessionID, from: e.Shard, to: to, fromB: fromB, toB: toB, pin: true}
	if err := r.handoff(mv); err != nil {
		return fmt.Errorf("shard: moving session %s %s→%s: %w", sessionID, e.Shard, to, err)
	}
	return nil
}

type move struct {
	session  string
	from, to string
	fromB    Backend
	toB      Backend
	// pin marks the destination placement as deliberately chosen
	// (MoveSession): it survives ring edits.
	pin bool
}

// pendingMoves lists the placed sessions whose required owner differs
// from their current placement against the given table: unpinned
// sessions follow the ring; pinned ones move only when their shard left
// the ring (nothing else may undo a deliberate move).
func (r *Router) pendingMoves(t *placement.Table[Backend]) []move {
	var moves []move
	t.EachSession(func(sid string, e placement.Entry) {
		if e.Pinned && t.InRing(e.Shard) {
			return
		}
		want := t.Home(sid)
		if want == "" || want == e.Shard {
			return
		}
		fromB, _ := t.Backend(e.Shard)
		toB, _ := t.Backend(want)
		moves = append(moves, move{session: sid, from: e.Shard, to: want, fromB: fromB, toB: toB})
	})
	sort.Slice(moves, func(i, j int) bool { return moves[i].session < moves[j].session })
	return moves
}

func (r *Router) migrate(moves []move) error {
	for _, mv := range moves {
		if err := r.handoff(mv); err != nil {
			return fmt.Errorf("shard: moving session %s %s→%s: %w", mv.session, mv.from, mv.to, err)
		}
	}
	return nil
}

// handoff migrates one session: seal + export on the old owner, import
// into the new one at the same version, flip routing, drop the old
// copy. Publishes racing any stage either land before the seal (and are
// exported), or land sealed and draw NeedFull — the producer's next
// snapshot is a full baseline against the new owner, so its updates
// survive in the re-baseline rather than the lost delta.
func (r *Router) handoff(mv move) error {
	var exp merge.ExportReply
	if err := mv.fromB.Export(merge.ExportArgs{SessionID: mv.session, Seal: true}, &exp); err != nil {
		return fmt.Errorf("export: %w", err)
	}
	if exp.Found {
		imp := merge.ImportArgs{
			SessionID: mv.session, Version: exp.Version, Epoch: exp.Epoch,
			Workers: exp.Workers, Removed: exp.Removed, Logs: exp.Logs,
			LastTraceID: exp.LastTraceID,
		}
		var ir merge.ImportReply
		if err := mv.toB.Import(imp, &ir); err != nil {
			// Roll back: the source still holds every byte of the
			// session (export copies, it doesn't drain), so lifting the
			// seal is all recovery takes and the session keeps serving
			// from its old owner.
			var sr merge.SealReply
			if rerr := mv.fromB.Seal(merge.SealArgs{SessionID: mv.session, On: false}, &sr); rerr != nil {
				return fmt.Errorf("import: %v (unseal rollback also failed, session frozen until the shard answers: %w)", err, rerr)
			}
			return fmt.Errorf("import: %w", err)
		}
	}
	r.table.Update(func(m *placement.Table[Backend]) bool {
		if e, ok := m.Lookup(mv.session); ok && e.Shard == mv.from {
			m.Place(mv.session, mv.to, mv.pin)
			return true
		}
		return false
	})
	r.handoffs.Add(1)
	obsHandoffs.Inc()
	obs.Emit(obs.EventHandoff, mv.to, mv.session, 0, "from "+mv.from)
	// Tombstone, not delete: a racing publish that already resolved the
	// old backend must keep drawing NeedFull there, never re-create an
	// unsealed session whose accepted snapshots nobody polls. The shell
	// is reaped by the teardown Drop broadcast. Failure is benign — the
	// full sealed copy lingers until then instead.
	var dr merge.DropReply
	mv.fromB.DropSession(merge.DropArgs{SessionID: mv.session, Tombstone: true}, &dr)
	return nil
}

var (
	_ Backend         = (*merge.Manager)(nil)
	_ merge.Service   = (*Router)(nil)
	_ merge.Publisher = (*Router)(nil)
)
