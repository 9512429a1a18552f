// Package relay is the fabric's read fan-out tier. A Relay follows each
// session through ONE upstream subscription: a loop of version-gated
// long polls (merge.PollArgs.Wait) that return as soon as the upstream
// commits a new version. Each reply that brings something new is
// installed into a private merge.Manager as it came (Manager.Install):
// the upstream's encoded frames become that copy's frame cache, and
// nothing is decoded, restored or merged. Downstream pollers, parked or
// not, hit the local manager's lock-free fast path and frame cache, so
// N viewers cost the owning shard one parked poll instead of N, and
// relay-served frames are the owner's own bytes.
//
// The first read of a session opens its subscription. A subscription
// follows its upstream only while it has demand: a downstream poll
// since its last sync, or one parked on it right now. Without either it
// goes idle and polls upstream no more. A read syncs inline before it
// is served while the subscription is idle or has not yet taken a
// single upstream reply — a loop that has started following may not
// have landed its first exchange — and an idle one's read then wakes
// the loop to follow again. A subscription that goes idle without ever
// holding a copy (reads of a session the upstream does not know) is
// removed, and its loop exits.
//
// Relays compose: a Relay's upstream may itself be a Relay (a
// relay-of-relay tree for geographic tiers).
//
// A subscription reads its upstream through a merge.Cursor, so it
// heals by the same resync rule as every other follower: a rebuilt
// upstream (an epoch change or a version regression: a re-created
// session, a handoff straggler) re-baselines the subscription — the
// local copy is dropped, which mints a fresh local epoch, so downstream
// clients full-resync in turn. The local copy keeps its own epoch and
// version space. An upstream that does not know the session (version 0,
// a tombstone included) leaves the local copy serving its final state
// rather than tearing it down under the viewers.
package relay

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"github.com/ipa-grid/ipa/internal/merge"
	"github.com/ipa-grid/ipa/internal/rmi"
)

// Poller is the upstream read surface a relay subscribes through: the
// shard router's origin poller, a remote manager over RMI, or another
// Relay (tree tiers).
type Poller interface {
	Poll(args merge.PollArgs, reply *merge.PollReply) error
}

// ObjectName is the RMI registration name for a relay ("AIDARelay" —
// the manager registers each relay under ObjectName+"/"+name so one
// process can host several tiers).
func ObjectName(name string) string { return "AIDARelay/" + name }

// ParkBound is the Interval a fabric gives its relays: long enough that
// a quiet session costs its owner about one poll a second, and well
// under merge.MaxPollWait.
const ParkBound = time.Second

// retryPause spaces the upstream polls of a loop whose upstream fails,
// which would otherwise answer as fast as the loop can ask.
const retryPause = 25 * time.Millisecond

// Relay mirrors sessions from an upstream Poller into a local
// merge.Manager and re-serves downstream polls from it.
type Relay struct {
	name     string
	upstream Poller
	// releaseUp: upstream replies crossed the wire, so the decoded
	// frames of a reply that is not installed go back to the frame pool;
	// an installed one's belong to the local frame cache for good. Never
	// set for in-process upstreams, whose replies share the owner's
	// encode cache (releasing those would corrupt later polls).
	releaseUp bool
	local     *merge.Manager

	// Interval bounds one upstream long poll: the subscription loop
	// parks upstream for up to Interval waiting for a new version, and
	// polls again when it passes. A commit upstream wakes the loop at
	// once, so Interval sets no cadence. 0 = no background loop; tests
	// and embedders drive syncs via SyncNow. Set before Subscribe.
	Interval time.Duration

	mu     sync.Mutex
	closed bool
	subs   sync.Map // sessionID → *subscription

	upPolls   atomic.Int64
	downPolls atomic.Int64
	clients   atomic.Int64
}

type subscription struct {
	sid string

	// syncMu serializes applying upstream replies to the local copy
	// (the loop, inline syncs and SyncNow) and guards cur. The loop does
	// not hold it while parked upstream.
	syncMu sync.Mutex
	cur    merge.Cursor

	// rebaselines counts the local copy's drops after its first
	// baseline.
	rebaselines atomic.Int64
	// lastSyncNS is the wall clock of the last upstream reply the cursor
	// took (unix nanos); staleness lag is measured against it. 0 = none
	// yet, so reads sync inline.
	lastSyncNS atomic.Int64

	// Demand. read is set by a downstream poll and cleared when the loop
	// starts an upstream exchange; parked counts downstream polls parked
	// on the local copy now. idle means the loop waits for demand, so
	// the next read syncs inline; kick then wakes the loop.
	read   atomic.Bool
	parked atomic.Int32
	idle   atomic.Bool
	kick   chan struct{}

	stop chan struct{}
}

// demanded reports whether someone read the copy since the loop's last
// upstream exchange began, or waits on it now.
func (s *subscription) demanded() bool { return s.read.Load() || s.parked.Load() > 0 }

// stopped reports whether the subscription was torn down.
func (s *subscription) stopped() bool {
	select {
	case <-s.stop:
		return true
	default:
		return false
	}
}

// New creates a relay named name subscribing through upstream. The
// upstream is probed for a WireReplies marker (RemotePoller has one) to
// decide frame-release discipline.
func New(name string, upstream Poller) *Relay {
	r := &Relay{name: name, upstream: upstream, local: merge.NewManager()}
	if w, ok := upstream.(interface{ WireReplies() bool }); ok && w.WireReplies() {
		r.releaseUp = true
	}
	return r
}

// Name returns the relay's registered name.
func (r *Relay) Name() string { return r.name }

// Local exposes the manager holding the relay's copies, for its stats;
// tests wipe a copy through it. A copy holds the upstream's frames and
// no objects: each session there is written only by Install.
func (r *Relay) Local() *merge.Manager { return r.local }

// testHookFollow, when set, runs in a session's loop after it has
// claimed the demand and before its upstream exchange.
var testHookFollow atomic.Pointer[func(sessionID string)]

// Subscribe opens the session's upstream subscription (idempotent). The
// first downstream read or SyncNow syncs it; with a positive Interval it
// starts idle, and that read also wakes the loop following upstream.
func (r *Relay) Subscribe(sessionID string) error {
	_, err := r.subscribe(sessionID)
	return err
}

// subscribe returns the session's subscription, opening it if needed.
func (r *Relay) subscribe(sessionID string) (*subscription, error) {
	if v, ok := r.subs.Load(sessionID); ok {
		return v.(*subscription), nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return nil, fmt.Errorf("relay %s: closed", r.name)
	}
	if v, ok := r.subs.Load(sessionID); ok {
		return v.(*subscription), nil
	}
	s := &subscription{
		sid:  sessionID,
		cur:  merge.Cursor{Session: sessionID},
		kick: make(chan struct{}, 1),
		stop: make(chan struct{}),
	}
	s.idle.Store(r.Interval > 0)
	r.subs.Store(sessionID, s)
	obsSubscriptions.Add(1)
	if r.Interval > 0 {
		go r.loop(s)
	}
	return s, nil
}

// loop follows upstream while the subscription has demand and waits
// for a kick while it has none. It exits once the subscription stops
// and its current upstream poll returns, or when it goes idle without
// a copy (see reap).
func (r *Relay) loop(s *subscription) {
	for !s.stopped() {
		if !s.demanded() {
			s.idle.Store(true)
			// Check again after publishing idle: a read that still saw
			// the copy followed shows up here; any later one sees idle,
			// syncs inline and kicks.
			if !s.demanded() {
				if r.reap(s) {
					return
				}
				select {
				case <-s.stop:
					return
				case <-s.kick:
				}
				continue
			}
		}
		s.idle.Store(false)
		s.read.Store(false)
		if h := testHookFollow.Load(); h != nil {
			(*h)(s.sid)
		}
		if err := r.follow(s); err != nil {
			// Errors are retried from the cursor, which moves only when
			// a reply is installed.
			t := time.NewTimer(retryPause)
			select {
			case <-s.stop:
			case <-t.C:
			}
			t.Stop()
		}
	}
}

// reap removes a subscription that has taken an upstream reply but
// never held a copy: its cursor is at the zero position and the local
// manager has no copy of the session, as after reads of a session its
// upstream does not know. One that has taken no reply yet is kept: the
// read that opened it may not have registered its demand. reap reports
// whether it removed s; the loop then exits, and the next read opens a
// new subscription. Whoever removes a subscription from subs closes its
// stop, so reap, Unsubscribe and Close never close it twice.
func (r *Relay) reap(s *subscription) bool {
	s.syncMu.Lock()
	defer s.syncMu.Unlock()
	if s.lastSyncNS.Load() == 0 || s.cur.Version != 0 || r.local.Version(s.sid) != 0 ||
		!r.subs.CompareAndDelete(s.sid, s) {
		return false
	}
	close(s.stop)
	obsSubscriptions.Add(-1)
	return true
}

// follow runs one upstream exchange of the loop: a poll parked for up
// to Interval until the upstream moves past the cursor, then applied.
// The poll parks without syncMu, so SyncNow, inline syncs and teardown
// never wait out a park.
func (r *Relay) follow(s *subscription) error {
	s.syncMu.Lock()
	at := s.cur
	s.syncMu.Unlock()
	var pr merge.PollReply
	if err := r.pollUp(at.Args(false, r.Interval), &pr); err != nil {
		return err
	}
	s.syncMu.Lock()
	defer s.syncMu.Unlock()
	if s.cur != at {
		// Another sync moved the cursor while this poll was parked: the
		// reply is a diff from a version the copy has left.
		r.releaseReply(&pr)
		return nil
	}
	return r.apply(s, &pr)
}

// SyncNow forces one synchronous subscription exchange for a session
// (no-op for unsubscribed sessions). Tests use it for deterministic
// sequencing.
func (r *Relay) SyncNow(sessionID string) error {
	v, ok := r.subs.Load(sessionID)
	if !ok {
		return nil
	}
	return r.syncOnce(v.(*subscription))
}

// syncOnce performs one upstream exchange from the cursor.
func (r *Relay) syncOnce(s *subscription) error {
	s.syncMu.Lock()
	defer s.syncMu.Unlock()
	return r.apply(s, nil)
}

// pollUp polls the upstream and counts the exchange.
func (r *Relay) pollUp(args merge.PollArgs, pr *merge.PollReply) error {
	if err := r.upstream.Poll(args, pr); err != nil {
		return err
	}
	r.upPolls.Add(1)
	obsUpPolls.Inc()
	return nil
}

// apply takes one upstream reply, pre or else a fresh poll from the
// cursor, and judges it by the cursor's resync rule. A continuation
// that brings something new is installed into the local copy as the
// upstream encoded it, and the cursor takes it. A rebuilt upstream
// drops the copy and re-baselines at once. An unknown session, or
// nothing new, leaves the copy and its version as they are, so
// downstream quiescent polls stay on the lock-free fast path. It
// consumes pre. Caller holds syncMu.
func (r *Relay) apply(s *subscription, pre *merge.PollReply) error {
	if s.stopped() {
		// Torn down: the local copy is gone and must stay gone.
		r.releaseReply(pre)
		return nil
	}
	if s.cur.Version != 0 && r.local.Version(s.sid) == 0 {
		// The local copy was wiped under the subscription (an operator
		// drop, an injected fault). An unchanged upstream would
		// otherwise never be installed again; rebuild from a fresh
		// baseline instead. pre continues the wiped copy.
		r.releaseReply(pre)
		pre = nil
		r.rebaseline(s)
	}
	t0 := time.Now()
	pr := pre
	if pr == nil {
		pr = new(merge.PollReply)
		if err := r.pollUp(s.cur.Args(false, 0), pr); err != nil {
			return err
		}
	}
	switch v := s.cur.Verdict(pr); {
	case v == merge.Rebuilt:
		// The upstream state was rebuilt under us (the session was
		// re-created). Drop the local copy — the replacement gets a
		// fresh local epoch, so downstream clients discard their
		// mirrors too — and re-baseline at once. A cursor at its zero
		// position never judges a reply rebuilt, so this recurses once.
		r.releaseReply(pr)
		r.rebaseline(s)
		return r.apply(s, nil)
	case v == merge.Unknown || s.cur.Unchanged(pr):
		r.releaseReply(pr)
		s.lastSyncNS.Store(time.Now().UnixNano())
		return nil
	}
	// The frames now belong to the local frame cache: a wire reply's
	// pooled buffers are never released back to the pool.
	r.local.Install(s.sid, pr)
	s.cur.Take(pr)
	now := time.Now()
	s.lastSyncNS.Store(now.UnixNano())
	obsSyncSeconds.Observe(now.Sub(t0).Seconds())
	return nil
}

// rebaseline drops the local copy and moves the subscription back to
// the cursor's zero position, so its next exchange installs the whole
// upstream state into a fresh copy. Caller holds syncMu.
func (r *Relay) rebaseline(s *subscription) {
	obsRebaselines.Inc()
	s.rebaselines.Add(1)
	r.local.Drop(s.sid)
	s.cur.Reset()
}

// releaseReply recycles a wire-decoded reply's frames. In-process
// upstream replies share the owner's encode cache and are left alone.
func (r *Relay) releaseReply(pr *merge.PollReply) {
	if r.releaseUp && pr != nil {
		pr.Release()
	}
}

// AddClient / DropClient track attached long-lived consumers (SSE
// clients) for the fan-out stats.
func (r *Relay) AddClient()  { r.clients.Add(1) }
func (r *Relay) DropClient() { r.clients.Add(-1) }

// Poll re-serves a downstream read from the local copy
// (RMI-compatible — the same wire surface as a Manager, so core.Client
// needs no new protocol). The first read of a session subscribes it. A
// poll with args.Wait parks on the local copy and counts as demand
// while it does; a read of an idle or never-synced subscription syncs
// it first.
func (r *Relay) Poll(args merge.PollArgs, reply *merge.PollReply) error {
	r.downPolls.Add(1)
	obsDownPolls.Inc()
	s, err := r.subscribe(args.SessionID)
	if err != nil {
		return err
	}
	if args.Wait > 0 && !args.Full {
		s.parked.Add(1)
		defer s.parked.Add(-1)
	}
	if !s.read.Load() {
		s.read.Store(true)
	}
	if s.idle.Load() || s.lastSyncNS.Load() == 0 {
		// Nothing keeps this copy current — its loop went idle, or has
		// not landed a first exchange yet (including for a poll that
		// finds a subscription another poll just opened): catch up
		// before serving, then wake the loop to follow on.
		if err := r.syncOnce(s); err != nil {
			return err
		}
		select {
		case s.kick <- struct{}{}:
		default:
		}
	}
	return r.local.Poll(args, reply)
}

// Unsubscribe stops a session's subscription and forgets its local
// copy; polls parked on the copy return. It does not wait for the loop
// to return from a parked upstream poll: that poll's reply is dropped.
func (r *Relay) Unsubscribe(sessionID string) {
	if v, ok := r.subs.LoadAndDelete(sessionID); ok {
		s := v.(*subscription)
		close(s.stop)
		obsSubscriptions.Add(-1)
		// Under syncMu, a sync in flight lands before the drop, and none
		// applies after it (syncs check stop).
		s.syncMu.Lock()
		r.local.Drop(sessionID)
		s.syncMu.Unlock()
	}
}

// Drop tears down a session (the router broadcasts session teardown
// here alongside the shards).
func (r *Relay) Drop(sessionID string) { r.Unsubscribe(sessionID) }

// Close stops every subscription, without waiting out parked upstream
// polls. The local copies keep serving whatever they last mirrored
// until the relay is dropped.
func (r *Relay) Close() {
	r.mu.Lock()
	r.closed = true
	r.mu.Unlock()
	r.subs.Range(func(k, _ any) bool {
		if v, ok := r.subs.LoadAndDelete(k); ok {
			close(v.(*subscription).stop)
			obsSubscriptions.Add(-1)
		}
		return true
	})
}

// Stats is a relay's observable state for /fabric/status and the
// client watch view.
type Stats struct {
	Name     string
	Sessions int
	// UpPolls / DownPolls count subscription exchanges vs re-served
	// reads; FanOut is their ratio — how many downstream reads one
	// upstream exchange amortizes.
	UpPolls   int64
	DownPolls int64
	FanOut    float64
	// Clients counts attached long-lived consumers (SSE).
	Clients int64
	// StalenessMS is the oldest followed subscription's time since its
	// last successful upstream exchange. Idle subscriptions are left
	// out: their next reader syncs before it is served.
	StalenessMS float64
	// Rebaselines counts the local copies dropped and re-baselined after
	// their first baseline (re-created upstream sessions, wiped copies).
	Rebaselines int64
}

// Stats snapshots the relay's counters. Lock-free.
func (r *Relay) Stats() Stats {
	st := Stats{
		Name:      r.name,
		UpPolls:   r.upPolls.Load(),
		DownPolls: r.downPolls.Load(),
		Clients:   r.clients.Load(),
	}
	now := time.Now().UnixNano()
	r.subs.Range(func(_, v any) bool {
		s := v.(*subscription)
		st.Sessions++
		if last := s.lastSyncNS.Load(); last > 0 && !s.idle.Load() {
			if ms := float64(now-last) / 1e6; ms > st.StalenessMS {
				st.StalenessMS = ms
			}
		}
		st.Rebaselines += s.rebaselines.Load()
		return true
	})
	if st.UpPolls > 0 {
		st.FanOut = float64(st.DownPolls) / float64(st.UpPolls)
	}
	return st
}

// RemotePoller adapts an RMI connection into a Poller for relays
// subscribing to a shard (or parent relay) on another node.
type RemotePoller struct {
	client *rmi.Client
	target string
}

// NewRemotePoller wraps an RMI connection. object is the remote
// registration name ("" = the root manager).
func NewRemotePoller(client *rmi.Client, object string) *RemotePoller {
	if object == "" {
		object = merge.RMIObjectName
	}
	return &RemotePoller{client: client, target: object + ".Poll"}
}

// Poll implements Poller over the wire.
func (p *RemotePoller) Poll(args merge.PollArgs, reply *merge.PollReply) error {
	return p.client.Call(p.target, args, reply)
}

// WireReplies marks replies as wire-decoded: their frames are pool
// buffers the relay must Release unless it keeps them.
func (p *RemotePoller) WireReplies() bool { return true }
