// Package relay is the fabric's read fan-out tier. A Relay follows each
// session through ONE upstream subscription: a loop of version-gated
// long polls (merge.PollArgs.Wait) that return as soon as the upstream
// commits a new version. Each change is republished into a private
// merge.Manager through the same generation-stamped merge.Transport the
// engines use, pointed downhill, and the upstream's encoded frames are
// seeded into that copy's frame cache. Downstream pollers, parked or
// not, hit the local manager's lock-free fast path and frame cache, so
// N viewers cost the owning shard one parked poll instead of N, and
// because the codec is deterministic, relay-served frames are
// byte-identical to the owner's.
//
// A subscription follows its upstream only while it has demand: a
// downstream poll since its last sync, or one parked on it right now.
// Without either it goes idle and polls upstream no more; the first
// read of an idle subscription syncs inline before it is served, then
// wakes the loop to follow again.
//
// Relays compose: a Relay's upstream may itself be a Relay (a
// relay-of-relay tree for geographic tiers).
//
// Self-healing mirrors the client rules: an upstream epoch change or
// same-epoch version regression (a re-created session, a handoff
// straggler) re-baselines the subscription — the local copy is dropped, which
// mints a fresh local epoch, so downstream clients full-resync in turn.
// An upstream that stops knowing the session (version 0) leaves the
// local copy serving its final state rather than tearing it down under
// the viewers.
package relay

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/ipa-grid/ipa/internal/aida"
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
	// releaseUp: upstream replies crossed the wire, so their decoded
	// frames go back to the frame pool unless the local frame cache
	// keeps them. Never set for in-process upstreams, whose replies
	// share the owner's encode cache (releasing those would corrupt
	// later polls).
	releaseUp bool
	local     *merge.Manager

	// Interval bounds one upstream long poll: the subscription loop
	// parks upstream for up to Interval waiting for a new version, and
	// polls again when it passes. A commit upstream wakes the loop at
	// once, so Interval sets no cadence. 0 = no background loop; tests
	// and embedders drive syncs via SyncNow. Set before Subscribe.
	Interval time.Duration
	// AutoSubscribe makes the first downstream poll of an unknown
	// session open its subscription on demand. Set before use.
	AutoSubscribe bool

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
	// (the loop, inline syncs and SyncNow); the fields below it are
	// guarded by it. The loop does not hold it while parked upstream.
	syncMu    sync.Mutex
	tr        *merge.Transport
	upVersion int64
	upEpoch   int64

	// progress is the upstream per-worker progress at upVersion,
	// re-served verbatim on downstream polls (the local manager only
	// sees one aggregate "worker", the relay itself).
	progress atomic.Pointer[[]merge.WorkerProgress]
	// lastSyncNS is the wall clock of the last successful upstream
	// exchange (unix nanos); staleness lag is measured against it.
	lastSyncNS atomic.Int64
	// rebaselines mirrors the transport's re-baseline count (plus one
	// per epoch-flip transport replacement) into an atomic, so Stats
	// never touches the syncMu-guarded transport. rebaseBase carries
	// the total across transport replacements (guarded by syncMu).
	rebaselines atomic.Int64
	rebaseBase  int64

	// Demand. read is set by a downstream poll and cleared when the loop
	// starts an upstream exchange; parked counts downstream polls parked
	// on the local copy now. idle means nothing keeps the local copy
	// current — before the first sync, and while the loop waits for
	// demand — so the next read syncs inline; kick then wakes the loop.
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

// Local exposes the relay's private merged copy — tests inject
// NeedFull-style damage through it, and the gateway renders from it.
func (r *Relay) Local() *merge.Manager { return r.local }

// errUnchanged aborts a transport send without consuming a generation:
// the upstream had nothing new (or doesn't know the session), so the
// local version must not churn — downstream quiescent polls stay on
// the lock-free fast path.
var errUnchanged = errors.New("relay: upstream unchanged")

// errEpochFlip aborts a send because the upstream state was rebuilt
// (new epoch, or a same-epoch version regression): the local copy must
// be dropped and re-baselined.
var errEpochFlip = errors.New("relay: upstream epoch changed")

// Subscribe opens the session's upstream subscription (idempotent). It
// starts idle: the first downstream read or SyncNow syncs it, and with
// a positive Interval the read also starts the loop following upstream.
func (r *Relay) Subscribe(sessionID string) error {
	if _, ok := r.subs.Load(sessionID); ok {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return fmt.Errorf("relay %s: closed", r.name)
	}
	if _, ok := r.subs.Load(sessionID); ok {
		return nil
	}
	s := &subscription{
		sid:  sessionID,
		tr:   merge.NewTransport(sessionID, "relay:"+r.name, r.local),
		kick: make(chan struct{}, 1),
		stop: make(chan struct{}),
	}
	s.idle.Store(true)
	r.subs.Store(sessionID, s)
	obsSubscriptions.Add(1)
	if r.Interval > 0 {
		go r.loop(s)
	}
	return nil
}

// loop follows upstream while the subscription has demand and waits
// for a kick while it has none. It exits once the subscription stops
// and its current upstream poll returns.
func (r *Relay) loop(s *subscription) {
	for !s.stopped() {
		if !s.demanded() {
			s.idle.Store(true)
			// Check again after publishing idle: a read that still saw
			// the copy followed shows up here; any later one sees idle,
			// syncs inline and kicks.
			if !s.demanded() {
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
		if err := r.follow(s); err != nil {
			// Errors are retried; the transport's re-baseline state
			// machine covers anything half-applied.
			t := time.NewTimer(retryPause)
			select {
			case <-s.stop:
			case <-t.C:
			}
			t.Stop()
		}
	}
}

// follow runs one upstream exchange of the loop: a poll parked for up
// to Interval until the upstream moves past the local copy's version,
// then applied. The poll parks without syncMu, so SyncNow, inline syncs
// and teardown never wait out a park.
func (r *Relay) follow(s *subscription) error {
	s.syncMu.Lock()
	since, epoch := s.upVersion, s.upEpoch
	s.syncMu.Unlock()
	var pr merge.PollReply
	err := r.upstream.Poll(merge.PollArgs{
		SessionID: s.sid, SinceVersion: since, SinceEpoch: epoch, Wait: r.Interval,
	}, &pr)
	if err != nil {
		return err
	}
	r.upPolls.Add(1)
	obsUpPolls.Inc()
	s.syncMu.Lock()
	defer s.syncMu.Unlock()
	if s.upVersion != since || s.upEpoch != epoch {
		// Another sync moved the subscription while this poll was
		// parked: the reply is a diff from a version the copy has left.
		r.releaseReply(&pr)
		return nil
	}
	return r.syncWith(s, &pr)
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

// syncOnce performs one upstream poll → local publish exchange.
func (r *Relay) syncOnce(s *subscription) error {
	s.syncMu.Lock()
	defer s.syncMu.Unlock()
	return r.syncWith(s, nil)
}

// syncWith applies one upstream exchange, starting from pre when the
// caller already polled (nil = poll now). Caller holds syncMu.
func (r *Relay) syncWith(s *subscription, pre *merge.PollReply) error {
	if s.stopped() {
		// Torn down: the local copy is gone and must stay gone.
		if pre != nil {
			r.releaseReply(pre)
		}
		return nil
	}
	for attempt := 0; ; attempt++ {
		err := r.syncLocked(s, pre)
		pre = nil
		switch {
		case err == nil || errors.Is(err, errUnchanged):
			if r.Interval <= 0 {
				// Without a loop, whoever drives SyncNow keeps the copy
				// current from here on.
				s.idle.Store(false)
			}
			return nil
		case errors.Is(err, errEpochFlip) && attempt == 0:
			// The upstream state was rebuilt under us (the session was
			// re-created). Drop the local copy — the
			// replacement session gets a fresh local epoch, so
			// downstream clients discard their mirrors too — and
			// re-baseline immediately.
			obsRebaselines.Inc()
			s.rebaseBase += s.tr.Rebaselines() + 1
			s.rebaselines.Store(s.rebaseBase)
			r.local.Drop(s.sid)
			s.tr = merge.NewTransport(s.sid, "relay:"+r.name, r.local)
			s.upVersion, s.upEpoch = 0, 0
			s.progress.Store(nil)
			continue
		case errors.Is(err, errEpochFlip):
			// Flipped twice in one sync: let the next exchange retry.
			return nil
		default:
			return err
		}
	}
}

// syncLocked applies one upstream reply: pre when given and the
// transport wants an increment, else a fresh poll. It consumes pre.
// Caller holds syncMu.
func (r *Relay) syncLocked(s *subscription, pre *merge.PollReply) error {
	defer func() {
		if pre != nil {
			r.releaseReply(pre)
		}
	}()
	if s.upVersion != 0 && r.local.Version(s.sid) == 0 {
		// The local copy was wiped under the subscription (an injected
		// NeedFull, an operator drop). An unchanged upstream would
		// otherwise skip publishing forever; rebuild from a fresh
		// baseline instead.
		return errEpochFlip
	}
	// applied is the reply the send republished; its frames are seeded
	// into the local frame cache once the publish commits.
	var applied merge.PollReply
	t0 := time.Now()
	reply, err := s.tr.Send(func(full bool) (merge.Snapshot, error) {
		var pr merge.PollReply
		if pre != nil && !full {
			pr, pre = *pre, nil
		} else {
			args := merge.PollArgs{SessionID: s.sid}
			if full {
				args.Full = true
			} else {
				args.SinceVersion = s.upVersion
			}
			if err := r.upstream.Poll(args, &pr); err != nil {
				return merge.Snapshot{}, err
			}
			r.upPolls.Add(1)
			obsUpPolls.Inc()
		}
		if pr.Version == 0 && pr.Epoch == 0 {
			// Upstream doesn't know the session (dropped, or a handoff
			// tombstone): keep serving the local copy's final state.
			return merge.Snapshot{}, errUnchanged
		}
		if s.upEpoch != 0 && pr.Epoch != 0 && pr.Epoch != s.upEpoch {
			r.releaseReply(&pr)
			return merge.Snapshot{}, errEpochFlip
		}
		if !full && pr.Version < s.upVersion {
			// Same-epoch version regression: a legacy peer without epoch
			// stamps rebuilt the state. Treat like an epoch flip.
			r.releaseReply(&pr)
			return merge.Snapshot{}, errEpochFlip
		}
		if !full && !pr.Changed && pr.Version == s.upVersion {
			s.lastSyncNS.Store(time.Now().UnixNano())
			return merge.Snapshot{}, errUnchanged
		}
		d := &aida.DeltaState{Full: full}
		for _, e := range pr.Entries {
			st, err := e.State()
			if err != nil {
				r.releaseReply(&pr)
				return merge.Snapshot{}, err
			}
			d.Entries = append(d.Entries, aida.TreeEntry{Path: e.Path, Object: st})
		}
		if !full {
			d.Removed = pr.Removed
		}
		snap := merge.Snapshot{Delta: d, Log: strings.Join(pr.Logs, "\n")}
		for _, p := range pr.Progress {
			snap.Done += p.EventsDone
			snap.Total += p.EventsTotal
		}
		applied = pr
		return snap, nil
	})
	if err != nil || !reply.Accepted {
		r.releaseReply(&applied)
		return err
	}
	// The frames now belong to the local frame cache: a wire reply's
	// pooled buffers are never released back to the pool.
	r.local.SeedFrames(s.sid, reply.Version, applied.Entries)
	s.upVersion, s.upEpoch = applied.Version, applied.Epoch
	s.progress.Store(&applied.Progress)
	s.rebaselines.Store(s.rebaseBase + s.tr.Rebaselines())
	now := time.Now()
	s.lastSyncNS.Store(now.UnixNano())
	obsSyncSeconds.Observe(now.Sub(t0).Seconds())
	return nil
}

// releaseReply recycles a wire-decoded reply's frames. In-process
// upstream replies share the owner's encode cache and are left alone.
func (r *Relay) releaseReply(pr *merge.PollReply) {
	if r.releaseUp {
		pr.Release()
	}
}

// AddClient / DropClient track attached long-lived consumers (SSE
// clients) for the fan-out stats.
func (r *Relay) AddClient()  { r.clients.Add(1) }
func (r *Relay) DropClient() { r.clients.Add(-1) }

// Poll re-serves a downstream read from the local merged copy
// (RMI-compatible — the same wire surface as a Manager, so core.Client
// needs no new protocol). A poll with args.Wait parks on the local copy
// and counts as demand while it does; a read of an idle subscription
// syncs it first.
func (r *Relay) Poll(args merge.PollArgs, reply *merge.PollReply) error {
	r.downPolls.Add(1)
	obsDownPolls.Inc()
	v, ok := r.subs.Load(args.SessionID)
	if !ok && r.AutoSubscribe {
		if err := r.Subscribe(args.SessionID); err != nil {
			return err
		}
		v, ok = r.subs.Load(args.SessionID)
	}
	var s *subscription
	if ok {
		s = v.(*subscription)
		if args.Wait > 0 && !args.Full {
			s.parked.Add(1)
			defer s.parked.Add(-1)
		}
		if !s.read.Load() {
			s.read.Store(true)
		}
		if s.idle.Load() {
			// Nothing keeps this copy current — it was never synced, or
			// its loop went idle: catch up before serving (including a
			// poll that finds a subscription another poll just opened),
			// then wake the loop to follow on.
			if err := r.syncOnce(s); err != nil {
				return err
			}
			select {
			case s.kick <- struct{}{}:
			default:
			}
		}
	}
	if err := r.local.Poll(args, reply); err != nil {
		return err
	}
	if s != nil {
		if p := s.progress.Load(); p != nil && len(*p) > 0 {
			reply.Progress = *p
		}
	}
	return nil
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
	// Rebaselines counts forwarded full baselines after the first
	// (re-created upstream sessions, handoffs, injected NeedFulls).
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
