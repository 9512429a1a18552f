package shard

import (
	"fmt"
	"sync"
	"time"

	"github.com/ipa-grid/ipa/internal/merge"
	"github.com/ipa-grid/ipa/internal/obs"
)

// Health is the shard fault prober: each RunOnce calls every shard's
// lock-free Stats surface and, after Threshold consecutive failed
// rounds, marks the shard dead in the placement table — its sessions
// are evicted and re-home lazily on their next touch (the new owner
// answers their first delta with NeedFull, so the engines' full
// re-baseline rebuilds the state from their own trees; no durable store
// is involved). Direct-polling clients already treat endpoint failure
// as "re-resolve placement", so they follow automatically.
//
// A dead shard keeps being probed; a successful probe marks it alive
// again and it simply rejoins the routing pool (state it lost stays
// lost — the sessions that re-homed keep their new owners).
//
// Health has no loop of its own: whoever owns a fabric whose shards can
// fail independently (Remote backends on other nodes) calls RunOnce on
// its own schedule. A LocalGrid's shards are in-process managers whose
// Stats never fails, so it runs no prober.
type Health struct {
	// Threshold is the consecutive-failure count that declares a shard
	// dead (default 3) — hysteresis against one slow or dropped probe.
	Threshold int
	// ProbeTimeout bounds one probe's wait (default 2s). The RMI layer
	// has no call deadlines, so a shard that hangs without closing its
	// connection would otherwise wedge the prober — the exact failure a
	// health prober exists to catch. A probe that outlives the timeout
	// counts as a failure; its goroutine stays in flight (single-flight
	// per shard, never stacked) and is reaped whenever it finally
	// answers.
	ProbeTimeout time.Duration
	// OnDead, if set, is called after a shard is marked dead with the
	// sessions that were evicted (operator logging).
	OnDead func(shard string, evicted []string)
	// OnFailover, if set, is called after a shard is marked dead with
	// the sessions whose replicas were promoted in its place (only
	// non-empty when the router replicates).
	OnFailover func(shard string, promoted []string)

	router *Router

	mu       sync.Mutex
	fails    map[string]int
	inflight map[string]chan error
}

// NewHealth creates a prober over the router's fabric (it does not
// probe until RunOnce).
func NewHealth(r *Router) *Health {
	return &Health{router: r, fails: make(map[string]int), inflight: make(map[string]chan error)}
}

// errProbeHung marks a probe that exceeded ProbeTimeout.
var errProbeHung = fmt.Errorf("shard: health probe timed out")

// probe runs (or re-awaits) the shard's single-flight Stats call,
// waiting at most ProbeTimeout. Caller holds h.mu.
func (h *Health) probe(name string, be Backend) error {
	ch, ok := h.inflight[name]
	if !ok {
		ch = make(chan error, 1)
		h.inflight[name] = ch
		go func() {
			// Stats with an empty session ID is the cheapest liveness
			// probe: served from atomics on the manager, it only errors
			// when the shard (or the wire to it) is gone — or never
			// returns at all, which the timeout below converts into a
			// failure.
			var reply merge.StatsReply
			ch <- be.Stats(merge.StatsArgs{}, &reply)
		}()
	}
	timeout := h.ProbeTimeout
	if timeout <= 0 {
		timeout = 2 * time.Second
	}
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	select {
	case err := <-ch:
		delete(h.inflight, name)
		return err
	case <-timer.C:
		// Leave the call in flight: the next round re-awaits the same
		// probe instead of stacking another goroutine onto a hung shard.
		return errProbeHung
	}
}

// RunOnce probes every ring member once and returns the shards newly
// marked dead and newly revived this round.
func (h *Health) RunOnce() (died, revived []string) {
	h.mu.Lock()
	defer h.mu.Unlock()
	threshold := h.Threshold
	if threshold <= 0 {
		threshold = 3
	}
	t := h.router.Table()
	for _, name := range t.Shards() {
		be, ok := t.Backend(name)
		if !ok {
			continue
		}
		err := h.probe(name, be)
		switch {
		case err == nil:
			h.fails[name] = 0
			if t.IsDead(name) && h.router.MarkAlive(name) {
				revived = append(revived, name)
				obsRevivals.Inc()
				obs.Emit(obs.EventRevival, name, "", 0, "probe answered, dead mark lifted")
			}
		case t.IsDead(name):
			// Still down; nothing new to record.
		default:
			h.fails[name]++
			obsProbeFails.Inc()
			if h.fails[name] < threshold {
				continue
			}
			h.fails[name] = 0
			obsDeadMarks.Inc()
			obs.Emit(obs.EventDeadMark, name, "", 0,
				fmt.Sprintf("%d consecutive probe failures", threshold))
			evicted, promoted := h.router.MarkDead(name)
			died = append(died, name)
			if h.OnDead != nil {
				h.OnDead(name, evicted)
			}
			if h.OnFailover != nil && len(promoted) > 0 {
				h.OnFailover(name, promoted)
			}
		}
	}
	// Drop bookkeeping for shards that left the fabric.
	for name := range h.fails {
		if !t.InRing(name) {
			delete(h.fails, name)
		}
	}
	for name := range h.inflight {
		if !t.InRing(name) {
			delete(h.inflight, name)
		}
	}
	return died, revived
}
