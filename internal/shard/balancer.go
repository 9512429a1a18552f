package shard

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/ipa-grid/ipa/internal/merge"
	"github.com/ipa-grid/ipa/internal/obs"
)

// Balancer is the load-weighted rebalancing policy on top of the
// placement table: it probes every shard's lock-free SessionList/Stats
// surface on a ticker, turns the cumulative per-session publish+poll
// counters into rates (deltas between rounds), and migrates the
// hottest sessions off overloaded shards through the router's ordinary
// seal→export→import→flip handoff. The ring keeps assigning *new*
// sessions uniformly; the balancer corrects the skew the hash cannot
// see — a handful of wildly hot sessions landing on one shard.
//
// Policy knobs: at most MaxMoves migrations per round, and a shard is
// only "overloaded" when its load exceeds the fabric mean by more than
// the hysteresis Band, so the balancer converges instead of
// ping-ponging sessions between near-equal shards. A move is only made
// when it strictly narrows the hot/cold gap.
type Balancer struct {
	// Interval between probe rounds for Start (default 5s).
	Interval time.Duration
	// MaxMoves bounds migrations per round (default 2) — each move is a
	// full session handoff, so rounds stay cheap and mistakes small.
	MaxMoves int
	// Band is the hysteresis band: a shard is overloaded only when its
	// load exceeds the fabric mean by more than this fraction
	// (default 0.25).
	Band float64

	router *Router

	// runMu serializes probe rounds; mu guards only the quick state
	// below, so Stop (and LocalGrid.Close behind it) never waits out a
	// round's RPCs and handoffs.
	runMu sync.Mutex
	mu    sync.Mutex
	// prev maps "shard\x00session" → the last observed cumulative
	// counter; keyed per shard so a migrated session starts a fresh
	// rate window on its new owner instead of a bogus negative one.
	prev map[string]int64
	stop chan struct{}

	moves  atomic.Int64
	rounds atomic.Int64
}

// NewBalancer creates a balancer over the router's fabric (it does not
// start probing until Start or RunOnce).
func NewBalancer(r *Router) *Balancer {
	return &Balancer{router: r, prev: make(map[string]int64)}
}

// Moves reports the total sessions migrated across all rounds.
func (b *Balancer) Moves() int64 { return b.moves.Load() }

// Rounds reports how many probe rounds have completed.
func (b *Balancer) Rounds() int64 { return b.rounds.Load() }

// sessLoad is one session's observed rate on one shard.
type sessLoad struct {
	sid  string
	rate int64
}

// RunOnce performs one probe-and-rebalance round, returning how many
// sessions it moved. The first round only warms the rate window.
func (b *Balancer) RunOnce() (int, error) {
	b.runMu.Lock()
	defer b.runMu.Unlock()
	defer b.rounds.Add(1)

	t := b.router.Table()
	var alive []string
	for _, name := range t.Shards() {
		if !t.IsDead(name) {
			alive = append(alive, name)
		}
	}

	// Probe phase — RPCs, no locks held. Only shards that answer
	// participate in this round's move math: an unreachable shard must
	// be neither a donor nor — with its apparently-zero load — the
	// obvious (and doomed) move target.
	type probeResult struct {
		name  string
		loads []merge.SessionLoad
	}
	var probes []probeResult
	for _, name := range alive {
		be, ok := t.Backend(name)
		if !ok {
			continue
		}
		var reply merge.SessionsReply
		if err := be.SessionList(merge.SessionsArgs{}, &reply); err != nil {
			// An unreachable shard is the health prober's problem, not
			// the balancer's; skip it this round.
			continue
		}
		probes = append(probes, probeResult{name: name, loads: reply.Loads})
	}

	// Rate phase — cumulative counters → per-session rates since last
	// round, under the quick state mutex.
	loads := make(map[string][]sessLoad)
	shardLoad := make(map[string]int64)
	seen := make(map[string]struct{})
	probed := make([]string, 0, len(probes))
	b.mu.Lock()
	for _, p := range probes {
		probed = append(probed, p.name)
		for _, l := range p.loads {
			// Only sessions the router actually places here count: a
			// handoff tombstone or a stray pre-migration copy must not
			// make a shard look loaded.
			if e, ok := t.Lookup(l.SessionID); !ok || e.Shard != p.name {
				continue
			}
			cum := l.Publishes + l.Polls
			key := p.name + "\x00" + l.SessionID
			seen[key] = struct{}{}
			prev, known := b.prev[key]
			b.prev[key] = cum
			if !known {
				continue // first sighting on this shard: no rate yet
			}
			rate := cum - prev
			if rate < 0 {
				rate = 0
			}
			loads[p.name] = append(loads[p.name], sessLoad{sid: l.SessionID, rate: rate})
			shardLoad[p.name] += rate
		}
	}
	// Forget counters for sessions that moved or were dropped — judged
	// only against shards that answered this round, so one dropped
	// probe doesn't wipe a hot shard's whole rate window — plus any
	// keyed to a shard that left the fabric entirely.
	probedSet := make(map[string]bool, len(probed))
	for _, name := range probed {
		probedSet[name] = true
	}
	for k := range b.prev {
		shard, _, _ := strings.Cut(k, "\x00")
		if probedSet[shard] {
			if _, ok := seen[k]; !ok {
				delete(b.prev, k)
			}
		} else if !t.HasBackend(shard) {
			delete(b.prev, k)
		}
	}
	b.mu.Unlock()
	if len(probed) < 2 {
		return 0, nil
	}
	var total int64
	for _, name := range probed {
		total += shardLoad[name]
	}
	if total == 0 {
		return 0, nil
	}
	mean := float64(total) / float64(len(probed))
	band := b.Band
	if band <= 0 {
		band = 0.25
	}
	maxMoves := b.MaxMoves
	if maxMoves <= 0 {
		maxMoves = 2
	}

	moved := 0
	for moved < maxMoves {
		hot, cold := probed[0], probed[0]
		for _, name := range probed[1:] {
			if shardLoad[name] > shardLoad[hot] {
				hot = name
			}
			if shardLoad[name] < shardLoad[cold] {
				cold = name
			}
		}
		if float64(shardLoad[hot]) <= mean*(1+band) {
			break // within the hysteresis band: converged
		}
		cands := loads[hot]
		sort.Slice(cands, func(i, j int) bool { return cands[i].rate > cands[j].rate })
		progressed := false
		for i, c := range cands {
			if c.rate == 0 {
				break
			}
			if shardLoad[cold]+c.rate >= shardLoad[hot] {
				// Moving this one would just swap which shard is hot;
				// try a cooler session.
				continue
			}
			if err := b.router.MoveSession(c.sid, cold); err != nil {
				return moved, err
			}
			shardLoad[hot] -= c.rate
			shardLoad[cold] += c.rate
			loads[hot] = append(append([]sessLoad(nil), cands[:i]...), cands[i+1:]...)
			loads[cold] = append(loads[cold], c)
			// The session's counters restart on the new shard; drop the
			// old-key rate window now rather than waiting a round.
			b.mu.Lock()
			delete(b.prev, hot+"\x00"+c.sid)
			b.mu.Unlock()
			b.moves.Add(1)
			obsMoves.Inc()
			obs.Emit(obs.EventMove, cold, c.sid, 0, fmt.Sprintf("from %s, rate %d", hot, c.rate))
			moved++
			progressed = true
			break
		}
		if !progressed {
			break
		}
	}
	return moved, nil
}

// Start launches the probe ticker (no-op if already running).
func (b *Balancer) Start() {
	b.mu.Lock()
	if b.stop != nil {
		b.mu.Unlock()
		return
	}
	stop := make(chan struct{})
	b.stop = stop
	b.mu.Unlock()
	interval := b.Interval
	if interval <= 0 {
		interval = 5 * time.Second
	}
	go func() {
		tick := time.NewTicker(interval)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				// Move errors are transient (a racing teardown, an
				// import refusal rolled back); the next round retries
				// from fresh observations.
				b.RunOnce()
			}
		}
	}()
}

// Stop halts the probe ticker (no-op if not running).
func (b *Balancer) Stop() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.stop == nil {
		return
	}
	close(b.stop)
	b.stop = nil
}
