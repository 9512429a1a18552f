// Anti-entropy: chain repair. The mirror stream already self-heals on
// the failures it can see — an errored hop or a NeedFull answer
// re-baselines — but silent drift is invisible to it: a replica that
// quietly holds the wrong state at a plausible version, a copy stranded
// on a stale epoch by a failover it slept through, or a chain hop that
// simply stopped advancing while the session kept publishing. An
// anti-entropy sweep walks every session's chain, compares each hop's
// (epoch, version) pair against the owner's, and re-baselines copies
// that are provably wrong (foreign epoch, or ahead of the owner)
// immediately and copies that are stalled (trailing the owner while
// neither side moved since the previous sweep) on the second sighting —
// one round of grace absorbs normal asynchronous mirror lag without
// ever repairing a healthy chain.

package shard

import (
	"fmt"
	"sync"

	"github.com/ipa-grid/ipa/internal/obs"
)

// aeSighting is one suspicious hop observation retained between sweeps:
// repair fires only if the same (owner version, hop version) pair is
// still in place next round.
type aeSighting struct {
	ownerVersion int64
	hopVersion   int64
}

// AntiEntropy is the chain-repair prober. It pairs with Health over the
// same Router, one watching shard liveness, this one watching copy
// correctness, and like Health it has no loop of its own: the fabric's
// owner calls RunOnce on its own schedule.
type AntiEntropy struct {
	router *Router

	mu        sync.Mutex
	suspected map[string]aeSighting // session + "\x00" + hop → last sighting
}

// NewAntiEntropy creates a chain-repair prober over the router's fabric
// (it does not sweep until RunOnce).
func NewAntiEntropy(r *Router) *AntiEntropy {
	return &AntiEntropy{router: r, suspected: make(map[string]aeSighting)}
}

// RunOnce sweeps every session chain once and returns the hops it
// re-baselined as "session/hop" strings, sorted by visit order.
func (a *AntiEntropy) RunOnce() (repaired []string) {
	a.mu.Lock()
	defer a.mu.Unlock()
	obsAntiEntropyRounds.Inc()
	t := a.router.Table()
	seen := make(map[string]struct{})
	for _, sid := range t.Sessions() {
		e, ok := t.Lookup(sid)
		if !ok || len(e.Replicas) == 0 || t.IsDead(e.Shard) {
			continue
		}
		for _, hop := range a.router.ReplicaLagChain(sid) {
			key := sid + "\x00" + hop.Shard
			seen[key] = struct{}{}
			reason := ""
			switch {
			case hop.Stale && hop.Version == 0 && hop.Epoch == 0:
				// Unreachable or empty copy: the mirror stream (or the
				// health prober, if the shard is gone) owns this case.
				delete(a.suspected, key)
				continue
			case hop.Stale:
				// Provably wrong: a foreign epoch or a copy ahead of its
				// owner can never converge through the delta stream.
				reason = fmt.Sprintf("drift: hop (epoch %d, version %d) vs owner", hop.Epoch, hop.Version)
			case hop.Lag > 0:
				// Trailing — normal for an asynchronous stream. Repair
				// only if neither side moved since the last sweep: a
				// stream making any progress changes one of the versions.
				prev, sighted := a.suspected[key]
				ownerVersion := hop.Version + hop.Lag
				if !sighted || prev.ownerVersion != ownerVersion || prev.hopVersion != hop.Version {
					a.suspected[key] = aeSighting{ownerVersion: ownerVersion, hopVersion: hop.Version}
					continue
				}
				reason = fmt.Sprintf("stalled: version %d trailing owner %d across two sweeps", hop.Version, ownerVersion)
			default:
				delete(a.suspected, key)
				continue
			}
			delete(a.suspected, key)
			if err := a.router.rebaseline(sid, e.Shard, hop.Shard); err != nil {
				continue
			}
			obsAntiEntropyRepairs.Inc()
			obs.Emit(obs.EventRepair, hop.Shard, sid, 0, reason)
			repaired = append(repaired, sid+"/"+hop.Shard)
		}
	}
	// Drop sightings for chains that no longer exist.
	for key := range a.suspected {
		if _, ok := seen[key]; !ok {
			delete(a.suspected, key)
		}
	}
	return repaired
}
