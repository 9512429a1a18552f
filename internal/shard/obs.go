// Telemetry hooks for the shard fabric: per-shard routed-call rates and
// the handoff, mirror and relay counters. Per-shard series are cached in
// a sync.Map so the routing hot path pays one lock-free load, not a
// label-signature build; shard names are bounded by the fabric size, so
// cardinality stays far under the registry cap.

package shard

import (
	"sync"

	"github.com/ipa-grid/ipa/internal/merge"
	"github.com/ipa-grid/ipa/internal/obs"
)

var (
	obsHandoffs = obs.GetCounter("ipa_shard_handoffs_total",
		"Live-session migrations completed (ring edits + MoveSession calls).")
	obsMirrored = obs.GetCounter("ipa_shard_mirrored_total",
		"Publishes successfully mirrored to a replica shard.")
	obsMirrorBackpressure = obs.GetCounter("ipa_shard_mirror_backpressure_total",
		"Publishes that blocked because the mirror queue was full.")
	obsRelayPolls = obs.GetCounter("ipa_shard_relay_routed_polls_total",
		"Client polls routed to the relay tier instead of the owning shard.")
)

// shardCalls caches the per-shard routed-call counters. Key is
// shard + "\x00" + kind.
var shardCalls sync.Map // string → *obs.Counter

func shardCall(shard, kind string) *obs.Counter {
	key := shard + "\x00" + kind
	if c, ok := shardCalls.Load(key); ok {
		return c.(*obs.Counter)
	}
	c := obs.GetCounter("ipa_shard_calls_total",
		"Calls routed to a shard, by shard and kind.", "shard", shard, "kind", kind)
	shardCalls.Store(key, c)
	return c
}

// Stats routes a stats probe to the session's owning shard — the
// status surface behind session.Status's traffic counters, and the
// trace-propagation observable (StatsReply.LastTraceID).
func (r *Router) Stats(args merge.StatsArgs, reply *merge.StatsReply) error {
	_, b, err := r.owner(args.SessionID, false)
	if err != nil {
		return err
	}
	return b.Stats(args, reply)
}

// HopLag is one replica chain hop's view of a session, as probed by
// ReplicaLagChain: how far its copy trails the owner and the incarnation
// it believes in.
type HopLag struct {
	// Shard names the chain hop.
	Shard string `json:"shard"`
	// Lag is owner version minus hop version, floored at 0.
	Lag int64 `json:"lag"`
	// Epoch is the hop copy's incarnation stamp (0 when unreachable).
	Epoch int64 `json:"epoch,omitempty"`
	// Version is the hop copy's merged-result version (0 when
	// unreachable or empty).
	Version int64 `json:"version,omitempty"`
	// Stale marks a hop whose copy could not be probed, holds a foreign
	// epoch, or is ahead of the owner.
	Stale bool `json:"stale,omitempty"`
}

// ReplicaLagChain reports the per-hop lag breakdown for a session's
// whole replica chain, in chain order (nil when the session has no
// chain or the owner is unreachable). One Stats probe per copy; cheap
// enough for status surfaces, not meant for per-publish paths.
func (r *Router) ReplicaLagChain(sessionID string) []HopLag {
	t := r.table.Load()
	e, ok := t.Lookup(sessionID)
	if !ok || len(e.Replicas) == 0 {
		return nil
	}
	ob, okO := t.Backend(e.Shard)
	if !okO {
		return nil
	}
	var owner merge.StatsReply
	if err := ob.Stats(merge.StatsArgs{SessionID: sessionID}, &owner); err != nil || !owner.Found {
		return nil
	}
	out := make([]HopLag, 0, len(e.Replicas))
	for _, hop := range e.Replicas {
		h := HopLag{Shard: hop}
		hb, okR := t.Backend(hop)
		if !okR {
			h.Stale = true
			out = append(out, h)
			continue
		}
		var st merge.StatsReply
		if err := hb.Stats(merge.StatsArgs{SessionID: sessionID}, &st); err != nil || !st.Found {
			h.Stale = true
			out = append(out, h)
			continue
		}
		h.Epoch, h.Version = st.Epoch, st.Version
		if lag := owner.Version - st.Version; lag > 0 {
			h.Lag = lag
		}
		if st.Epoch != owner.Epoch || st.Version > owner.Version {
			h.Stale = true
		}
		out = append(out, h)
	}
	return out
}

// ReplicaLag reports how many versions a session's worst (deepest-lag)
// chain hop trails its owner (0 when the session has no replicas or
// every reachable copy has caught up). The per-hop breakdown is
// ReplicaLagChain.
func (r *Router) ReplicaLag(sessionID string) int64 {
	var worst int64
	for _, h := range r.ReplicaLagChain(sessionID) {
		if h.Lag > worst {
			worst = h.Lag
		}
	}
	return worst
}
