// Fabric status: the JSON document behind ipa-manager's /fabric/status
// endpoint (and ipa-client -watch). It is a read-only snapshot stitched
// from lock-free surfaces — the placement table, the per-shard Stats
// atomics, and the global telemetry event ring — so serving it never
// blocks a publish.

package core

import (
	"sort"

	"github.com/ipa-grid/ipa/internal/merge"
	"github.com/ipa-grid/ipa/internal/obs"
	"github.com/ipa-grid/ipa/internal/shard"
)

// ShardStatus is one fabric member in a FabricStatus report.
type ShardStatus struct {
	Name string `json:"name"`
	// Sessions counts the sessions the placement table routes here.
	Sessions int `json:"sessions"`
	// Publishes / Polls aggregate the cumulative traffic counters of the
	// sessions placed on this shard.
	Publishes int64 `json:"publishes"`
	Polls     int64 `json:"polls"`
}

// SessionPlacement is one session's placement row in a FabricStatus.
type SessionPlacement struct {
	SessionID string `json:"sessionID"`
	Shard     string `json:"shard,omitempty"`
	// Replica is the first chain hop (kept for single-replica readers);
	// Chain is the per-hop breakdown of the whole replica chain in
	// order, each hop with its own lag and staleness mark.
	Replica string         `json:"replica,omitempty"`
	Chain   []shard.HopLag `json:"chain,omitempty"`
	// Epoch is the merge-state incarnation stamp (new when the session is
	// re-created); Version the merged-result version clients poll against.
	Epoch   int64 `json:"epoch,omitempty"`
	Version int64 `json:"version"`
	// Publishes / Polls / FastPolls are the cumulative traffic counters;
	// ReplicaLag is how many versions the deepest-lagging chain hop
	// trails the owner (the per-hop breakdown is Chain).
	Publishes  int64 `json:"publishes"`
	Polls      int64 `json:"polls"`
	FastPolls  int64 `json:"fastPolls"`
	ReplicaLag int64 `json:"replicaLag,omitempty"`
}

// RelayStatus is one read-relay row in a FabricStatus report: the
// fan-out the relay tier is buying (downstream polls served per
// upstream subscription poll) and how stale its mirrors run.
type RelayStatus struct {
	Name string `json:"name"`
	// Sessions counts the live delta subscriptions this relay holds.
	Sessions int `json:"sessions"`
	// UpPolls / DownPolls are cumulative upstream subscription polls vs
	// downstream client polls served; FanOut is their ratio — the
	// poll-amplification the relay absorbs for the owning shards.
	UpPolls   int64   `json:"upPolls"`
	DownPolls int64   `json:"downPolls"`
	FanOut    float64 `json:"fanOut"`
	// Clients counts currently-attached streaming clients (SSE viewers
	// and registered watchers).
	Clients int64 `json:"clients"`
	// StalenessMS is the age of the relay's least-recently-synced
	// mirror — the worst-case lag a reader here can observe.
	StalenessMS float64 `json:"stalenessMS"`
	// Rebaselines counts full re-syncs forced by upstream epoch flips
	// or NeedFull signals.
	Rebaselines int64 `json:"rebaselines,omitempty"`
}

// FabricStatus is the live fabric snapshot served as JSON at
// /fabric/status.
type FabricStatus struct {
	// Sharded is false when results are served by a single unsharded
	// manager (Shards then holds one synthetic "manager" row).
	Sharded bool `json:"sharded"`
	// PlacementGen is the placement-table generation (0 when unsharded).
	PlacementGen uint64        `json:"placementGen,omitempty"`
	Shards       []ShardStatus `json:"shards"`
	// Relays lists the read fan-out tier (nil when the fabric has none).
	Relays     []RelayStatus      `json:"relays,omitempty"`
	Placements []SessionPlacement `json:"placements"`
	// Events are the most recent structured fabric events (handoffs,
	// chain seeds, mirror backpressure, spans) from the in-memory
	// telemetry ring.
	Events []obs.Event `json:"events"`
	// NextEventSeq resumes the ring: pass it to the telemetry RPC (or
	// compare across polls) to read only newer events.
	NextEventSeq uint64 `json:"nextEventSeq"`
}

// FabricStatus snapshots the merge fabric for the status endpoint. The
// event tail is capped at maxEvents (<= 0 selects 64).
func (g *LocalGrid) FabricStatus(maxEvents int) FabricStatus {
	if maxEvents <= 0 {
		maxEvents = 64
	}
	st := FabricStatus{}
	next := obs.Events.NextSeq()
	var since uint64
	if n := uint64(maxEvents); next > n {
		since = next - n
	}
	st.Events = obs.Events.Since(since, maxEvents)
	st.NextEventSeq = next

	if g.Router == nil {
		// Unsharded: one synthetic shard row covering every live session.
		row := ShardStatus{Name: "manager"}
		for _, sid := range sortedSessions(g.Session.Sessions()) {
			var sr merge.StatsReply
			if p, ok := g.Merge.(interface {
				Stats(merge.StatsArgs, *merge.StatsReply) error
			}); ok {
				p.Stats(merge.StatsArgs{SessionID: sid}, &sr)
			}
			row.Sessions++
			row.Publishes += sr.Publishes
			row.Polls += sr.Polls
			st.Placements = append(st.Placements, SessionPlacement{
				SessionID: sid, Epoch: sr.Epoch, Version: sr.Version,
				Publishes: sr.Publishes, Polls: sr.Polls, FastPolls: sr.FastPolls,
			})
		}
		st.Shards = []ShardStatus{row}
		return st
	}

	st.Sharded = true
	st.PlacementGen = g.Router.Generation()
	rows := make(map[string]*ShardStatus)
	names := g.Router.Shards()
	sort.Strings(names)
	for _, name := range names {
		rows[name] = &ShardStatus{Name: name}
	}
	for _, sid := range sortedSessions(g.Router.Sessions()) {
		owner := g.Router.Placement(sid)
		var sr merge.StatsReply
		g.Router.Stats(merge.StatsArgs{SessionID: sid}, &sr)
		p := SessionPlacement{
			SessionID: sid, Shard: owner,
			Replica: g.Router.ReplicaOf(sid),
			Chain:   g.Router.ReplicaLagChain(sid),
			Epoch:   sr.Epoch, Version: sr.Version,
			Publishes: sr.Publishes, Polls: sr.Polls, FastPolls: sr.FastPolls,
		}
		for _, h := range p.Chain {
			if h.Lag > p.ReplicaLag {
				p.ReplicaLag = h.Lag
			}
		}
		st.Placements = append(st.Placements, p)
		if row := rows[owner]; row != nil {
			row.Sessions++
			row.Publishes += sr.Publishes
			row.Polls += sr.Polls
		}
	}
	for _, name := range names {
		st.Shards = append(st.Shards, *rows[name])
	}
	relayNames := make([]string, 0, len(g.Relays))
	for name := range g.Relays {
		relayNames = append(relayNames, name)
	}
	sort.Strings(relayNames)
	for _, name := range relayNames {
		rs := g.Relays[name].Stats()
		st.Relays = append(st.Relays, RelayStatus{
			Name: rs.Name, Sessions: rs.Sessions,
			UpPolls: rs.UpPolls, DownPolls: rs.DownPolls, FanOut: rs.FanOut,
			Clients: rs.Clients, StalenessMS: rs.StalenessMS,
			Rebaselines: rs.Rebaselines,
		})
	}
	return st
}

// sortedSessions orders session IDs for a stable status document.
func sortedSessions(ids []string) []string {
	sort.Strings(ids)
	return ids
}
