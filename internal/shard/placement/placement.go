// Package placement is the shard fabric's routing brain, extracted
// from the Router so placement is a first-class subsystem rather than a
// field under a mutex. One immutable Table holds everything a call
// needs to find its shard — session placements, the consistent-hash
// ring, shard backends, advertised endpoints and relays — and a
// Store swaps whole tables through one atomic.Pointer, RCU-style:
//
//   - Readers (every Publish/Poll/Reset resolution) Load the current
//     table and walk plain maps with zero locks and zero retries; a
//     concurrent topology edit is simply not observed until its swap.
//   - Writers (shard add/remove, first-touch placement, pinned
//     moves) clone the table under the store mutex,
//     edit the clone, and publish it with a generation bump.
//
// This removes the fabric's last global serialization point: after the
// managers went per-session concurrent, the Router's single mutex was
// the one lock every call still funneled through.
package placement

import (
	"sort"
	"sync"
	"sync/atomic"
)

// Entry is one session's placement.
type Entry struct {
	// Shard names the session's current owner.
	Shard string
	// Pinned marks a placement chosen deliberately (a session move)
	// rather than by ring position: ring edits leave it alone (only
	// removing its shard re-homes it), so a deliberate move
	// is not silently undone by the next topology change.
	Pinned bool
	// Replicas names the shards holding the session's replica copies in
	// chain order: the mirror stream visits Replicas[0] first, then
	// Replicas[1], and so on (nil = none assigned). Never contains
	// Shard, never holds duplicates. The slice is shared across table
	// clones and must be treated as immutable — mutators always install
	// a freshly built slice, never append in place.
	Replicas []string
}

// Replica is the first chain hop ("" when the chain is empty) — the
// single-replica view kept for callers that predate depth-K chains.
func (e Entry) Replica() string {
	if len(e.Replicas) == 0 {
		return ""
	}
	return e.Replicas[0]
}

// HasReplica reports whether a shard appears anywhere in the chain.
func (e Entry) HasReplica(shard string) bool {
	for _, r := range e.Replicas {
		if r == shard {
			return true
		}
	}
	return false
}

// sanitizeChain copies a proposed chain, dropping the owner, empty
// names, and duplicates — the invariants every stored chain keeps.
func sanitizeChain(chain []string, owner string) []string {
	if len(chain) == 0 {
		return nil
	}
	out := make([]string, 0, len(chain))
	for _, s := range chain {
		if s == "" || s == owner {
			continue
		}
		dup := false
		for _, seen := range out {
			if seen == s {
				dup = true
				break
			}
		}
		if !dup {
			out = append(out, s)
		}
	}
	if len(out) == 0 {
		return nil
	}
	return out
}

// Table is one immutable placement snapshot, parameterized by the
// backend handle type (the Router instantiates it with its Backend
// interface). Readers obtained it from Store.Load and must not mutate
// it; the mutators below are for the cloned table inside Store.Update
// only.
type Table[B any] struct {
	gen      uint64
	ring     *Ring
	sessions map[string]Entry
	backends map[string]B
	addrs    map[string]string
	// relays maps relay name → advertised endpoint ("" for in-process
	// relays). Relays are the read fan-out tier: they never own
	// sessions, so they live beside the shard ring, with their own
	// consistent-hash ring assigning each session a home relay.
	relays    map[string]string
	relayRing *Ring
}

func newTable[B any](vnodes int) *Table[B] {
	return &Table[B]{
		ring:      NewRing(vnodes),
		sessions:  make(map[string]Entry),
		backends:  make(map[string]B),
		addrs:     make(map[string]string),
		relays:    make(map[string]string),
		relayRing: NewRing(vnodes),
	}
}

func (t *Table[B]) clone() *Table[B] {
	cp := &Table[B]{
		gen:       t.gen + 1,
		ring:      t.ring.Clone(),
		sessions:  make(map[string]Entry, len(t.sessions)),
		backends:  make(map[string]B, len(t.backends)),
		addrs:     make(map[string]string, len(t.addrs)),
		relays:    make(map[string]string, len(t.relays)),
		relayRing: t.relayRing.Clone(),
	}
	for k, v := range t.sessions {
		cp.sessions[k] = v
	}
	for k, v := range t.backends {
		cp.backends[k] = v
	}
	for k, v := range t.addrs {
		cp.addrs[k] = v
	}
	for k, v := range t.relays {
		cp.relays[k] = v
	}
	return cp
}

// ------------------------------------------------------------ reads

// Gen is the table generation: 0 for the empty initial table, bumped by
// every published edit (topology change, first-touch placement,
// pinned move). Surfaced through session status so
// clients can tell "the fabric changed under me" from "nothing moved".
func (t *Table[B]) Gen() uint64 { return t.gen }

// Lookup returns a session's recorded placement.
func (t *Table[B]) Lookup(sessionID string) (Entry, bool) {
	e, ok := t.sessions[sessionID]
	return e, ok
}

// Home is the shard the ring assigns a session ("" when the ring is
// empty). Unplaced sessions route here.
func (t *Table[B]) Home(sessionID string) string {
	return t.ring.Owner(sessionID)
}

// ReplicaHome is the ring's choice of the next replica shard for a
// session: the first ring successor that is not the primary, has a
// backend, and is not already taken by an earlier chain hop (""
// when the fabric has no such shard — a one-shard fabric cannot
// replicate, and a K-shard fabric caps chains at K-1 hops).
func (t *Table[B]) ReplicaHome(sessionID, primary string, taken []string) string {
	return t.ring.OwnerFunc(sessionID, func(s string) bool {
		if s == primary {
			return false
		}
		for _, h := range taken {
			if h == s {
				return false
			}
		}
		_, ok := t.backends[s]
		return ok
	})
}

// MaxChainDepth is the deepest replica chain the current topology can
// host for any session: ring members with a backend minus the primary,
// floored at zero.
func (t *Table[B]) MaxChainDepth() int {
	n := 0
	for _, s := range t.ring.Shards() {
		if _, ok := t.backends[s]; ok {
			n++
		}
	}
	return max(n-1, 0)
}

// Backend returns a shard's handle.
func (t *Table[B]) Backend(shard string) (B, bool) {
	b, ok := t.backends[shard]
	return b, ok
}

// HasBackend reports whether a shard handle is registered (it may
// already be off the ring mid-removal).
func (t *Table[B]) HasBackend(shard string) bool {
	_, ok := t.backends[shard]
	return ok
}

// InRing reports ring membership.
func (t *Table[B]) InRing(shard string) bool { return t.ring.Has(shard) }

// RingSize reports the ring member count.
func (t *Table[B]) RingSize() int { return t.ring.Size() }

// Addr returns a shard's advertised RMI endpoint ("" when none, or when
// the shard is gone — a departed shard never leaks a stale endpoint).
func (t *Table[B]) Addr(shard string) string {
	if !t.HasBackend(shard) {
		return ""
	}
	return t.addrs[shard]
}

// AddrEntry returns the raw recorded endpoint for a shard, whether or
// not it currently has a backend (an operator may record the endpoint
// before the shard joins) — the no-op check for SetAddr callers.
func (t *Table[B]) AddrEntry(shard string) string { return t.addrs[shard] }

// Shards lists ring members, sorted.
func (t *Table[B]) Shards() []string { return t.ring.Shards() }

// Relays lists registered relay names, sorted.
func (t *Table[B]) Relays() []string { return t.relayRing.Shards() }

// RelayAddr returns a relay's advertised endpoint ("" for in-process
// relays or unknown names).
func (t *Table[B]) RelayAddr(name string) string { return t.relays[name] }

// HasRelay reports whether a relay is registered.
func (t *Table[B]) HasRelay(name string) bool {
	_, ok := t.relays[name]
	return ok
}

// RelayHome is the relay the relay ring assigns a session ("" when no
// relays are registered) — the deterministic "nearest relay" choice
// every router replica agrees on without coordination.
func (t *Table[B]) RelayHome(sessionID string) string {
	return t.relayRing.Owner(sessionID)
}

// Sessions lists every placed session, sorted.
func (t *Table[B]) Sessions() []string {
	out := make([]string, 0, len(t.sessions))
	for id := range t.sessions {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// EachSession visits every placement (iteration order unspecified).
func (t *Table[B]) EachSession(f func(sessionID string, e Entry)) {
	for id, e := range t.sessions {
		f(id, e)
	}
}

// EachBackend visits every registered shard handle.
func (t *Table[B]) EachBackend(f func(shard string, b B)) {
	for name, b := range t.backends {
		f(name, b)
	}
}

// -------------------------------------------------------- mutations
//
// Valid only on the cloned table passed to a Store.Update edit
// function; calling them on a table obtained from Load is a data race.

// Place records a session's owner, preserving any recorded replica
// chain (minus the new owner if it was a chain member — a replica must
// never double as the owner).
func (t *Table[B]) Place(sessionID, shard string, pinned bool) {
	e := t.sessions[sessionID]
	e.Shard, e.Pinned = shard, pinned
	if e.HasReplica(shard) {
		e.Replicas = sanitizeChain(e.Replicas, shard)
	}
	t.sessions[sessionID] = e
}

// SetReplicas records a session's full replica chain in order (nil or
// empty clears it). The owner, duplicates, and empty names are dropped;
// the stored slice is a fresh copy so published tables stay immutable.
// No-op for unplaced sessions.
func (t *Table[B]) SetReplicas(sessionID string, chain []string) {
	e, ok := t.sessions[sessionID]
	if !ok {
		return
	}
	e.Replicas = sanitizeChain(chain, e.Shard)
	t.sessions[sessionID] = e
}

// Evict forgets a session's placement (teardown: the session re-homes by
// ring position on its next touch).
func (t *Table[B]) Evict(sessionID string) {
	delete(t.sessions, sessionID)
}

// AddShard registers a backend and joins it to the ring.
func (t *Table[B]) AddShard(shard string, b B) {
	t.backends[shard] = b
	t.ring.Add(shard)
}

// RemoveFromRing takes a shard off the ring while keeping its backend —
// the first half of a removal, so its sessions can still be exported.
func (t *Table[B]) RemoveFromRing(shard string) {
	t.ring.Remove(shard)
}

// DropShard forgets a shard entirely: backend and advertised endpoint.
// Clearing addrs here is what keeps PlacementInfo from ever
// reporting a departed shard's endpoint.
func (t *Table[B]) DropShard(shard string) {
	t.ring.Remove(shard)
	delete(t.backends, shard)
	delete(t.addrs, shard)
}

// SetAddr records a shard's RMI endpoint ("" clears it).
func (t *Table[B]) SetAddr(shard, addr string) {
	if addr == "" {
		delete(t.addrs, shard)
		return
	}
	t.addrs[shard] = addr
}

// AddRelay registers a read relay and joins it to the relay ring.
func (t *Table[B]) AddRelay(name, addr string) {
	t.relays[name] = addr
	t.relayRing.Add(name)
}

// RemoveRelay forgets a relay entirely.
func (t *Table[B]) RemoveRelay(name string) {
	delete(t.relays, name)
	t.relayRing.Remove(name)
}

// SetRelayAddr records a relay's advertised endpoint ("" clears it back
// to in-process). No-op for unregistered relays.
func (t *Table[B]) SetRelayAddr(name, addr string) {
	if _, ok := t.relays[name]; ok {
		t.relays[name] = addr
	}
}

// ------------------------------------------------------------ store

// Store publishes Tables RCU-style: Load is one atomic pointer read,
// Update serializes writers and swaps in an edited clone.
type Store[B any] struct {
	mu  sync.Mutex
	cur atomic.Pointer[Table[B]]
}

// NewStore creates a store holding an empty table (vnodes <= 0 selects
// the default virtual-node count).
func NewStore[B any](vnodes int) *Store[B] {
	s := &Store[B]{}
	s.cur.Store(newTable[B](vnodes))
	return s
}

// Load returns the current table. Never nil, never blocks.
func (s *Store[B]) Load() *Table[B] { return s.cur.Load() }

// Update clones the current table, applies edit to the clone, and
// publishes it iff edit returns true (false discards the clone without
// a generation bump — a recognized no-op). Returns the table readers
// see afterwards. Edits run under the store mutex, so they see every
// prior edit and may derive decisions from the clone's state.
func (s *Store[B]) Update(edit func(t *Table[B]) bool) *Table[B] {
	s.mu.Lock()
	defer s.mu.Unlock()
	next := s.cur.Load().clone()
	if !edit(next) {
		return s.cur.Load()
	}
	s.cur.Store(next)
	return next
}
