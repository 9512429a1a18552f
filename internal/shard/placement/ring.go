package placement

import (
	"hash/fnv"
	"sort"
	"strconv"
)

// defaultVnodes is the virtual-node count per shard. 64 points per
// shard keeps the expected load imbalance across shards in the few-
// percent range without making ring edits noticeable.
const defaultVnodes = 64

type ringPoint struct {
	hash  uint64
	shard string
}

// Ring is a consistent-hash ring with virtual nodes mapping session IDs
// to shard names. Adding or removing one shard moves only ~1/N of the
// key space. A Ring held by a published Table is immutable — writers
// Clone before editing, which is what makes lock-free Owner lookups
// safe.
type Ring struct {
	vnodes int
	points []ringPoint // sorted by hash
	shards map[string]struct{}
}

// NewRing creates an empty ring (vnodes <= 0 selects the default).
func NewRing(vnodes int) *Ring {
	if vnodes <= 0 {
		vnodes = defaultVnodes
	}
	return &Ring{vnodes: vnodes, shards: make(map[string]struct{})}
}

// Clone returns an independently editable copy.
func (r *Ring) Clone() *Ring {
	cp := &Ring{
		vnodes: r.vnodes,
		points: append([]ringPoint(nil), r.points...),
		shards: make(map[string]struct{}, len(r.shards)),
	}
	for s := range r.shards {
		cp.shards[s] = struct{}{}
	}
	return cp
}

func hashKey(parts ...string) uint64 {
	h := fnv.New64a()
	for _, p := range parts {
		h.Write([]byte(p))
		h.Write([]byte{0})
	}
	// FNV avalanches poorly on short, similar keys (shard names differ in
	// one digit), which skews vnode spacing badly; a splitmix64 finalizer
	// decorrelates the ring positions.
	x := h.Sum64()
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Add inserts a shard's virtual nodes (no-op if already present).
func (r *Ring) Add(shard string) {
	if _, ok := r.shards[shard]; ok {
		return
	}
	r.shards[shard] = struct{}{}
	for i := 0; i < r.vnodes; i++ {
		r.points = append(r.points, ringPoint{hash: hashKey(shard, strconv.Itoa(i)), shard: shard})
	}
	sort.Slice(r.points, func(i, j int) bool { return r.points[i].hash < r.points[j].hash })
}

// Remove deletes a shard's virtual nodes (no-op if absent).
func (r *Ring) Remove(shard string) {
	if _, ok := r.shards[shard]; !ok {
		return
	}
	delete(r.shards, shard)
	kept := r.points[:0]
	for _, p := range r.points {
		if p.shard != shard {
			kept = append(kept, p)
		}
	}
	r.points = kept
}

// Owner maps a session ID to its home shard ("" on an empty ring): the
// first virtual node at or after the key's hash, wrapping around.
func (r *Ring) Owner(sessionID string) string {
	return r.OwnerFunc(sessionID, nil)
}

// OwnerFunc is Owner restricted to shards accepted by ok (nil accepts
// all): the first acceptable virtual node at or after the key's hash,
// wrapping. Replica placement uses it to skip the primary and the hops
// already taken.
func (r *Ring) OwnerFunc(sessionID string, ok func(shard string) bool) string {
	if len(r.points) == 0 {
		return ""
	}
	h := hashKey(sessionID)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	for n := 0; n < len(r.points); n++ {
		p := r.points[(i+n)%len(r.points)]
		if ok == nil || ok(p.shard) {
			return p.shard
		}
	}
	return ""
}

// Has reports ring membership.
func (r *Ring) Has(shard string) bool {
	_, ok := r.shards[shard]
	return ok
}

// Shards lists the member shard names, sorted.
func (r *Ring) Shards() []string {
	out := make([]string, 0, len(r.shards))
	for s := range r.shards {
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}

// Size reports the member count.
func (r *Ring) Size() int { return len(r.shards) }
