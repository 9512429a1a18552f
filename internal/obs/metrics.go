// Package obs is the fabric's telemetry substrate: a lock-free metrics
// core (atomic counters, gauges, and fixed-bucket histograms in a
// sync.Map registry with bounded per-family label cardinality), a
// wire-propagable trace context, and a bounded in-memory ring of spans
// and structured fabric events. Everything records through atomics —
// the same zero-contention discipline as the merge fabric's hot paths —
// and the whole package can be switched off (SetDisabled) as the A14
// ablation baseline: a disabled recorder skips even the time.Now()
// reads, so instrumentation overhead can be measured against a true
// zero.
//
// Metric names follow the Prometheus convention under the ipa_*
// namespace; WritePrometheus / Handler expose the registry in
// Prometheus text format.
package obs

import (
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// disabled gates every recording call. Default off (recording on).
var disabled atomic.Bool

// SetDisabled switches all recording off (true) or on (false) — the
// ablation switch A14 measures against. Registration still works while
// disabled; only the hot-path record calls become no-ops.
func SetDisabled(v bool) { disabled.Store(v) }

// Disabled reports whether recording is switched off.
func Disabled() bool { return disabled.Load() }

// Now is time.Now gated on the ablation switch: it returns the zero
// time when recording is disabled, and every ObserveSince on a zero
// start is a no-op — so a disabled fabric pays neither the clock read
// nor the histogram update.
func Now() time.Time {
	if disabled.Load() {
		return time.Time{}
	}
	return time.Now()
}

// MaxSeriesPerFamily bounds label cardinality: once a metric family
// holds this many labeled series, further label combinations fold into
// a single overflow series (labels {overflow="true"}) instead of
// growing the registry without bound.
const MaxSeriesPerFamily = 64

// overflowSig is the registry signature of a family's fold-over series.
const overflowSig = "overflow\xfftrue"

// series is one (family, label-set) time series.
type series struct {
	sig string // "k\xffv\xffk\xffv" (registry key, sorted render order)
	m   any    // *Counter | *Gauge | *Histogram
}

// family is one named metric family: fixed kind and help, a bounded set
// of labeled series. Series creation takes mu (cold path, once per
// label set); recording is pure atomics on the returned metric.
type family struct {
	name, help, kind string
	buckets          []float64      // histograms only
	fn               func() float64 // func-backed families only
	mu               sync.Mutex
	n                int
	series           sync.Map // sig → *series
}

// families is the global registry, name → *family.
var families sync.Map

// ResetForTest clears the whole registry (and re-enables recording) so
// exposition tests start from a known-empty state. Pointers obtained
// before the reset keep working but are no longer exported.
func ResetForTest() {
	families.Range(func(k, _ any) bool {
		families.Delete(k)
		return true
	})
	disabled.Store(false)
}

// getFamily returns the named family, creating it with the given shape
// on first use. Shape mismatches keep the first registration (metrics
// are programmer-named constants; disagreeing call sites are a bug the
// exposition makes visible, not a runtime error).
func getFamily(name, help, kind string, buckets []float64) *family {
	if f, ok := families.Load(name); ok {
		return f.(*family)
	}
	f, _ := families.LoadOrStore(name, &family{name: name, help: help, kind: kind, buckets: buckets})
	return f.(*family)
}

// sigOf builds the registry signature from alternating key,value label
// pairs (a trailing odd key is dropped). Pairs are sorted by key so
// call sites may list labels in any order.
func sigOf(labels []string) string {
	n := len(labels) / 2
	if n == 0 {
		return ""
	}
	type kv struct{ k, v string }
	kvs := make([]kv, n)
	for i := 0; i < n; i++ {
		kvs[i] = kv{labels[2*i], labels[2*i+1]}
	}
	sort.Slice(kvs, func(i, j int) bool { return kvs[i].k < kvs[j].k })
	var b strings.Builder
	for i, p := range kvs {
		if i > 0 {
			b.WriteByte('\xff')
		}
		b.WriteString(p.k)
		b.WriteByte('\xff')
		b.WriteString(p.v)
	}
	return b.String()
}

// get returns the family's series for the label set, creating it (or
// folding into the overflow series at the cardinality cap) on first
// use. make builds the metric value for a fresh series.
func (f *family) get(labels []string, make func() any) any {
	sig := sigOf(labels)
	if s, ok := f.series.Load(sig); ok {
		return s.(*series).m
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if s, ok := f.series.Load(sig); ok {
		return s.(*series).m
	}
	if sig != "" && f.n >= MaxSeriesPerFamily {
		// At the cap: fold this label set into the overflow series.
		if s, ok := f.series.Load(overflowSig); ok {
			return s.(*series).m
		}
		sig = overflowSig
	}
	s := &series{sig: sig, m: make()}
	f.series.Store(sig, s)
	f.n++
	return s.m
}

// Counter is a monotonically increasing atomic counter.
type Counter struct{ v atomic.Int64 }

// Inc adds one (no-op while disabled).
func (c *Counter) Inc() {
	if !disabled.Load() {
		c.v.Add(1)
	}
}

// Add adds n (no-op while disabled).
func (c *Counter) Add(n int64) {
	if !disabled.Load() {
		c.v.Add(n)
	}
}

// Value reads the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is an atomic instantaneous value (queue depth, backlog size).
type Gauge struct{ v atomic.Int64 }

// Set stores v (no-op while disabled).
func (g *Gauge) Set(v int64) {
	if !disabled.Load() {
		g.v.Store(v)
	}
}

// Add moves the gauge by n, negative to decrease (no-op while
// disabled).
func (g *Gauge) Add(n int64) {
	if !disabled.Load() {
		g.v.Add(n)
	}
}

// Value reads the gauge.
func (g *Gauge) Value() int64 { return g.v.Load() }

// DefBuckets are the default latency buckets (seconds): 1µs → 2.5s in
// a 1-2.5-5 decade ladder, covering everything from an in-process map
// hit to a WAN round trip.
var DefBuckets = []float64{
	1e-6, 2.5e-6, 5e-6, 1e-5, 2.5e-5, 5e-5, 1e-4, 2.5e-4, 5e-4,
	1e-3, 2.5e-3, 5e-3, 1e-2, 2.5e-2, 5e-2, 0.1, 0.25, 0.5, 1, 2.5,
}

// sumScale is the fixed-point scale of Histogram.sum: 1e-9 units keep
// the sum an atomic int64 (nanoseconds when observing seconds) so
// Observe never takes a lock.
const sumScale = 1e9

// Histogram is a fixed-bucket atomic histogram. bounds are inclusive
// upper bounds; counts has one extra slot for +Inf.
type Histogram struct {
	bounds []float64
	counts []atomic.Int64
	count  atomic.Int64
	sum    atomic.Int64 // fixed-point, sumScale units
}

func newHistogram(bounds []float64) *Histogram {
	return &Histogram{bounds: bounds, counts: make([]atomic.Int64, len(bounds)+1)}
}

// Observe records one value (no-op while disabled).
func (h *Histogram) Observe(v float64) {
	if disabled.Load() {
		return
	}
	// Linear scan: bucket counts are small and fixed, and latencies
	// cluster in the low buckets, so this beats binary search in
	// practice and stays branch-predictable.
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.count.Add(1)
	h.sum.Add(int64(v * sumScale))
}

// ObserveSince records the seconds elapsed since t0; a zero t0 (a
// disabled Now) is a no-op, so the pair `t0 := obs.Now(); defer
// h.ObserveSince(t0)` costs nothing when recording is off.
func (h *Histogram) ObserveSince(t0 time.Time) {
	if t0.IsZero() {
		return
	}
	h.Observe(time.Since(t0).Seconds())
}

// Snapshot returns the cumulative bucket counts (per bound, then +Inf),
// the total count, and the sum.
func (h *Histogram) Snapshot() (buckets []int64, count int64, sum float64) {
	buckets = make([]int64, len(h.counts))
	for i := range h.counts {
		buckets[i] = h.counts[i].Load()
	}
	return buckets, h.count.Load(), float64(h.sum.Load()) / sumScale
}

// GetCounter returns (creating on first use) the counter series for
// name and the alternating key,value label pairs. Call sites should
// cache the pointer; lookup is a sync.Map load plus a signature build.
func GetCounter(name, help string, labels ...string) *Counter {
	f := getFamily(name, help, "counter", nil)
	return f.get(labels, func() any { return &Counter{} }).(*Counter)
}

// GetGauge returns (creating on first use) the gauge series for name
// and labels.
func GetGauge(name, help string, labels ...string) *Gauge {
	f := getFamily(name, help, "gauge", nil)
	return f.get(labels, func() any { return &Gauge{} }).(*Gauge)
}

// GetHistogram returns (creating on first use) the histogram series for
// name and labels. buckets applies on family creation (nil =
// DefBuckets); later calls inherit the family's buckets.
func GetHistogram(name, help string, buckets []float64, labels ...string) *Histogram {
	if buckets == nil {
		buckets = DefBuckets
	}
	f := getFamily(name, help, "histogram", buckets)
	return f.get(labels, func() any { return newHistogram(f.buckets) }).(*Histogram)
}

// RegisterFunc registers (or replaces) a callback-backed family: the
// value is computed at exposition time, so counters a subsystem already
// keeps (router handoffs, mirrored publishes) can be exported without
// double bookkeeping. kind is "counter" or "gauge".
func RegisterFunc(name, help, kind string, fn func() float64) {
	families.Store(name, &family{name: name, help: help, kind: kind, fn: fn})
}

// Unregister removes a family (used when a func-backed family's owner
// shuts down).
func Unregister(name string) { families.Delete(name) }
