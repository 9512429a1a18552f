package obs

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

// lockedHist is the mutex-guarded reference implementation the atomic
// histogram is checked against: same fixed bounds, same linear-scan
// bucketing, but serialized.
type lockedHist struct {
	mu     sync.Mutex
	bounds []float64
	counts []int64
	count  int64
	sum    int64 // sumScale fixed-point, matching Histogram
}

func newLockedHist(bounds []float64) *lockedHist {
	return &lockedHist{bounds: bounds, counts: make([]int64, len(bounds)+1)}
}

func (h *lockedHist) observe(v float64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i]++
	h.count++
	h.sum += int64(v * sumScale)
}

// TestConcurrentEquivalence drives the atomic counter, gauge, and
// histogram from many goroutines alongside locked references fed the
// identical operation stream, and requires identical end states.
func TestConcurrentEquivalence(t *testing.T) {
	ResetForTest()
	const goroutines, perG = 8, 5000

	c := GetCounter("t_eq_total", "equivalence counter")
	g := GetGauge("t_eq_gauge", "equivalence gauge")
	bounds := []float64{0.001, 0.01, 0.1, 1}
	h := GetHistogram("t_eq_seconds", "equivalence histogram", bounds)
	ref := newLockedHist(bounds)
	var refCounter, refGauge int64
	var refMu sync.Mutex

	var wg sync.WaitGroup
	for gi := 0; gi < goroutines; gi++ {
		gi := gi
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				c.Inc()
				g.Add(int64(gi%3 - 1))
				v := float64(i%2000) / 997 // spans every bucket incl. +Inf
				h.Observe(v)
				ref.observe(v)
				refMu.Lock()
				refCounter++
				refGauge += int64(gi%3 - 1)
				refMu.Unlock()
			}
		}()
	}
	wg.Wait()

	if got := c.Value(); got != refCounter {
		t.Errorf("counter = %d, locked reference = %d", got, refCounter)
	}
	if got := g.Value(); got != refGauge {
		t.Errorf("gauge = %d, locked reference = %d", got, refGauge)
	}
	buckets, count, sum := h.Snapshot()
	if count != ref.count {
		t.Errorf("histogram count = %d, reference = %d", count, ref.count)
	}
	for i := range buckets {
		if buckets[i] != ref.counts[i] {
			t.Errorf("bucket %d = %d, reference = %d", i, buckets[i], ref.counts[i])
		}
	}
	if refSum := float64(ref.sum) / sumScale; sum != refSum {
		t.Errorf("histogram sum = %v, reference = %v", sum, refSum)
	}
}

// TestCardinalityCap fills a family past MaxSeriesPerFamily and checks
// the excess folds into one overflow series instead of growing the
// registry.
func TestCardinalityCap(t *testing.T) {
	ResetForTest()
	const name = "t_cap_total"
	for i := 0; i < MaxSeriesPerFamily; i++ {
		GetCounter(name, "cap test", "k", fmt.Sprintf("v%03d", i)).Inc()
	}
	over1 := GetCounter(name, "cap test", "k", "spill-a")
	over2 := GetCounter(name, "cap test", "k", "spill-b")
	if over1 != over2 {
		t.Fatalf("series beyond the cap should share one overflow counter")
	}
	over1.Inc()
	over2.Inc()
	if got := over1.Value(); got != 2 {
		t.Errorf("overflow counter = %d, want 2", got)
	}
	var sb strings.Builder
	if err := WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, `t_cap_total{overflow="true"} 2`) {
		t.Errorf("exposition missing the overflow series:\n%s", out)
	}
	if n := strings.Count(out, "t_cap_total{"); n != MaxSeriesPerFamily+1 {
		t.Errorf("family exports %d series, want %d (cap + overflow)", n, MaxSeriesPerFamily+1)
	}
}

// TestPrometheusGolden checks the text exposition byte-for-byte:
// sorted families, sorted series, cumulative histogram buckets.
func TestPrometheusGolden(t *testing.T) {
	ResetForTest()
	GetCounter("t_requests_total", "Requests handled.", "method", "get").Add(3)
	GetCounter("t_requests_total", "Requests handled.", "method", "put").Inc()
	GetGauge("t_queue_depth", "Queue depth.").Set(7)
	h := GetHistogram("t_latency_seconds", "Latency.", []float64{0.1, 1}, "op", "poll")
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(2)
	RegisterFunc("t_func_gauge", "Func backed.", "gauge", func() float64 { return 4.5 })

	var sb strings.Builder
	if err := WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	want := `# HELP t_func_gauge Func backed.
# TYPE t_func_gauge gauge
t_func_gauge 4.5
# HELP t_latency_seconds Latency.
# TYPE t_latency_seconds histogram
t_latency_seconds_bucket{op="poll",le="0.1"} 1
t_latency_seconds_bucket{op="poll",le="1"} 2
t_latency_seconds_bucket{op="poll",le="+Inf"} 3
t_latency_seconds_sum{op="poll"} 2.55
t_latency_seconds_count{op="poll"} 3
# HELP t_queue_depth Queue depth.
# TYPE t_queue_depth gauge
t_queue_depth 7
# HELP t_requests_total Requests handled.
# TYPE t_requests_total counter
t_requests_total{method="get"} 3
t_requests_total{method="put"} 1
`
	if got := sb.String(); got != want {
		t.Errorf("exposition mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestDisabledAblation checks that the A14 switch turns every recording
// path into a no-op: counters, gauges, histograms, Now, traces, events.
func TestDisabledAblation(t *testing.T) {
	ResetForTest()
	defer SetDisabled(false)
	c := GetCounter("t_dis_total", "disabled counter")
	g := GetGauge("t_dis_gauge", "disabled gauge")
	h := GetHistogram("t_dis_seconds", "disabled histogram", nil)
	before := Events.NextSeq()

	SetDisabled(true)
	c.Inc()
	c.Add(10)
	g.Set(5)
	g.Add(5)
	h.Observe(1)
	if now := Now(); !now.IsZero() {
		t.Errorf("Now() while disabled = %v, want zero", now)
	}
	h.ObserveSince(Now())
	if tc := NewTrace(); tc.Valid() {
		t.Errorf("NewTrace while disabled = %v, want untraced", tc)
	}
	Emit(EventHandoff, "shard00", "s", 0, "nope")
	RecordSpan(TraceContext{TraceID: 1, SpanID: 2}, "x", time.Millisecond)

	if c.Value() != 0 || g.Value() != 0 {
		t.Errorf("disabled recording leaked: counter=%d gauge=%d", c.Value(), g.Value())
	}
	if _, count, _ := h.Snapshot(); count != 0 {
		t.Errorf("disabled histogram recorded %d observations", count)
	}
	if Events.NextSeq() != before {
		t.Errorf("disabled event ring advanced")
	}

	SetDisabled(false)
	c.Inc()
	if c.Value() != 1 {
		t.Errorf("re-enabled counter = %d, want 1", c.Value())
	}
}

// TestTraceContext covers minting and hop derivation.
func TestTraceContext(t *testing.T) {
	ResetForTest()
	tc := NewTrace()
	if !tc.Valid() || tc.Hop != 0 {
		t.Fatalf("NewTrace = %+v, want valid hop-0", tc)
	}
	next := tc.NextHop()
	if next.TraceID != tc.TraceID {
		t.Errorf("NextHop changed the trace ID: %x → %x", tc.TraceID, next.TraceID)
	}
	if next.SpanID == tc.SpanID {
		t.Errorf("NextHop kept the span ID")
	}
	if next.Hop != 1 {
		t.Errorf("NextHop hop = %d, want 1", next.Hop)
	}
	var zero TraceContext
	if z := zero.NextHop(); z.Valid() {
		t.Errorf("zero context NextHop = %+v, want zero", z)
	}
}

// TestRingWraparound checks bounded-ring semantics and Since resumption.
func TestRingWraparound(t *testing.T) {
	r := NewRing(4)
	for i := 0; i < 6; i++ {
		r.Add(Event{Kind: EventHandoff, Detail: fmt.Sprintf("e%d", i)})
	}
	if r.Len() != 4 {
		t.Fatalf("ring holds %d events, want 4", r.Len())
	}
	evs := r.Since(0, 0)
	if len(evs) != 4 || evs[0].Seq != 2 || evs[3].Seq != 5 {
		t.Fatalf("Since(0) = %+v, want seqs 2..5", evs)
	}
	if got := r.Since(5, 0); len(got) != 1 || got[0].Detail != "e5" {
		t.Fatalf("Since(5) = %+v, want just e5", got)
	}
	if r.NextSeq() != 6 {
		t.Errorf("NextSeq = %d, want 6", r.NextSeq())
	}
	if got := r.Since(r.NextSeq(), 0); len(got) != 0 {
		t.Errorf("Since(NextSeq) returned %d events, want none", len(got))
	}
}
