package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"

	"github.com/ipa-grid/ipa/internal/aida"
)

// benchmarkJSON is the driver's description of the benchmark at the
// repository root.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return b
}

// TestCatalogMatchesBenchmarkJSON keeps the program's metric lists and
// the driver's description of them identical, and inside the contract's
// limits.
func TestCatalogMatchesBenchmarkJSON(t *testing.T) {
	b := loadBenchmarkJSON(t)
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	if n := len(b.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	if n := len(b.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(b.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	if b.RunSeconds < 1 || b.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", b.RunSeconds)
	}
	seen := map[string]bool{}
	check := func(name, unit, better string) {
		if !nameRE.MatchString(name) {
			t.Errorf("metric name %q is outside the contract", name)
		}
		if unit != "" && !unitRE.MatchString(unit) {
			t.Errorf("%s: unit %q is outside the contract", name, unit)
		}
		if better != "" && better != "lower" && better != "higher" {
			t.Errorf("%s: better = %q", name, better)
		}
		if seen[name] {
			t.Errorf("name %q is used twice", name)
		}
		seen[name] = true
	}

	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		check(w.Name, "", "")
		if b.Workloads[i].Name != w.Name || b.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json %+v, program {%s %s}", i, b.Workloads[i], w.Name, w.Why)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("%s: why must be one line of at most 200 characters", w.Name)
		}
	}
	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the program %d", len(b.EndToEnd), len(endToEnd))
	}
	hasSetup := false
	for i, d := range endToEnd {
		check(d.Name, d.Unit, d.Better)
		j := b.EndToEnd[i]
		if j.Name != d.Name || j.Unit != d.Unit || j.Better != d.Better || j.Bound != d.Bound {
			t.Errorf("end-to-end metric %d: BENCHMARK.json %+v, program %+v", i, j, d)
		}
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
		if d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower" {
			hasSetup = true
		}
	}
	if !hasSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	if len(b.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the program %d", len(b.PerLayer), len(perLayer))
	}
	for i, d := range perLayer {
		check(d.Name, d.Unit, d.Better)
		j := b.PerLayer[i]
		if j.Name != d.Name || j.Unit != d.Unit || j.Better != d.Better {
			t.Errorf("per-layer metric %d: BENCHMARK.json %+v, program %+v", i, j, d)
		}
		if d.Bound != 0 {
			t.Errorf("%s: per-layer metrics carry no bound", d.Name)
		}
	}
}

// runBench invokes the program as the driver does and parses the last
// line of its standard output.
func runBench(t *testing.T, workload string, trace string) result {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run([]string{
		"--workload", workload, "--seed", "1", "--seconds", "1", "--trace", trace,
		"--tiny", "--basedir", t.TempDir(),
	}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("%s --trace %s: exit code %d\n%s", workload, trace, code, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var raw map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &raw); err != nil {
		t.Fatalf("last line is not a JSON object: %v\n%s", err, lines[len(lines)-1])
	}
	if len(raw) != 4 {
		t.Errorf("result has %d keys, want exactly correct, attempted, failed, metrics", len(raw))
	}
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
		t.Errorf("%s --trace %s: correct=%v attempted=%d failed=%d\n%s",
			workload, trace, res.Correct, res.Attempted, res.Failed, stderr.String())
	}
	return res
}

// TestTinySmoke runs every workload at smoke size, untraced and traced,
// and checks that exactly the metrics BENCHMARK.json names come out,
// each with its unit and a finite value.
func TestTinySmoke(t *testing.T) {
	b := loadBenchmarkJSON(t)
	for _, w := range b.Workloads {
		t.Run(w.Name, func(t *testing.T) {
			e2e := runBench(t, w.Name, "0")
			if len(e2e.Metrics) != len(b.EndToEnd) {
				t.Errorf("%d end-to-end metrics emitted, want %d", len(e2e.Metrics), len(b.EndToEnd))
			}
			for _, d := range b.EndToEnd {
				m, ok := e2e.Metrics[d.Name]
				switch {
				case !ok:
					t.Errorf("end-to-end metric %s missing", d.Name)
				case m.Unit != d.Unit:
					t.Errorf("%s: unit %q, want %q", d.Name, m.Unit, d.Unit)
				case math.IsNaN(m.Value) || math.IsInf(m.Value, 0) || m.Value <= 0:
					t.Errorf("%s = %v, want a positive finite value", d.Name, m.Value)
				}
			}
			layers := runBench(t, w.Name, "1")
			if len(layers.Metrics) != len(b.PerLayer) {
				t.Errorf("%d per-layer metrics emitted, want %d", len(layers.Metrics), len(b.PerLayer))
			}
			nonzero := 0
			for _, d := range b.PerLayer {
				m, ok := layers.Metrics[d.Name]
				switch {
				case !ok:
					t.Errorf("per-layer metric %s missing", d.Name)
				case m.Unit != d.Unit:
					t.Errorf("%s: unit %q, want %q", d.Name, m.Unit, d.Unit)
				case math.IsNaN(m.Value) || math.IsInf(m.Value, 0) || m.Value < 0:
					t.Errorf("%s = %v, want a finite value", d.Name, m.Value)
				case m.Value > 0:
					nonzero++
				}
			}
			if nonzero < 20 {
				t.Errorf("only %d per-layer metrics are non-zero", nonzero)
			}
			for _, name := range []string{"budget.coverage_ratio", "trace.overhead_ratio", "proc.cpu_s"} {
				if layers.Metrics[name].Value <= 0 {
					t.Errorf("%s not reported", name)
				}
			}
		})
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct{ p, want float64 }{
		{0, 1}, {50, 3}, {100, 5}, {25, 2}, {90, 4.6}, {-5, 1}, {200, 5},
	} {
		if got := percentile(xs, c.p); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if !reflect.DeepEqual(xs, []float64{5, 1, 4, 2, 3}) {
		t.Error("percentile reordered its input")
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("percentile of nothing should be NaN")
	}
	if got := percentile([]float64{7}, 99); got != 7 {
		t.Errorf("percentile of one sample = %v", got)
	}
}

// TestQuartilesMatchPython pins quartiles to what Python's
// statistics.quantiles(values, n=4) returns, since the driver judges
// spreads with that.
func TestQuartilesMatchPython(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{10, 2, 4, 8, 6, 12, 14, 20, 16, 18})
	if q1 != 5.5 || q2 != 11 || q3 != 16.5 {
		t.Errorf("quartiles = %v %v %v, want 5.5 11 16.5", q1, q2, q3)
	}
	q1, q2, q3 = quartiles([]float64{1, 2, 3})
	if q1 != 1 || q2 != 2 || q3 != 3 {
		t.Errorf("quartiles of three = %v %v %v, want 1 2 3", q1, q2, q3)
	}
}

func TestSpanSelfTime(t *testing.T) {
	spans := []span{
		{Name: "send", StartNS: 0, EndNS: 100, Parent: -1},
		{Name: "build", StartNS: 10, EndNS: 40, Parent: 0},
		{Name: "encode", StartNS: 30, EndNS: 60, Parent: 0}, // overlaps build: counted once
		{Name: "late", StartNS: 90, EndNS: 130, Parent: 0},  // clipped to the parent
		{Name: "inner", StartNS: 15, EndNS: 20, Parent: 1},  // grandchild: only its parent pays
		{Name: "orphan", StartNS: 0, EndNS: 7, Parent: -1},
	}
	want := []int64{100 - 50 - 10, 30 - 5, 30, 40, 5, 7}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}

	var untraced *tracer
	id := untraced.open("x", "y", -1, 0, time.Now())
	untraced.close(id, time.Now())
	untraced.note("n", 1)
	if d, err := untraced.timed("x", "y", -1, 0, func() error { return nil }); err != nil || d < 0 {
		t.Errorf("untraced timed = %v, %v", d, err)
	}
	if id != -1 || untraced.durationsMS("x") != nil || untraced.notes("n") != nil {
		t.Error("a nil tracer must record nothing")
	}
}

func TestPoissonScheduleIsAFunctionOfTheSeed(t *testing.T) {
	a := poissonSchedule(7, 100, 2*time.Second)
	b := poissonSchedule(7, 100, 2*time.Second)
	c := poissonSchedule(8, 100, 2*time.Second)
	if !reflect.DeepEqual(a, b) {
		t.Error("same seed, different schedule")
	}
	if reflect.DeepEqual(a, c) {
		t.Error("different seeds, same schedule")
	}
	if len(a) < 120 || len(a) > 280 {
		t.Errorf("%d arrivals in 2 s at 100/s", len(a))
	}
	for i := range a {
		if a[i] >= 2*time.Second || (i > 0 && a[i] < a[i-1]) {
			t.Fatalf("arrival %d at %v is out of order or past the end", i, a[i])
		}
	}
}

// TestBrokenReferenceIsCaught: a result that differs from its reference
// in one bin, or by more than the tolerance in one sum, must be reported
// and must make the run incorrect.
func TestBrokenReferenceIsCaught(t *testing.T) {
	build := func(extra float64) flatTree {
		tree := aida.NewTree()
		h, err := tree.H1D("/d", "h", "t", 10, 0, 1)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 100; i++ {
			h.Fill(float64(i) / 100)
		}
		if extra != 0 {
			h.Fill(extra)
		}
		ft, err := flattenTree(tree)
		if err != nil {
			t.Fatal(err)
		}
		return ft
	}
	ref := build(0)
	if err := diffTrees(build(0), ref, 0); err != nil {
		t.Errorf("identical trees differ: %v", err)
	}
	if err := diffTrees(build(0.5), ref, 1e-9); err == nil {
		t.Error("an extra fill went unnoticed")
	}
	nudged := build(0)
	obj := nudged["/d/h"]
	obj.sums = append([]float64(nil), obj.sums...)
	obj.sums[1] *= 1 + 1e-6
	nudged["/d/h"] = obj
	if err := diffTrees(nudged, ref, 1e-9); err == nil {
		t.Error("a sum off by 1e-6 passed a 1e-9 tolerance")
	}
	if err := diffTrees(flatTree{}, ref, 0); err == nil {
		t.Error("a missing object went unnoticed")
	}

	out := newOutcome()
	out.attempted = 1
	out.wrong("reference mismatch")
	res, err := out.result(nil, nil)
	if err != nil || res.Correct {
		t.Errorf("an outcome with a mismatch must be incorrect (res %+v, err %v)", res, err)
	}
}
