// Command bench is the repository's end-to-end benchmark: it boots the
// real grid on loopback, drives it through public functions only, and
// reports user-visible metrics (untraced pass) or per-layer metrics
// (traced pass) for one of four workloads. See README.md.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"syscall"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	repeat   int
	tiny     bool
	baseDir  string
	spans    string
}

// runCtx is what one set-up + measure pass sees.
type runCtx struct {
	seed    int64
	seconds float64
	tiny    bool
	// dir is this pass's private scratch directory (grid BaseDir, WAL,
	// probe files); the caller removes it when the pass ends.
	dir string
	// tr is nil in the untraced pass.
	tr *tracer
}

// fixture is a workload after set-up: grid up, dataset published,
// reference computed, caches warm.
type fixture interface {
	// measure runs the timed section and the correctness checks.
	measure() (*outcome, error)
	// probes replays a sample of the workload's own inputs through
	// isolated single-layer instances (traced pass only).
	probes(out *outcome) error
	close()
}

// outcome is what one pass measured.
type outcome struct {
	attempted, failed int
	// problems lists correctness mismatches; empty means correct.
	problems []string
	e2e      map[string]float64
	layer    map[string]float64
}

func newOutcome() *outcome {
	return &outcome{e2e: map[string]float64{}, layer: map[string]float64{}}
}

// fail counts one failed user-level operation.
func (o *outcome) fail(format string, args ...any) {
	o.failed++
	fmt.Fprintf(os.Stderr, "bench: failed op: "+format+"\n", args...)
}

func (o *outcome) wrong(format string, args ...any) {
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

// put stores a metric unless the value is not a number (an empty
// sample), in which case the zero fill stands.
func put(m map[string]float64, name string, v float64) {
	if !math.IsNaN(v) && !math.IsInf(v, 0) {
		m[name] = v
	}
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the driver's contract: the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var opt options
	var trace int
	fs.StringVar(&opt.workload, "workload", "all", "workload name, or all")
	fs.Int64Var(&opt.seed, "seed", 1, "seed for every generated input")
	fs.Float64Var(&opt.seconds, "seconds", 10, "length of the timed section")
	fs.IntVar(&trace, "trace", 0, "1 = traced pass (per-layer metrics), 0 = untraced (end-to-end metrics)")
	fs.IntVar(&opt.repeat, "repeat", 1, "run N times with seeds seed..seed+N-1 and report the spread")
	fs.BoolVar(&opt.tiny, "tiny", false, "smoke-test sizes")
	fs.StringVar(&opt.baseDir, "basedir", ".bench_build", "directory for grid storage and WALs (e.g. /dev/shm)")
	fs.StringVar(&opt.spans, "spans", "", "span dump of the traced pass (default <basedir>/spans-<workload>.json)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	opt.trace = trace != 0
	if opt.seconds <= 0 || opt.repeat < 1 {
		fmt.Fprintln(stderr, "bench: -seconds and -repeat must be positive")
		return 2
	}
	var selected []workloadDef
	for _, w := range workloads {
		if opt.workload == "all" || opt.workload == w.Name {
			selected = append(selected, w)
		}
	}
	if len(selected) == 0 {
		fmt.Fprintf(stderr, "bench: unknown workload %q\n", opt.workload)
		return 2
	}
	if err := os.MkdirAll(opt.baseDir, 0o755); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	root, err := os.MkdirTemp(opt.baseDir, "run-*")
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	defer os.RemoveAll(root)
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigs)
	go func() {
		if _, ok := <-sigs; ok {
			os.RemoveAll(root)
			os.Exit(130)
		}
	}()

	start := time.Now()
	code := 0
	summary := summaryDoc{Env: environment(opt), Workloads: map[string]*workloadSummary{}}
	for _, w := range selected {
		ws := &workloadSummary{Why: w.Why, values: map[string][]float64{}}
		summary.Workloads[w.Name] = ws
		for rep := 0; rep < opt.repeat; rep++ {
			o := opt
			o.seed = opt.seed + int64(rep)
			res, err := runWorkload(w, o, root)
			if err != nil {
				fmt.Fprintf(stderr, "bench: %s: %v\n", w.Name, err)
				return 2
			}
			line, err := json.Marshal(res)
			if err != nil {
				fmt.Fprintf(stderr, "bench: %s: %v\n", w.Name, err)
				return 2
			}
			fmt.Fprintf(stdout, "%s\n", line)
			if !res.Correct {
				code = 1
			}
			ws.add(res)
		}
	}
	fmt.Fprintf(stderr, "bench: total wall time %.1fs\n", time.Since(start).Seconds())
	if opt.repeat > 1 || len(selected) > 1 {
		if !summary.finish(stderr, opt.trace) {
			code = 1
		}
		line, err := json.Marshal(summary)
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 2
		}
		fmt.Fprintf(stdout, "%s\n", line)
	}
	return code
}

// runWorkload produces one driver-format result: the end-to-end metrics
// from an untraced pass, or the per-layer metrics from a traced pass
// (preceded by a short untraced pass that prices the tracing).
func runWorkload(w workloadDef, opt options, root string) (*result, error) {
	if !opt.trace {
		out, err := pass(w, opt, root, nil, opt.seconds, w.setupReps)
		if err != nil {
			return nil, err
		}
		return out.result(endToEnd, out.e2e)
	}
	plain, err := pass(w, opt, root, nil, opt.seconds/2, 1)
	if err != nil {
		return nil, err
	}
	tr := newTracer()
	out, err := pass(w, opt, root, tr, opt.seconds/2, 1)
	if err != nil {
		return nil, err
	}
	put(out.layer, "trace.overhead_ratio", out.e2e["response_p50_ms"]/plain.e2e["response_p50_ms"])
	out.attempted += plain.attempted
	out.failed += plain.failed
	out.problems = append(out.problems, plain.problems...)
	spans := opt.spans
	if spans == "" {
		spans = filepath.Join(opt.baseDir, "spans-"+w.Name+".json")
	}
	if err := tr.dump(spans, w.Name); err != nil {
		return nil, fmt.Errorf("writing spans: %w", err)
	}
	return out.result(perLayer, out.layer)
}

// pass sets the workload up reps times (timing each), measures on the
// last set-up, and tears everything down.
func pass(w workloadDef, opt options, root string, tr *tracer, seconds float64, reps int) (*outcome, error) {
	var setups []float64
	for i := 0; i < reps; i++ {
		last := i == reps-1
		out, err := func() (*outcome, error) {
			dir, err := os.MkdirTemp(root, w.Name+"-*")
			if err != nil {
				return nil, err
			}
			defer os.RemoveAll(dir)
			rc := &runCtx{seed: opt.seed, seconds: seconds, tiny: opt.tiny, dir: dir}
			if last {
				rc.tr = tr
			}
			t0 := time.Now()
			fx, err := w.setup(rc)
			if err != nil {
				return nil, fmt.Errorf("set-up: %w", err)
			}
			defer fx.close()
			setups = append(setups, time.Since(t0).Seconds())
			if !last {
				return nil, nil
			}
			out, err := fx.measure()
			if err == nil && tr != nil {
				err = fx.probes(out)
			}
			return out, err
		}()
		if err != nil {
			return nil, err
		}
		if last {
			out.e2e["setup_s"] = median(setups)
			return out, nil
		}
	}
	return nil, errors.New("no passes")
}

// result renders the outcome against a metric list: every listed metric
// appears once; a per-layer metric the workload never touched reads 0,
// a missing end-to-end metric is a bug.
func (o *outcome) result(defs []metricDef, values map[string]float64) (*result, error) {
	for _, p := range o.problems {
		fmt.Fprintln(os.Stderr, "bench: INCORRECT:", p)
	}
	res := &result{
		Correct: len(o.problems) == 0, Attempted: o.attempted, Failed: o.failed,
		Metrics: make(map[string]metricValue, len(defs)),
	}
	if res.Attempted < 1 {
		return nil, errors.New("no operations attempted")
	}
	for _, d := range defs {
		v, ok := values[d.Name]
		if !ok && d.Bound > 0 {
			return nil, fmt.Errorf("end-to-end metric %s was not measured", d.Name)
		}
		res.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	return res, nil
}

// summaryDoc is the document printed last in -repeat / all-workload
// mode, and the schema of baseline/BENCH_13.json.
type summaryDoc struct {
	Env map[string]any `json:"env"`
	// Claim is always null: the benchmark's own change claims no gain.
	Claim     *string                     `json:"claim"`
	Workloads map[string]*workloadSummary `json:"workloads"`
}

type workloadSummary struct {
	Why       string                    `json:"why"`
	Runs      int                       `json:"runs"`
	Correct   bool                      `json:"correct"`
	Attempted int                       `json:"attempted"`
	Failed    int                       `json:"failed"`
	Metrics   map[string]*metricSummary `json:"metrics"`

	values    map[string][]float64
	incorrect bool
}

type metricSummary struct {
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	// Spread is (Q3-Q1)/median, the driver's steadiness measure.
	Spread float64 `json:"spread"`
	Bound  float64 `json:"bound,omitempty"`
	N      int     `json:"n"`
}

func (ws *workloadSummary) add(res *result) {
	ws.Runs++
	ws.Attempted += res.Attempted
	ws.Failed += res.Failed
	ws.incorrect = ws.incorrect || !res.Correct
	for name, mv := range res.Metrics {
		ws.values[name] = append(ws.values[name], mv.Value)
	}
}

// finish computes the per-metric statistics, prints them, and reports
// whether every end-to-end spread (setup_s excepted, as in the driver)
// stayed within its bound.
func (s *summaryDoc) finish(w io.Writer, traced bool) bool {
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	ok := true
	names := make([]string, 0, len(s.Workloads))
	for name := range s.Workloads {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		ws := s.Workloads[name]
		ws.Correct = !ws.incorrect
		ws.Metrics = map[string]*metricSummary{}
		fmt.Fprintf(w, "%s (%d runs, %d/%d ops failed)\n", name, ws.Runs, ws.Failed, ws.Attempted)
		for _, d := range defs {
			vals := ws.values[d.Name]
			q1, q2, q3 := quartiles(vals)
			ms := &metricSummary{Unit: d.Unit, Better: d.Better, Median: q2, Q1: q1, Q3: q3, Bound: d.Bound, N: len(vals)}
			if q2 != 0 {
				ms.Spread = (q3 - q1) / math.Abs(q2)
			}
			ws.Metrics[d.Name] = ms
			flag := ""
			if d.Bound > 0 && d.Name != "setup_s" && len(vals) > 1 && ms.Spread > d.Bound {
				flag = "  SPREAD EXCEEDS BOUND"
				ok = false
			}
			fmt.Fprintf(w, "  %-40s %14.6g %-6s q1 %-12.6g q3 %-12.6g spread %.3f%s\n",
				d.Name, q2, d.Unit, q1, q3, ms.Spread, flag)
		}
	}
	return ok
}

// quartiles matches Python's statistics.quantiles(values, n=4) (the
// exclusive method), which is what the driver computes spreads with.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	n := len(xs)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return xs[0], xs[0], xs[0]
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		j = max(1, min(j, n-1))
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(2), at(3)
}

func environment(opt options) map[string]any {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	abs, err := filepath.Abs(opt.baseDir)
	if err != nil {
		abs = opt.baseDir
	}
	return map[string]any{
		"go_version": runtime.Version(),
		"num_cpu":    runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"base_fs":    abs,
		"seed":       opt.seed,
		"seconds":    opt.seconds,
		"repeat":     opt.repeat,
		"tiny":       opt.tiny,
		"traced":     opt.trace,
		"commit":     commit,
	}
}
