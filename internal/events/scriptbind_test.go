package events

import (
	"math"
	"strings"
	"sync/atomic"
	"testing"

	"github.com/ipa-grid/ipa/internal/aida"
	"github.com/ipa-grid/ipa/internal/analysis"
	"github.com/ipa-grid/ipa/internal/script"
)

// same reports whether got is exactly the number (bit for bit) or the
// boolean want.
func same(got script.Value, want any) bool {
	switch w := want.(type) {
	case float64:
		g, ok := got.(float64)
		return ok && math.Float64bits(g) == math.Float64bits(w)
	default:
		return got == want
	}
}

// The struct-backed views hold exactly what the map-backed objects they
// replaced held: every member, through Member and through Get.
func TestEventViewMembers(t *testing.T) {
	g := NewGenerator(GenConfig{Seed: 3})
	decode, ok := script.LookupDecoder(EventDecoderName)
	if !ok {
		t.Fatal("lc-event decoder not registered")
	}
	for i := 0; i < 50; i++ {
		e := g.Next()
		v, err := decode(Marshal(nil, e))
		if err != nil {
			t.Fatal(err)
		}
		check := func(o script.Value, want map[string]any) {
			t.Helper()
			obj := o.(script.Getter)
			for name, w := range want {
				if m, ok := obj.Member(name); !ok || !same(m, w) {
					t.Fatalf("%s.%s = %v (%v), want %v", obj.TypeName(), name, m, ok, w)
				}
				if u, ok := obj.Get(name); !ok || !same(u.Value(), w) {
					t.Fatalf("%s Get(%s) = %v (%v), want %v", obj.TypeName(), name, u.Value(), ok, w)
				}
			}
			if _, ok := obj.Member("nosuch"); ok {
				t.Fatalf("%s has a member nosuch", obj.TypeName())
			}
		}
		check(v, map[string]any{
			"number": float64(e.Number), "run": float64(e.Run),
			"signal": e.IsSignal, "n": float64(len(e.Particles)),
		})
		if v.(script.HostObject).TypeName() != "event" {
			t.Fatal("event view has the wrong type name")
		}
		parts, _ := v.(script.HostObject).Member("particles")
		arr, ok := parts.(*script.Array)
		if !ok || len(arr.Elems) != len(e.Particles) {
			t.Fatalf("particles = %v", parts)
		}
		for j, p := range e.Particles {
			vec := p.Vec()
			check(arr.Elems[j], map[string]any{
				"id": float64(p.ID), "charge": float64(p.Charge),
				"px": vec.Px, "py": vec.Py, "pz": vec.Pz, "e": vec.E,
				"pt": vec.Pt(), "p": vec.P(), "mass": vec.Mass(), "cost": vec.CosTheta(),
			})
			if arr.Elems[j].(script.HostObject).TypeName() != "particle" {
				t.Fatal("particle view has the wrong type name")
			}
		}
	}
}

// runScript feeds recs to src as an lc-event analysis and returns what it
// printed and the first error.
func runScript(t *testing.T, src string, recs [][]byte) (string, error) {
	t.Helper()
	a, err := script.NewAnalysis(src, EventDecoderName)
	if err != nil {
		t.Fatal(err)
	}
	ctx := &analysis.Context{Tree: aida.NewTree()}
	err = a.Init(ctx)
	for i := 0; err == nil && i < len(recs); i++ {
		err = a.Process(recs[i], ctx)
	}
	if err == nil {
		err = a.End(ctx)
	}
	return a.Output(), err
}

func TestEventBindingErrors(t *testing.T) {
	rec := Marshal(nil, &Event{Number: 1, Particles: []Particle{{ID: IDPhoton, E: 10}, {ID: IDPhoton, E: 20}}})
	for src, want := range map[string]string{
		`function process(ev) { ev.nosuch; }`:                                                          `script:1:26: event has no member "nosuch"`,
		`function process(ev) { ev.particles[0].spin; }`:                                               `script:1:39: particle has no member "spin"`,
		`function process(ev) { ev.n = 3; }`:                                                           `script:1:26: cannot set member "n" on event`,
		`function process(ev) { pairMass(ev.particles[0]); }`:                                          `script:0:0: pairMass expects (particle, particle)`,
		`function process(ev) { pairMass(ev.particles[0], ev); }`:                                      `script:0:0: pairMass: argument is not a particle`,
		`function process(ev) { pairMass(1, ev.particles[0]); }`:                                       `script:0:0: pairMass: argument is not a particle`,
		`function process(ev) { ev.particles[2]; }`:                                                    `script:1:36: array index 2 out of range [0,2)`,
		`function process(ev) { println(pairMass(ev.particles[0], ev.particles[1])); error("stop"); }`: `script:1:82: stop`,
	} {
		out, err := runScript(t, src, [][]byte{rec})
		if err == nil || !strings.HasSuffix(err.Error(), want) {
			t.Errorf("%s\n got  %v\n want … %s", src, err, want)
		}
		if out != "" && !strings.HasPrefix(out, "30") {
			t.Errorf("%s printed %q", src, out)
		}
	}
}

// A view may be kept: every record decodes into storage of its own, so a
// particle stashed during one event still reads its own energy a hundred
// events later.
func TestEventViewsMayBeRetained(t *testing.T) {
	recs := make([][]byte, 100)
	for i := range recs {
		recs[i] = Marshal(nil, &Event{Number: int64(i), Particles: []Particle{{ID: IDPhoton, E: float32(i + 1)}}})
	}
	out, err := runScript(t, `
		kept = []; evs = [];
		function process(ev) { push(kept, ev.particles[0]); push(evs, ev); }
		function end() {
			seen = {}; sum = 0; numbers = 0;
			for (p : kept) { seen[str(p.e)] = true; sum += p.e; }
			for (ev : evs) numbers += ev.number;
			println(len(kept), len(seen), sum, numbers);
		}
	`, recs)
	if err != nil {
		t.Fatal(err)
	}
	if out != "100 100 5050 4950\n" {
		t.Fatalf("retained views read %q, want 100 distinct energies summing to 5050", out)
	}
}

// BenchmarkEventViewDecode measures the lc-event script decoder: a record
// to the event object a script's process(ev) receives.
func BenchmarkEventViewDecode(b *testing.B) {
	recs := genRecords(3, 1000)
	decode, ok := script.LookupDecoder(EventDecoderName)
	if !ok {
		b.Fatal("no lc-event decoder")
	}
	b.SetBytes(avgSize(recs))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev, err := decode(recs[i%len(recs)])
		if err != nil {
			b.Fatal(err)
		}
		benchView = ev
	}
}

// benchView keeps BenchmarkEventViewDecode's result alive.
var benchView script.Value

// benchScript is the script the benchmark's script_rerun workload runs
// (bench/session.go, scriptVariant(0)).
const benchScript = `
mult = tree.h1d("/anaA", "mult", "Particles per event", 50, 0, 200);
evis = tree.h1d("/anaA", "evis", "Visible energy [GeV]", 50, 0, 600);
esel = tree.h1d("/anaA", "esel", "Selected object energy [GeV]", 50, 0, 300);
nsel = tree.h1d("/anaA", "nsel", "Selected objects per event", 40, 0, 40);
function process(ev) {
	mult.fill(ev.n);
	tot = 0; n = 0;
	for (p : ev.particles) {
		tot += p.e;
		if (p.e >= 20) { n += 1; esel.fill(p.e); }
	}
	evis.fill(tot);
	nsel.fill(n);
}
`

// BenchmarkScriptAnalysis measures a scripted analysis per event: the
// benchmark's own script through Analysis.Process, decode included. A
// warmed step must not allocate.
func BenchmarkScriptAnalysis(b *testing.B) {
	recs := genRecords(3, 1000)
	a, err := script.NewAnalysis(benchScript, EventDecoderName)
	if err != nil {
		b.Fatal(err)
	}
	ctx := &analysis.Context{Tree: aida.NewTree()}
	if err := a.Init(ctx); err != nil {
		b.Fatal(err)
	}
	step := func(i int) {
		if err := a.Process(recs[i%len(recs)], ctx); err != nil {
			b.Fatal(err)
		}
	}
	for i := range recs {
		step(i)
	}
	i := 0
	if n := testing.AllocsPerRun(100, func() { step(i); i++ }); n != 0 {
		b.Fatalf("a warmed step allocates %v times", n)
	}
	b.SetBytes(avgSize(recs))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step(i)
	}
}

// decodes counts the records the "lc-event-counted" decoder decoded: a
// script that borrows its view decodes one and refills it from then on.
var decodes atomic.Int64

func init() {
	script.RegisterDecoder("lc-event-counted", func(rec []byte) (script.Value, error) {
		decodes.Add(1)
		v, err := newEventView(rec)
		if err != nil {
			return nil, err
		}
		return v, nil
	})
}

// Every way a view can outlive its event, each caught at event 100 and
// checked at end(), against what fresh views give. These are also seeds
// of script's FuzzCompiledMatchesTreeWalker, whose tree-walker always
// decodes afresh.
var escapingScripts = map[string]string{
	"global store through a for-each variable": `
		q = nil; e0 = 0; n = 0;
		function process(ev) {
			n += 1;
			if (n == 100) for (q : ev.particles) { e0 = q.e; break; }
		}
		function end() { println(q.e == e0); }`,
	"for-each variable named like a builtin": `
		e0 = 0; n = 0;
		function process(ev) {
			n += 1;
			if (n == 100) for (len : ev.particles) { e0 = len.e; break; }
		}
		function end() { println(len.e == e0); }`,
	"process defined inside another function": `
		process = nil; peek = nil;
		function setup() {
			q = nil; e0 = 0; n = 0;
			process = function(ev) {
				n += 1;
				if (n == 100) for (q : ev.particles) { e0 = q.e; break; }
			};
			peek = function() { return q.e == e0; };
		}
		setup();
		function end() { println(peek()); }`,
	"process rebinding itself": `
		n = 0; kept = nil; e0 = 0;
		function keeper(ev) { n += 1; if (n == 100) { kept = ev; e0 = ev.number; } }
		function process(ev) { n += 1; process = keeper; }
		function end() { println(kept.number == e0); }`,
	"push of a member's element": `
		kept = []; e0 = 0; n = 0;
		function process(ev) {
			n += 1;
			if (n == 100) { push(kept, ev.particles[0]); e0 = ev.particles[0].e; }
		}
		function end() { println(kept[0].e == e0); }`,
	"a view passed to a script function": `
		kept = nil; e0 = 0; n = 0;
		function keep(p) { kept = p; }
		function process(ev) {
			n += 1;
			if (n == 100) for (p : ev.particles) { keep(p); e0 = p.e; break; }
		}
		function end() { println(kept.e == e0); }`,
	"an array literal": `
		kept = nil; e0 = 0; n = 0;
		function process(ev) {
			n += 1;
			if (n == 100) for (p : ev.particles) { kept = [p]; e0 = p.e; break; }
		}
		function end() { println(kept[0].e == e0); }`,
	"return p": `
		kept = nil; e0 = 0; n = 0;
		function first(ev) { for (p : ev.particles) return p; }
		function process(ev) { n += 1; if (n == 100) { kept = first(ev); e0 = kept.e; } }
		function end() { println(kept.e == e0); }`,
	"a member stored whole": `
		a = nil; e0 = 0; n = 0;
		function process(ev) {
			n += 1;
			if (n == 100) { a = ev.particles; for (p : a) { e0 = p.e; break; } }
		}
		function end() { for (p : a) { println(p.e == e0); break; } }`,
	"TestEventViewsMayBeRetained's script": `
		kept = []; evs = [];
		function process(ev) { push(kept, ev.particles[0]); push(evs, ev); }
		function end() {
			seen = {}; sum = 0; numbers = 0;
			for (p : kept) { seen[str(p.e)] = true; sum += p.e; }
			for (ev : evs) numbers += ev.number;
			println(len(kept), len(seen), sum, numbers);
		}`,
}

// countedRun runs src over recs with the counting decoder and returns
// what it printed and how many records it decoded.
func countedRun(t *testing.T, src string, recs [][]byte) (string, int64) {
	t.Helper()
	a, err := script.NewAnalysis(src, "lc-event-counted")
	if err != nil {
		t.Fatal(err)
	}
	ctx := &analysis.Context{Tree: aida.NewTree()}
	decodes.Store(0)
	err = a.Init(ctx)
	for i := 0; err == nil && i < len(recs); i++ {
		err = a.Process(recs[i], ctx)
	}
	if err == nil {
		err = a.End(ctx)
	}
	if err != nil {
		t.Fatal(err)
	}
	return a.Output(), decodes.Load()
}

// A script whose views can outlive their event gets a fresh view for
// every record and reads, at end(), what it kept.
func TestEscapingViewsAreFresh(t *testing.T) {
	recs := genRecords(7, 200)
	for name, src := range escapingScripts {
		out, n := countedRun(t, src, recs)
		if n != int64(len(recs)) {
			t.Errorf("%s: %d of %d records decoded afresh", name, n, len(recs))
		}
		if strings.HasPrefix(name, "TestEventViewsMayBeRetained") {
			continue // what it prints depends on the records
		}
		if out != "true\n" {
			t.Errorf("%s: printed %q, want true", name, out)
		}
	}
}

// The benchmark's script keeps nothing, so it reads every record through
// one refilled view and a warmed Process allocates nothing.
func TestBenchScriptBorrowsItsView(t *testing.T) {
	recs := genRecords(3, 300)
	if _, n := countedRun(t, benchScript, recs); n != 1 {
		t.Fatalf("%d of %d records decoded afresh, want only the first", n, len(recs))
	}
	a, err := script.NewAnalysis(benchScript, EventDecoderName)
	if err != nil {
		t.Fatal(err)
	}
	ctx := &analysis.Context{Tree: aida.NewTree()}
	if err := a.Init(ctx); err != nil {
		t.Fatal(err)
	}
	for _, rec := range recs {
		if err := a.Process(rec, ctx); err != nil {
			t.Fatal(err)
		}
	}
	i := 0
	if n := testing.AllocsPerRun(200, func() {
		if err := a.Process(recs[i%len(recs)], ctx); err != nil {
			t.Fatal(err)
		}
		i++
	}); n != 0 {
		t.Fatalf("Process allocates %v times per event, want 0", n)
	}
}
