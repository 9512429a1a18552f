package events

import (
	"math"
	"strings"
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
