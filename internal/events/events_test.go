package events

import (
	"math"
	"math/rand"
	"path/filepath"
	"testing"
	"testing/quick"

	"github.com/ipa-grid/ipa/internal/aida"
	"github.com/ipa-grid/ipa/internal/analysis"
	"github.com/ipa-grid/ipa/internal/dataset"
)

func almost(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestFourVecMass(t *testing.T) {
	v := FourVec{3, 4, 0, 13}
	if !almost(v.Mass(), 12, 1e-12) {
		t.Fatalf("Mass = %v, want 12", v.Mass())
	}
	if !almost(v.P(), 5, 1e-12) {
		t.Fatalf("P = %v", v.P())
	}
	if !almost(v.Pt(), 5, 1e-12) {
		t.Fatalf("Pt = %v", v.Pt())
	}
	// Round-off protection: spacelike from float noise clamps to 0.
	s := FourVec{1, 0, 0, 0.999999}
	if s.Mass() != 0 {
		t.Fatal("spacelike mass not clamped")
	}
}

func TestBoostRoundTrip(t *testing.T) {
	// Boost to a random frame and back must restore the vector.
	v := FourVec{1, 2, 3, 10}
	bx, by, bz := 0.3, -0.2, 0.4
	w := v.Boost(bx, by, bz).Boost(-bx, -by, -bz)
	if !almost(w.Px, v.Px, 1e-9) || !almost(w.E, v.E, 1e-9) {
		t.Fatalf("boost round trip: %+v vs %+v", w, v)
	}
	// Mass is boost-invariant.
	if !almost(v.Boost(bx, by, bz).Mass(), v.Mass(), 1e-9) {
		t.Fatal("boost changed invariant mass")
	}
}

func TestMarshalRoundTrip(t *testing.T) {
	e := &Event{Number: 42, Run: 7, IsSignal: true, Particles: []Particle{
		{ID: IDBJet, Charge: 0, Px: 10, Py: -20, Pz: 30, E: 60},
		{ID: -IDPionPlus, Charge: -1, Px: 0.1, Py: 0.2, Pz: -0.3, E: 0.45},
	}}
	rec := Marshal(nil, e)
	if len(rec) != EncodedSize(2) {
		t.Fatalf("encoded %d bytes, want %d", len(rec), EncodedSize(2))
	}
	back, err := Unmarshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	if back.Number != 42 || back.Run != 7 || !back.IsSignal || len(back.Particles) != 2 {
		t.Fatalf("header mismatch: %+v", back)
	}
	if back.Particles[0] != e.Particles[0] || back.Particles[1] != e.Particles[1] {
		t.Fatal("particle mismatch")
	}
}

func TestUnmarshalRejectsCorrupt(t *testing.T) {
	e := &Event{Number: 1, Particles: make([]Particle, 3)}
	rec := Marshal(nil, e)
	if _, err := Unmarshal(rec[:len(rec)-1]); err == nil {
		t.Fatal("truncated record accepted")
	}
	if _, err := Unmarshal(rec[:5]); err == nil {
		t.Fatal("tiny record accepted")
	}
	// Absurd particle count.
	bad := append([]byte(nil), rec...)
	bad[13], bad[14], bad[15], bad[16] = 0xff, 0xff, 0xff, 0x7f
	if _, err := Unmarshal(bad); err == nil {
		t.Fatal("absurd count accepted")
	}
	// A signal byte other than 0 or 1 would not re-encode to itself.
	bad = append(bad[:0], rec...)
	bad[12] = 2
	if _, err := Unmarshal(bad); err == nil {
		t.Fatal("signal byte 2 accepted")
	}
}

func TestQuickMarshalRoundTrip(t *testing.T) {
	f := func(num int64, run int32, n uint8, seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		e := &Event{Number: num, Run: run, IsSignal: seed%2 == 0}
		for i := 0; i < int(n%50); i++ {
			e.Particles = append(e.Particles, Particle{
				ID:     int32(rng.Intn(1000) - 500),
				Charge: int8(rng.Intn(3) - 1),
				Px:     float32(rng.NormFloat64() * 50),
				Py:     float32(rng.NormFloat64() * 50),
				Pz:     float32(rng.NormFloat64() * 50),
				E:      float32(rng.Float64() * 250),
			})
		}
		rec := Marshal(nil, e)
		back, err := Unmarshal(rec)
		if err != nil || back.Number != e.Number || back.Run != e.Run ||
			back.IsSignal != e.IsSignal || len(back.Particles) != len(e.Particles) {
			return false
		}
		for i := range e.Particles {
			if back.Particles[i] != e.Particles[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestGeneratorDeterminism(t *testing.T) {
	g1 := NewGenerator(GenConfig{Seed: 99})
	g2 := NewGenerator(GenConfig{Seed: 99})
	for i := 0; i < 50; i++ {
		a, b := g1.Next(), g2.Next()
		if a.Number != b.Number || len(a.Particles) != len(b.Particles) {
			t.Fatal("same seed diverged")
		}
		for j := range a.Particles {
			if a.Particles[j] != b.Particles[j] {
				t.Fatal("same seed diverged in particles")
			}
		}
	}
	g3 := NewGenerator(GenConfig{Seed: 100})
	diff := false
	g1b := NewGenerator(GenConfig{Seed: 99})
	for i := 0; i < 10; i++ {
		a, b := g1b.Next(), g3.Next()
		if len(a.Particles) != len(b.Particles) {
			diff = true
			break
		}
	}
	if !diff {
		t.Log("different seeds produced same multiplicities (unlikely but possible)")
	}
}

func TestGeneratorEnergyConservation(t *testing.T) {
	// Hard-process objects (E > 20 GeV) should carry roughly the CM
	// energy, modulo resolution smearing and soft particles.
	g := NewGenerator(GenConfig{Seed: 5, AvgSoft: 1e-9})
	for i := 0; i < 100; i++ {
		e := g.Next()
		var sum FourVec
		for _, p := range e.Particles {
			sum = sum.Add(p.Vec())
		}
		if math.Abs(sum.E-500) > 100 {
			t.Fatalf("event %d: total E = %.1f, want ≈500", i, sum.E)
		}
	}
}

func TestGeneratorSignalHasHiggsMass(t *testing.T) {
	g := NewGenerator(GenConfig{Seed: 11, SignalFraction: 1.0, JetRes: 1e-9, AvgSoft: 1e-9})
	for i := 0; i < 50; i++ {
		e := g.Next()
		// The two b-jets must reconstruct the Higgs mass.
		var bjets []FourVec
		for _, p := range e.Particles {
			if p.ID == IDBJet || p.ID == -IDBJet {
				bjets = append(bjets, p.Vec())
			}
		}
		if len(bjets) != 2 {
			t.Fatalf("event %d: %d b-jets", i, len(bjets))
		}
		m := bjets[0].Add(bjets[1]).Mass()
		if math.Abs(m-120) > 1.5 {
			t.Fatalf("event %d: m(bb) = %.2f, want ≈120", i, m)
		}
	}
}

func TestHiggsAnalysisFindsPeak(t *testing.T) {
	tree := aida.NewTree()
	ctx := &analysis.Context{Tree: tree, Params: map[string]string{}}
	ha, err := NewHiggsAnalysis(nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := ha.Init(ctx); err != nil {
		t.Fatal(err)
	}
	g := NewGenerator(GenConfig{Seed: 3, SignalFraction: 0.4})
	var buf []byte
	for i := 0; i < 3000; i++ {
		buf = Marshal(buf[:0], g.Next())
		if err := ha.Process(buf, ctx); err != nil {
			t.Fatal(err)
		}
	}
	if err := ha.End(ctx); err != nil {
		t.Fatal(err)
	}
	peak, height := ha.PeakIn(100, 140)
	if height <= 0 {
		t.Fatal("no peak found")
	}
	if math.Abs(peak-120) > 6 {
		t.Fatalf("peak at %.1f GeV, want ≈120", peak)
	}
	if tree.Get("/higgs/dijet-mass") == nil || tree.Get("/higgs/multiplicity") == nil {
		t.Fatal("analysis did not book expected histograms")
	}
	if got := tree.Get("/higgs/dijet-mass").(*aida.Histogram1D).Annotations().Get("higgs.peak"); got == "" {
		t.Fatal("peak annotation missing")
	}
}

func TestHiggsAnalysisBadParams(t *testing.T) {
	for _, params := range []map[string]string{
		{"minE": "not-a-number"},
		{"bins": "0"},
		{"maxMass": "-5"},
	} {
		if _, err := NewHiggsAnalysis(params); err == nil {
			t.Fatalf("params %v accepted", params)
		}
	}
}

func TestHiggsAnalysisRegistered(t *testing.T) {
	a, err := analysis.Default.New(HiggsAnalysisName, map[string]string{"minE": "25"})
	if err != nil {
		t.Fatal(err)
	}
	if a.(*HiggsAnalysis).minE != 25 {
		t.Fatal("params not applied through registry")
	}
}

func TestGenerateFileAndRead(t *testing.T) {
	path := filepath.Join(t.TempDir(), "lc.ipa")
	n := 500
	bytes, err := GenerateFile(path, GenConfig{Seed: 21}, n)
	if err != nil {
		t.Fatal(err)
	}
	if bytes <= 0 {
		t.Fatal("no bytes written")
	}
	r, f, err := dataset.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if r.NumRecords() != int64(n) {
		t.Fatalf("NumRecords = %d, want %d", r.NumRecords(), n)
	}
	if r.PayloadBytes() != bytes {
		t.Fatalf("payload %d != written %d", r.PayloadBytes(), bytes)
	}
	// Every record decodes.
	it, err := r.Iter(0, -1)
	if err != nil {
		t.Fatal(err)
	}
	var e Event
	for i := 0; i < n; i++ {
		rec, err := it.Next()
		if err != nil {
			t.Fatal(err)
		}
		if err := UnmarshalInto(rec, &e); err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if e.Number != int64(i) {
			t.Fatalf("record %d has event number %d", i, e.Number)
		}
	}
}

func TestMergedWorkersMatchSingleWorker(t *testing.T) {
	// The paper's core correctness claim: splitting the dataset across N
	// engines and merging their histograms gives the same answer as one
	// engine reading everything.
	const n = 1200
	g := NewGenerator(GenConfig{Seed: 8})
	var records [][]byte
	for i := 0; i < n; i++ {
		records = append(records, Marshal(nil, g.Next()))
	}
	run := func(recs [][]byte) *aida.Tree {
		tree := aida.NewTree()
		ctx := &analysis.Context{Tree: tree}
		ha, _ := NewHiggsAnalysis(nil)
		if err := ha.Init(ctx); err != nil {
			t.Fatal(err)
		}
		for _, r := range recs {
			if err := ha.Process(r, ctx); err != nil {
				t.Fatal(err)
			}
		}
		if err := ha.End(ctx); err != nil {
			t.Fatal(err)
		}
		return tree
	}
	single := run(records)
	merged := aida.NewTree()
	for w := 0; w < 4; w++ {
		lo, hi := w*n/4, (w+1)*n/4
		if err := merged.MergeFrom(run(records[lo:hi])); err != nil {
			t.Fatal(err)
		}
	}
	a := single.Get("/higgs/dijet-mass").(*aida.Histogram1D)
	b := merged.Get("/higgs/dijet-mass").(*aida.Histogram1D)
	if a.Entries() != b.Entries() {
		t.Fatalf("entries %d vs %d", a.Entries(), b.Entries())
	}
	for i := 0; i < a.Axis().Bins(); i++ {
		if !almost(a.BinHeight(i), b.BinHeight(i), 1e-9) {
			t.Fatalf("bin %d differs: %v vs %v", i, a.BinHeight(i), b.BinHeight(i))
		}
	}
}
