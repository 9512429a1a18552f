package events

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"strconv"
	"testing"

	"github.com/ipa-grid/ipa/internal/aida"
	"github.com/ipa-grid/ipa/internal/analysis"
)

// oracleProcess is HiggsAnalysis.Process as it was before the scan read
// records in place: decode the whole event into ev, then select from the
// decoded particles. The in-place scan must fill h's objects bit for bit
// as this does.
func oracleProcess(h *HiggsAnalysis, ev *Event, rec []byte) error {
	if err := UnmarshalInto(rec, ev); err != nil {
		return err
	}
	h.seen++
	h.nPart.Fill(float64(len(ev.Particles)))
	sel := h.sel[:0]
	selE := h.selE[:0]
	selCT := h.selCT[:0]
	for _, p := range ev.Particles {
		if float64(p.E) >= h.minE {
			v := p.Vec()
			sel = append(sel, v)
			selE = append(selE, v.E)
			selCT = append(selCT, v.CosTheta())
		}
	}
	h.sel, h.selE, h.selCT = sel, selE, selCT
	h.jetE.FillN(selE, nil)
	h.cosTh.FillN(selCT, nil)
	h.selEff.Fill(float64(len(ev.Particles)), float64(len(sel)))
	masses := h.masses[:0]
	for i := 0; i < len(sel); i++ {
		for j := i + 1; j < len(sel); j++ {
			masses = append(masses, sel[i].Add(sel[j]).Mass())
		}
	}
	h.masses = masses
	h.mass.FillN(masses, nil)
	return nil
}

// newHiggs returns an initialised HiggsAnalysis with the given minE on a
// tree of its own.
func newHiggs(tb testing.TB, minE string) (*HiggsAnalysis, *analysis.Context) {
	tb.Helper()
	h, err := NewHiggsAnalysis(map[string]string{"minE": minE})
	if err != nil {
		tb.Fatal(err)
	}
	ctx := &analysis.Context{Tree: aida.NewTree()}
	if err := h.Init(ctx); err != nil {
		tb.Fatal(err)
	}
	return h, ctx
}

// higgsStates encodes the State of all five objects h fills.
func higgsStates(tb testing.TB, h *HiggsAnalysis) [][]byte {
	tb.Helper()
	var out [][]byte
	for _, obj := range []aida.Object{h.mass, h.jetE, h.nPart, h.cosTh, h.selEff} {
		st, err := aida.StateOf(obj)
		if err != nil {
			tb.Fatal(err)
		}
		b, err := aida.AppendObjectState(nil, &st)
		if err != nil {
			tb.Fatal(err)
		}
		out = append(out, b)
	}
	return out
}

// sameStates fails tb unless the two analyses' objects are bit-identical.
func sameStates(tb testing.TB, got, want *HiggsAnalysis) {
	tb.Helper()
	g, w := higgsStates(tb, got), higgsStates(tb, want)
	for i := range w {
		if !bytes.Equal(g[i], w[i]) {
			tb.Fatalf("object %d differs from the decode-then-select oracle", i)
		}
	}
}

func genRecords(seed int64, n int) [][]byte {
	g := NewGenerator(GenConfig{Seed: seed})
	recs := make([][]byte, n)
	for i := range recs {
		recs[i] = Marshal(nil, g.Next())
	}
	return recs
}

// The in-place scan fills exactly what decode-then-select filled, at a
// threshold that selects everything, the default one, and one that
// selects nothing.
func TestInPlaceScanMatchesOracle(t *testing.T) {
	recs := genRecords(17, 20000)
	for _, minE := range []float64{0, 20, 1e9} {
		arg := strconv.FormatFloat(minE, 'g', -1, 64)
		h, ctx := newHiggs(t, arg)
		o, _ := newHiggs(t, arg)
		var ev Event
		for i, rec := range recs {
			if err := h.Process(rec, ctx); err != nil {
				t.Fatalf("minE %s, record %d: %v", arg, i, err)
			}
			if err := oracleProcess(o, &ev, rec); err != nil {
				t.Fatalf("minE %s, record %d: oracle: %v", arg, i, err)
			}
		}
		if h.seen != o.seen || h.seen != int64(len(recs)) {
			t.Fatalf("minE %s: %d events seen, oracle %d", arg, h.seen, o.seen)
		}
		sameStates(t, h, o)
	}

	// A corrupt record fails both with ErrBadRecord and fills nothing.
	h, ctx := newHiggs(t, "20")
	o, _ := newHiggs(t, "20")
	var ev Event
	for _, bad := range [][]byte{recs[0][:len(recs[0])-1], recs[0][:5], nil} {
		if err := h.Process(bad, ctx); !errors.Is(err, ErrBadRecord) {
			t.Fatalf("in-place scan: %v, want ErrBadRecord", err)
		}
		if err := oracleProcess(o, &ev, bad); !errors.Is(err, ErrBadRecord) {
			t.Fatalf("oracle: %v, want ErrBadRecord", err)
		}
	}
	if h.seen != 0 || h.nPart.AllEntries() != 0 {
		t.Fatal("a rejected record was counted")
	}
	sameStates(t, h, o)
}

// Decoding into a warmed Event and scanning with a warmed analysis
// allocate nothing per record.
func TestDecodeAllocatesNothing(t *testing.T) {
	recs := genRecords(5, 64)
	var ev Event
	h, ctx := newHiggs(t, "20")
	for _, rec := range recs {
		if err := UnmarshalInto(rec, &ev); err != nil {
			t.Fatal(err)
		}
		if err := h.Process(rec, ctx); err != nil {
			t.Fatal(err)
		}
	}
	i := 0
	if n := testing.AllocsPerRun(200, func() {
		_ = UnmarshalInto(recs[i%len(recs)], &ev)
		i++
	}); n != 0 {
		t.Errorf("UnmarshalInto: %v allocations per record", n)
	}
	if n := testing.AllocsPerRun(200, func() {
		_ = h.Process(recs[i%len(recs)], ctx)
		i++
	}); n != 0 {
		t.Errorf("HiggsAnalysis.Process: %v allocations per record", n)
	}
}

// withCount returns a copy of rec with its particle-count field set to n.
func withCount(rec []byte, n uint32) []byte {
	out := append([]byte(nil), rec...)
	binary.LittleEndian.PutUint32(out[13:], n)
	return out
}

// recordSeeds are a small and a generated record cut at every length,
// and the generated one with its count field and signal byte set to
// edge values.
func recordSeeds() [][]byte {
	small := Marshal(nil, &Event{Number: -3, Run: 9, IsSignal: true, Particles: []Particle{
		{ID: IDBJet, Px: 10, Py: -20, Pz: 30, E: 60},
		{ID: -IDPionPlus, Charge: -1, Px: 0.1, Py: 0.2, Pz: -0.3, E: 0.45},
		{ID: IDPhoton, Px: float32(math.Inf(1)), E: float32(math.NaN())},
	}})
	gen := genRecords(1, 1)[0]
	var seeds [][]byte
	for _, rec := range [][]byte{small, gen} {
		for i := 0; i <= len(rec); i++ {
			seeds = append(seeds, rec[:i])
		}
	}
	for _, n := range []uint32{0, MaxParticles, MaxParticles + 1, 0xFFFFFFFF} {
		seeds = append(seeds, withCount(gen, n), withCount(gen[:eventHeaderSize], n))
	}
	flag := append([]byte(nil), gen...)
	flag[12] = 2
	return append(seeds, flag)
}

// FuzzEventRecord holds every decoder of an LC event record to one
// contract on arbitrary bytes: no panic; UnmarshalInto and
// HiggsAnalysis.Process accept the same inputs and reject the rest with
// ErrBadRecord; an accepted record re-encodes to the same bytes; and the
// in-place scan fills what decode-then-select fills.
func FuzzEventRecord(f *testing.F) {
	for _, s := range recordSeeds() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, rec []byte) {
		if len(rec) > 64<<10 {
			return // the all-pairs mass loop is quadratic in particles
		}
		var ev Event
		errU := UnmarshalInto(rec, &ev)
		h, ctx := newHiggs(t, "20")
		errH := h.Process(rec, ctx)
		o, _ := newHiggs(t, "20")
		var oev Event
		errO := oracleProcess(o, &oev, rec)
		for _, err := range []error{errU, errH, errO} {
			if err != nil && !errors.Is(err, ErrBadRecord) {
				t.Fatalf("rejection %v does not wrap ErrBadRecord", err)
			}
			if (err == nil) != (errU == nil) {
				t.Fatalf("decoders disagree: UnmarshalInto %v, Process %v, oracle %v", errU, errH, errO)
			}
		}
		if errU != nil {
			return
		}
		if back := Marshal(nil, &ev); !bytes.Equal(back, rec) {
			t.Fatalf("accepted record re-encodes to different bytes:\n got  %x\n want %x", back, rec)
		}
		sameStates(t, h, o)
	})
}

func BenchmarkUnmarshalInto(b *testing.B) {
	recs := genRecords(3, 1000)
	b.SetBytes(avgSize(recs))
	b.ReportAllocs()
	var ev Event
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := UnmarshalInto(recs[i%len(recs)], &ev); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkHiggsProcess(b *testing.B) {
	recs := genRecords(3, 1000)
	h, ctx := newHiggs(b, "20")
	b.SetBytes(avgSize(recs))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := h.Process(recs[i%len(recs)], ctx); err != nil {
			b.Fatal(err)
		}
	}
}

func avgSize(recs [][]byte) int64 {
	var total int64
	for _, r := range recs {
		total += int64(len(r))
	}
	return total / int64(len(recs))
}
