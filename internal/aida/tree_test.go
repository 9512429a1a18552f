package aida

import (
	"bytes"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

func TestTreePutGet(t *testing.T) {
	tr := NewTree()
	h, err := tr.H1D("/higgs", "mass", "dijet mass", 50, 0, 250)
	if err != nil {
		t.Fatal(err)
	}
	h.Fill(120)
	got := tr.Get("/higgs/mass")
	if got == nil || got.(*Histogram1D).Entries() != 1 {
		t.Fatal("Get returned wrong object")
	}
	if tr.Get("/nope/mass") != nil {
		t.Fatal("Get on missing path should be nil")
	}
	if tr.Size() != 1 {
		t.Fatalf("Size = %d", tr.Size())
	}
}

func TestTreeLs(t *testing.T) {
	tr := NewTree()
	tr.H1D("/a/b", "h1", "", 10, 0, 1)
	tr.H1D("/a", "h2", "", 10, 0, 1)
	tr.Mkdirs("/a/empty")
	ls, err := tr.Ls("/a")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"b/", "empty/", "h2"}
	if len(ls) != len(want) {
		t.Fatalf("Ls = %v, want %v", ls, want)
	}
	for i := range want {
		if ls[i] != want[i] {
			t.Fatalf("Ls = %v, want %v", ls, want)
		}
	}
	if _, err := tr.Ls("/missing"); err == nil {
		t.Fatal("Ls on missing dir should error")
	}
}

func TestTreePathConflicts(t *testing.T) {
	tr := NewTree()
	if _, err := tr.H1D("/a", "x", "", 10, 0, 1); err != nil {
		t.Fatal(err)
	}
	// Object where a directory is wanted.
	if err := tr.Mkdirs("/a/x/deeper"); err == nil {
		t.Fatal("Mkdirs through an object accepted")
	}
	// Directory where an object is wanted.
	tr.Mkdirs("/a/sub")
	h := NewHistogram1D("sub", "", 10, 0, 1)
	if err := tr.Put("/a", h); err == nil {
		t.Fatal("Put over a directory accepted")
	}
	// Invalid names.
	if err := tr.Put("/a", NewHistogram1D("bad/name", "", 10, 0, 1)); err == nil {
		t.Fatal("slash in object name accepted")
	}
	// "." is no path segment: such an object could not be found again.
	if err := tr.Put("/", NewHistogram1D(".", "", 10, 0, 1)); err == nil {
		t.Fatal(`object named "." accepted`)
	}
}

func TestTreeRm(t *testing.T) {
	tr := NewTree()
	tr.H1D("/d", "h", "", 10, 0, 1)
	if !tr.Rm("/d/h") {
		t.Fatal("Rm missed existing object")
	}
	if tr.Rm("/d/h") {
		t.Fatal("Rm of removed object reported true")
	}
	tr.H1D("/d/e", "h2", "", 10, 0, 1)
	if !tr.RmDir("/d") {
		t.Fatal("RmDir missed")
	}
	if tr.Size() != 0 {
		t.Fatal("tree not empty after RmDir")
	}
}

func TestTreeWalkOrder(t *testing.T) {
	tr := NewTree()
	tr.H1D("/z", "h", "", 10, 0, 1)
	tr.H1D("/a/b", "h", "", 10, 0, 1)
	tr.H1D("/", "top", "", 10, 0, 1)
	paths := tr.ObjectPaths()
	want := []string{"/a/b/h", "/top", "/z/h"}
	if len(paths) != 3 {
		t.Fatalf("paths = %v", paths)
	}
	for i := range want {
		if paths[i] != want[i] {
			t.Fatalf("paths = %v, want %v", paths, want)
		}
	}
}

func TestTreeMergeFrom(t *testing.T) {
	worker1 := NewTree()
	worker2 := NewTree()
	h1, _ := worker1.H1D("/higgs", "mass", "", 10, 0, 100)
	h2, _ := worker2.H1D("/higgs", "mass", "", 10, 0, 100)
	h1.Fill(55)
	h2.Fill(55)
	h2.Fill(65)
	worker2.H1D("/extra", "only2", "", 5, 0, 5)

	session := NewTree()
	if err := session.MergeFrom(worker1); err != nil {
		t.Fatal(err)
	}
	if err := session.MergeFrom(worker2); err != nil {
		t.Fatal(err)
	}
	m := session.Get("/higgs/mass").(*Histogram1D)
	if m.Entries() != 3 {
		t.Fatalf("merged entries = %d, want 3", m.Entries())
	}
	if session.Get("/extra/only2") == nil {
		t.Fatal("new path not copied in")
	}
	// Merging into the session must not alias worker objects.
	h1.Fill(75)
	if m.Entries() != 3 {
		t.Fatal("session tree aliases worker histogram")
	}
}

func TestTreeMergeKindMismatch(t *testing.T) {
	a := NewTree()
	b := NewTree()
	a.H1D("/x", "o", "", 10, 0, 1)
	b.P1D("/x", "o", "", 10, 0, 1)
	if err := a.MergeFrom(b); err == nil {
		t.Fatal("kind mismatch merged silently")
	}
}

func TestTreeClone(t *testing.T) {
	tr := NewTree()
	h, _ := tr.H1D("/a", "h", "", 10, 0, 10)
	h.Fill(5)
	cp, err := tr.Clone()
	if err != nil {
		t.Fatal(err)
	}
	h.Fill(6)
	if cp.Get("/a/h").(*Histogram1D).Entries() != 1 {
		t.Fatal("clone aliases original")
	}
}

func TestGobRoundTrip(t *testing.T) {
	tr := buildRichTree(t)
	var buf bytes.Buffer
	if err := EncodeTree(&buf, tr); err != nil {
		t.Fatal(err)
	}
	back, err := DecodeTree(&buf)
	if err != nil {
		t.Fatal(err)
	}
	assertTreesEqual(t, tr, back)
}

// TestXMLRoundTrip: every field of every object's state comes back
// exactly — entries, heights, weighted means, the in-range sums, cloud
// samples, points — except a bin's Σw², which the format carries as the
// bin error sqrt(Σw²) and so comes back through a square root.
func TestXMLRoundTrip(t *testing.T) {
	tr := buildRichTree(t)
	var buf bytes.Buffer
	if err := WriteXML(&buf, tr); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "<aida") {
		t.Fatal("not AIDA xml")
	}
	back, err := ReadXML(&buf)
	if err != nil {
		t.Fatal(err)
	}
	assertTreesEqual(t, tr, back)
	for _, path := range tr.ObjectPaths() {
		want, got := tr.Get(path), back.Get(path)
		// Σw² is the one field allowed to differ, in its last bits;
		// adopt the original's value once it is that close.
		sumW2 := func(a, b *float64) {
			if math.Abs(*a-*b) > 1e-12*math.Abs(*a) {
				t.Errorf("%s: bin Σw² %v came back as %v", path, *a, *b)
			}
			*b = *a
		}
		var ws, gs any
		switch w := want.(type) {
		case *Histogram1D:
			a, b := w.State(), got.(*Histogram1D).State()
			for i := range a.Data {
				if i < len(b.Data) {
					sumW2(&a.Data[i].SumW2, &b.Data[i].SumW2)
				}
			}
			ws, gs = a, b
		case *Histogram2D:
			a, b := w.State(), got.(*Histogram2D).State()
			for i := range a.Cells {
				if i < len(b.Cells) {
					sumW2(&a.Cells[i].SumW2, &b.Cells[i].SumW2)
				}
			}
			ws, gs = a, b
		case *Profile1D:
			ws, gs = w.State(), got.(*Profile1D).State()
		case *Cloud1D:
			ws, gs = w.State(), got.(*Cloud1D).State()
		case *DataPointSet:
			ws, gs = w.State(), got.(*DataPointSet).State()
		default:
			t.Fatalf("%s: no exact comparison for %T", path, want)
		}
		if !reflect.DeepEqual(ws, gs) {
			t.Errorf("%s changed in an XML round trip:\n got %+v\nwant %+v", path, gs, ws)
		}
	}
}

func TestXMLRejectsGarbage(t *testing.T) {
	if _, err := ReadXML(strings.NewReader("not xml at all")); err == nil {
		t.Fatal("garbage accepted")
	}
}

// buildRichTree creates one of every object kind with content.
func buildRichTree(t *testing.T) *Tree {
	t.Helper()
	tr := NewTree()
	rng := rand.New(rand.NewSource(7))
	h1, _ := tr.H1D("/hists", "h1", "a title", 25, -3, 3)
	for i := 0; i < 300; i++ {
		h1.FillW(rng.NormFloat64(), rng.Float64()+0.5)
	}
	h1.Fill(-99)
	h1.Fill(99)
	h2, _ := tr.H2D("/hists", "h2", "2d", 8, 0, 8, 6, -1, 1)
	for i := 0; i < 200; i++ {
		h2.FillW(rng.Float64()*8, rng.Float64()*2-1, rng.Float64())
	}
	p, _ := tr.P1D("/profiles", "p", "prof", 10, 0, 10)
	for i := 0; i < 150; i++ {
		p.FillW(rng.Float64()*10, rng.NormFloat64()*5+20, 1)
	}
	c, _ := tr.C1D("/clouds", "c", "cloud")
	for i := 0; i < 50; i++ {
		c.Fill(rng.ExpFloat64())
	}
	d, _ := tr.DPS("/series", "t2", "Table 2", 2)
	d.Append(1, 330)
	d.Append(2, 287)
	d.Append(16, 78)
	return tr
}

func assertTreesEqual(t *testing.T, a, b *Tree) {
	t.Helper()
	pa, pb := a.ObjectPaths(), b.ObjectPaths()
	if len(pa) != len(pb) {
		t.Fatalf("path counts differ: %v vs %v", pa, pb)
	}
	for i := range pa {
		if pa[i] != pb[i] {
			t.Fatalf("paths differ: %v vs %v", pa, pb)
		}
		oa, ob := a.Get(pa[i]), b.Get(pb[i])
		if oa.Kind() != ob.Kind() {
			t.Fatalf("%s kind %s vs %s", pa[i], oa.Kind(), ob.Kind())
		}
		if oa.EntriesCount() != ob.EntriesCount() {
			t.Fatalf("%s entries %d vs %d", pa[i], oa.EntriesCount(), ob.EntriesCount())
		}
		switch x := oa.(type) {
		case *Histogram1D:
			y := ob.(*Histogram1D)
			if !x.Axis().Equal(y.Axis()) {
				t.Fatalf("%s axis mismatch", pa[i])
			}
			for bin := 0; bin < x.Axis().Bins(); bin++ {
				if !almost(x.BinHeight(bin), y.BinHeight(bin), 1e-9) ||
					!almost(x.BinError(bin), y.BinError(bin), 1e-9) ||
					x.BinEntries(bin) != y.BinEntries(bin) {
					t.Fatalf("%s bin %d differs", pa[i], bin)
				}
			}
			if !almost(x.Mean(), y.Mean(), 1e-9) || !almost(x.Rms(), y.Rms(), 1e-9) {
				t.Fatalf("%s stats differ", pa[i])
			}
			if x.BinEntries(Underflow) != y.BinEntries(Underflow) ||
				x.BinEntries(Overflow) != y.BinEntries(Overflow) {
				t.Fatalf("%s flow bins differ", pa[i])
			}
		case *Histogram2D:
			y := ob.(*Histogram2D)
			for ix := 0; ix < x.XAxis().Bins(); ix++ {
				for iy := 0; iy < x.YAxis().Bins(); iy++ {
					if !almost(x.BinHeight(ix, iy), y.BinHeight(ix, iy), 1e-9) {
						t.Fatalf("%s cell (%d,%d) differs", pa[i], ix, iy)
					}
				}
			}
			if !almost(x.MeanX(), y.MeanX(), 1e-9) || !almost(x.RmsY(), y.RmsY(), 1e-9) {
				t.Fatalf("%s 2d stats differ", pa[i])
			}
		case *Profile1D:
			y := ob.(*Profile1D)
			for bin := 0; bin < x.Axis().Bins(); bin++ {
				if !almost(x.BinHeight(bin), y.BinHeight(bin), 1e-9) ||
					!almost(x.BinRms(bin), y.BinRms(bin), 1e-9) {
					t.Fatalf("%s profile bin %d differs", pa[i], bin)
				}
			}
		case *Cloud1D:
			y := ob.(*Cloud1D)
			if !almost(x.Mean(), y.Mean(), 1e-9) || !almost(x.Rms(), y.Rms(), 1e-9) {
				t.Fatalf("%s cloud stats differ", pa[i])
			}
		case *DataPointSet:
			y := ob.(*DataPointSet)
			if x.Size() != y.Size() || x.Dimension() != y.Dimension() {
				t.Fatalf("%s dps shape differs", pa[i])
			}
			for p := 0; p < x.Size(); p++ {
				for c := 0; c < x.Dimension(); c++ {
					if !almost(x.Value(p, c), y.Value(p, c), 1e-12) {
						t.Fatalf("%s dps point %d differs", pa[i], p)
					}
				}
			}
		}
	}
}

func TestRenderH1D(t *testing.T) {
	h := NewHistogram1D("m", "Mass", 5, 0, 5)
	h.Fill(0.5)
	h.Fill(2.5)
	h.Fill(2.6)
	out := RenderH1D(h, RenderOptions{Width: 20})
	if !strings.Contains(out, "Mass") || !strings.Contains(out, "#") {
		t.Fatalf("render output missing content:\n%s", out)
	}
	empty := NewHistogram1D("e", "", 5, 0, 5)
	if !strings.Contains(RenderH1D(empty, RenderOptions{}), "empty") {
		t.Fatal("empty histogram not flagged")
	}
}

func TestRenderTable(t *testing.T) {
	tab := &Table{Title: "Table 2", Columns: []string{"Nodes", "Analysis"}}
	tab.AddRow("1", "330 s")
	tab.AddRow("16", "78 s")
	s := tab.String()
	if !strings.Contains(s, "Nodes") || !strings.Contains(s, "330 s") {
		t.Fatalf("table render:\n%s", s)
	}
}

func TestSVGOutputs(t *testing.T) {
	h := NewHistogram1D("m", "Mass <spectrum>", 20, 0, 10)
	for i := 0; i < 500; i++ {
		h.Fill(float64(i%10) + 0.3)
	}
	var buf bytes.Buffer
	if err := WriteSVGH1D(&buf, h, 640, 400); err != nil {
		t.Fatal(err)
	}
	s := buf.String()
	if !strings.HasPrefix(s, "<svg") || !strings.Contains(s, "&lt;spectrum&gt;") {
		t.Fatal("svg output malformed or unescaped")
	}
	buf.Reset()
	err := WriteSVGSeries(&buf, "Analysis vs N", "nodes", "seconds",
		[]XYSeries{{Name: "grid", X: []float64{1, 2, 4}, Y: []float64{330, 287, 190}}}, 640, 400)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "polyline") {
		t.Fatal("series svg missing polyline")
	}
	buf.Reset()
	surf := Surface{Name: "grid", Xs: []float64{1, 10, 100}, Ys: []float64{1, 4, 16},
		Z: [][]float64{{1, 2, 3}, {4, 5, 6}, {7, 8, 9}}}
	if err := WriteSVGHeatmap(&buf, "Figure 5", "MB", "nodes", surf, 640, 400); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "rect") {
		t.Fatal("heatmap svg missing cells")
	}
}
