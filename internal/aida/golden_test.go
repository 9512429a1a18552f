package aida

import (
	"bytes"
	"encoding/hex"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden files under testdata/")

const binnedGoldenFile = "binned_formats.golden"

// TestBinnedFormatsUnchanged pins the bytes the binned kinds put on the
// wire and into AIDA-XML: the AppendObjectState frame of every object of
// two trees, and the WriteXML document of one of each kind from both.
// Together the trees reach every mutation path: weighted and negative
// fills, FillN with and without weights, NaN, ±Inf and flow coordinates,
// Scale, MergeFrom, Reset, Clone and converted clouds.
// Any change to how the histograms keep or encode their sums shows up
// here as a changed line.
//
// The golden has two parts. Go may fuse a multiply and an add into one
// rounding on arm64, ppc64le, s390x and riscv64, and NaNs made by an
// operation (Inf−Inf) carry a sign and payload that differ by
// architecture. The exact part uses dyadic coordinates and weights with
// few significant bits, so every product and sum is exact with or
// without fusion, and it holds no NaN or infinity: it is checked on every
// architecture. The seeded part fills random weights, NaN and ±Inf and
// converts clouds over a padded range; it is checked on amd64 only.
//
// Regenerate with `go test ./internal/aida -run TestBinnedFormatsUnchanged -update`
// only when a format change is meant.
func TestBinnedFormatsUnchanged(t *testing.T) {
	var got bytes.Buffer
	got.WriteString("# AppendObjectState frames and WriteXML output, hex; see TestBinnedFormatsUnchanged.\n")
	goldenLines(t, &got, "exact", goldenExactTree(t), "/h")
	goldenLines(t, &got, "seeded", goldenSeededTree(t), "/s", "/c")
	path := filepath.Join("testdata", binnedGoldenFile)
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	wantLines := goldenByLabel(string(want))
	gotLines := goldenByLabel(got.String())
	checked := 0
	for label, w := range wantLines {
		if strings.HasPrefix(label, "seeded ") && runtime.GOARCH != "amd64" {
			continue
		}
		checked++
		g, ok := gotLines[label]
		switch {
		case !ok:
			t.Errorf("%s: no longer produced", label)
		case g != w:
			t.Errorf("%s: bytes changed\n got %.200s…\nwant %.200s…", label, g, w)
		}
	}
	for label := range gotLines {
		if _, ok := wantLines[label]; !ok {
			t.Errorf("%s: produced but not in the golden", label)
		}
	}
	if checked == 0 {
		t.Fatal("golden file holds nothing to check")
	}
}

// goldenLines writes one "part object <path> <hex>" line per object of
// tr and one "part xml <hex>" line for the WriteXML document of the
// objects under xmlDirs (one of each kind is enough for the mapping; the
// frames cover the mutation paths).
func goldenLines(t *testing.T, out *bytes.Buffer, part string, tr *Tree, xmlDirs ...string) {
	t.Helper()
	st, err := tr.State()
	if err != nil {
		t.Fatal(err)
	}
	for i := range st.Entries {
		b, err := AppendObjectState(nil, &st.Entries[i].Object)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(out, "%s object %s %s\n", part, st.Entries[i].Path, hex.EncodeToString(b))
	}
	xt := NewTree()
	for _, dir := range xmlDirs {
		names, err := tr.Ls(dir)
		mustNoErr(t, err)
		for _, name := range names {
			mustNoErr(t, xt.Put(dir, tr.Get(JoinPath(dir[1:], name))))
		}
	}
	var x bytes.Buffer
	if err := WriteXML(&x, xt); err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(out, "%s xml %s\n", part, hex.EncodeToString(x.Bytes()))
}

// goldenByLabel maps each line's label (everything before the hex) to
// its hex.
func goldenByLabel(s string) map[string]string {
	m := map[string]string{}
	for _, line := range strings.Split(s, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		m[line[:i]] = line[i+1:]
	}
	return m
}

func mustNoErr(t testing.TB, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

// goldenExactTree fills only eighths with weights of a few bits, so no
// sum, product or scale here ever rounds.
func goldenExactTree(t testing.TB) *Tree {
	tr := NewTree()
	ws := []float64{1, 0.5, -0.25, 2, -1.5}
	// x runs -3 … 7.875 over [-2, 6): underflow, in range, overflow and
	// exact bin edges.
	xAt := func(i int) float64 { return float64(i%88)/8 - 3 }
	yAt := func(i int) float64 { return float64(i%37)/4 - 2 }

	h1, err := tr.H1D("/h", "h1", "exact 1d", 16, -2, 6)
	mustNoErr(t, err)
	h1.Annotations().Set("owner", "golden")
	for i := 0; i < 120; i++ {
		h1.FillW(xAt(3*i), ws[i%len(ws)])
	}
	xs := make([]float64, 40)
	bw := make([]float64, 40)
	for i := range xs {
		xs[i], bw[i] = xAt(7*i+1), ws[(i+2)%len(ws)]
	}
	h1.FillN(xs, nil)
	h1.FillN(xs, bw)
	h1.Fill(6) // the upper edge is overflow
	h1.Fill(-2)

	h2, err := tr.H2D("/h", "h2", "exact 2d", 8, -2, 6, 6, -1, 5)
	mustNoErr(t, err)
	for i := 0; i < 150; i++ {
		h2.FillW(xAt(5*i), yAt(3*i), ws[i%len(ws)])
	}
	ys := make([]float64, len(xs))
	for i := range ys {
		ys[i] = yAt(11*i + 2)
	}
	h2.FillN(xs, ys, nil)
	h2.FillN(xs, ys, bw)

	p1, err := tr.P1D("/h", "p1", "exact profile", 10, -2, 3)
	mustNoErr(t, err)
	for i := 0; i < 90; i++ {
		p1.FillW(xAt(2*i)/2, yAt(i), ws[i%len(ws)])
	}
	p1.FillN(xs, ys, nil)
	p1.FillN(xs, ys, bw)

	// Scale, MergeFrom, Reset and Clone, each on its own object.
	s1 := h1.Clone()
	s1.Scale(-1.5)
	s2 := h2.Clone()
	s2.Scale(0.25)
	mustNoErr(t, tr.Put("/scaled", s1))
	mustNoErr(t, tr.Put("/scaled", s2))

	m1 := NewHistogram1D("h1", "", 16, -2, 6)
	m1.Annotations().Set("merged", "yes")
	mustNoErr(t, m1.MergeFrom(h1))
	mustNoErr(t, m1.MergeFrom(s1))
	m2 := NewHistogram2D("h2", "merged 2d", 8, -2, 6, 6, -1, 5)
	mustNoErr(t, m2.MergeFrom(h2))
	mustNoErr(t, m2.MergeFrom(s2))
	mp := NewProfile1D("p1", "", 10, -2, 3)
	mustNoErr(t, mp.MergeFrom(p1))
	mustNoErr(t, mp.MergeFrom(p1.Clone()))
	for _, o := range []Object{m1, m2, mp} {
		mustNoErr(t, tr.Put("/merged", o))
	}

	r1, r2, rp := h1.Clone(), h2.Clone(), p1.Clone()
	r1.Reset()
	r1.FillW(0.5, -0.5)
	r2.Reset()
	r2.FillW(1, 2, 4)
	rp.Reset()
	rp.FillW(-1, 3, 0.5)
	for _, o := range []Object{r1, r2, rp} {
		mustNoErr(t, tr.Put("/reset", o))
	}
	for _, o := range []Object{h1.Clone(), h2.Clone(), p1.Clone()} {
		mustNoErr(t, tr.Put("/cloned", o))
	}

	c1, err := tr.C1D("/c", "c1", "raw cloud")
	mustNoErr(t, err)
	for i := 0; i < 12; i++ {
		c1.FillW(xAt(9*i), ws[i%len(ws)])
	}
	return tr
}

// goldenSeededTree fills random weights and coordinates, NaN and ±Inf,
// scales by a factor that rounds, and converts clouds.
func goldenSeededTree(t testing.TB) *Tree {
	rng := rand.New(rand.NewSource(56))
	tr := NewTree()
	specials := []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1)}
	coord := func(lo, hi float64) float64 {
		if rng.Intn(12) == 0 {
			return specials[rng.Intn(len(specials))]
		}
		return lo + (hi-lo)*(1.4*rng.Float64()-0.2)
	}
	weight := func() float64 { return 4*rng.Float64() - 1 }

	h1, err := tr.H1D("/s", "h1", "seeded 1d", 25, 0, 10)
	mustNoErr(t, err)
	h2, err := tr.H2D("/s", "h2", "seeded 2d", 7, -1, 1, 9, 0, 3)
	mustNoErr(t, err)
	p1, err := tr.P1D("/s", "p1", "seeded profile", 12, -3, 3)
	mustNoErr(t, err)
	for i := 0; i < 400; i++ {
		h1.FillW(coord(0, 10), weight())
		h2.FillW(coord(-1, 1), coord(0, 3), weight())
		p1.FillW(coord(-3, 3), coord(-10, 10), weight())
	}
	xs, ys, ws := make([]float64, 150), make([]float64, 150), make([]float64, 150)
	for i := range xs {
		xs[i], ys[i], ws[i] = coord(-3, 10), coord(-1, 3), weight()
	}
	h1.FillN(xs, nil)
	h1.FillN(xs, ws)
	h2.FillN(ys, xs, nil)
	h2.FillN(ys, xs, ws)
	p1.FillN(xs, ys, nil)
	p1.FillN(xs, ys, ws)

	s1, s2 := h1.Clone(), h2.Clone()
	s1.Scale(1.0 / 3)
	s2.Scale(-0.7)
	mustNoErr(t, tr.Put("/scaled", s1))
	mustNoErr(t, tr.Put("/scaled", s2))
	m1, m2, mp := h1.Clone(), h2.Clone(), p1.Clone()
	mustNoErr(t, m1.MergeFrom(s1))
	mustNoErr(t, m2.MergeFrom(s2))
	mustNoErr(t, mp.MergeFrom(p1))
	for _, o := range []Object{m1, m2, mp} {
		mustNoErr(t, tr.Put("/merged", o))
	}
	r1, r2, rp := h1.Clone(), h2.Clone(), p1.Clone()
	r1.Reset()
	r2.Reset()
	rp.Reset()
	r1.FillW(math.NaN(), weight())
	r2.FillW(0.5, math.Inf(1), weight())
	rp.FillW(math.Inf(-1), 1, weight())
	for _, o := range []Object{r1, r2, rp} {
		mustNoErr(t, tr.Put("/reset", o))
	}

	conv := NewCloud1DLimit("c1conv", "converted cloud", 40)
	for i := 0; i < 55; i++ {
		conv.FillW(10*rng.NormFloat64(), weight())
	}
	c2conv := NewCloud2D("c2conv", "converted 2d cloud")
	c2raw := NewCloud2D("c2raw", "")
	for i := 0; i < 30; i++ {
		c2conv.FillW(rng.NormFloat64(), 5*rng.Float64(), weight())
		c2raw.FillW(rng.Float64(), -rng.Float64(), weight())
	}
	c2conv.Convert(6, 4)
	c2conv.FillW(0.1, 1, 2)
	for _, o := range []Object{conv, c2conv, c2raw} {
		mustNoErr(t, tr.Put("/c", o))
	}
	return tr
}
