package script

import (
	"strings"
	"testing"

	"github.com/ipa-grid/ipa/internal/aida"
	"github.com/ipa-grid/ipa/internal/analysis"
)

const countScript = `
h = tree.h1d("/demo", "lengths", "Record lengths", 10, 0, 10);
n = 0;
function process(rec) {
	h.fill(len(rec));
	n += 1;
}
function end() {
	println("processed", n, "records");
	h.annotate("records", n);
}
`

func TestScriptAnalysisLifecycle(t *testing.T) {
	a, err := NewAnalysis(countScript, "raw")
	if err != nil {
		t.Fatal(err)
	}
	tree := aida.NewTree()
	ctx := &analysis.Context{Tree: tree, Params: map[string]string{"who": "test"}}
	if err := a.Init(ctx); err != nil {
		t.Fatal(err)
	}
	for _, rec := range []string{"a", "bb", "ccc"} {
		if err := a.Process([]byte(rec), ctx); err != nil {
			t.Fatal(err)
		}
	}
	if err := a.End(ctx); err != nil {
		t.Fatal(err)
	}
	h := tree.Get("/demo/lengths").(*aida.Histogram1D)
	if h.Entries() != 3 {
		t.Fatalf("entries = %d", h.Entries())
	}
	if !strings.Contains(a.Output(), "processed 3 records") {
		t.Fatalf("output = %q", a.Output())
	}
	if h.Annotations().Get("records") != "3" {
		t.Fatal("annotate from script failed")
	}
}

func TestScriptAnalysisRewindResets(t *testing.T) {
	a, err := NewAnalysis(countScript, "raw")
	if err != nil {
		t.Fatal(err)
	}
	tree := aida.NewTree()
	ctx := &analysis.Context{Tree: tree}
	if err := a.Init(ctx); err != nil {
		t.Fatal(err)
	}
	a.Process([]byte("xx"), ctx)
	// Rewind: engine resets the tree and re-inits.
	tree2 := aida.NewTree()
	ctx2 := &analysis.Context{Tree: tree2}
	if err := a.Init(ctx2); err != nil {
		t.Fatal(err)
	}
	if err := a.Process([]byte("yy"), ctx2); err != nil {
		t.Fatal(err)
	}
	h := tree2.Get("/demo/lengths").(*aida.Histogram1D)
	if h.Entries() != 1 {
		t.Fatalf("after rewind entries = %d, want 1", h.Entries())
	}
}

func TestScriptAnalysisRequiresProcess(t *testing.T) {
	a, err := NewAnalysis(`x = 1;`, "raw")
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Init(&analysis.Context{Tree: aida.NewTree()}); err == nil {
		t.Fatal("script without process() accepted")
	}
}

func TestScriptAnalysisCompileError(t *testing.T) {
	if _, err := NewAnalysis(`function process( {`, "raw"); err == nil {
		t.Fatal("bad script compiled")
	}
}

func TestScriptAnalysisUnknownDecoder(t *testing.T) {
	if _, err := NewAnalysis(countScript, "no-such-format"); err == nil {
		t.Fatal("unknown decoder accepted")
	}
}

func TestScriptAnalysisRuntimeErrorSurfaced(t *testing.T) {
	a, err := NewAnalysis(`function process(r) { x = 1/0; }`, "raw")
	if err != nil {
		t.Fatal(err)
	}
	ctx := &analysis.Context{Tree: aida.NewTree()}
	if err := a.Init(ctx); err != nil {
		t.Fatal(err)
	}
	err = a.Process([]byte("r"), ctx)
	if err == nil || !strings.Contains(err.Error(), "division by zero") {
		t.Fatalf("runtime error not surfaced: %v", err)
	}
}

func TestScriptParamsVisible(t *testing.T) {
	a, err := NewAnalysis(`
		cut = num(params["minE"]);
		function process(r) {}
		function end() { println("cut:", cut); }
	`, "raw")
	if err != nil {
		t.Fatal(err)
	}
	ctx := &analysis.Context{Tree: aida.NewTree(), Params: map[string]string{"minE": "25"}}
	if err := a.Init(ctx); err != nil {
		t.Fatal(err)
	}
	if err := a.End(ctx); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(a.Output(), "cut: 25") {
		t.Fatalf("params not visible: %q", a.Output())
	}
}

func TestAidaBindings(t *testing.T) {
	src := `
	h2 = tree.h2d("/d", "grid", "", 4, 0, 4, 4, 0, 4);
	p = tree.p1d("/d", "prof", "", 4, 0, 4);
	c = tree.c1d("/d", "cloud", "");
	function process(r) {
		h2.fill(1.5, 2.5);
		p.fill(1.0, 10.0);
		c.fill(len(r));
	}
	function end() {
		if (h2.entries() != 1) error("h2 wrong");
		if (p.entries() != 1) error("p wrong");
		if (c.mean() != 3) error("cloud mean " + c.mean());
	}
	`
	a, err := NewAnalysis(src, "raw")
	if err != nil {
		t.Fatal(err)
	}
	tree := aida.NewTree()
	ctx := &analysis.Context{Tree: tree}
	if err := a.Init(ctx); err != nil {
		t.Fatal(err)
	}
	if err := a.Process([]byte("abc"), ctx); err != nil {
		t.Fatal(err)
	}
	if err := a.End(ctx); err != nil {
		t.Fatal(err)
	}
	if tree.Get("/d/grid") == nil || tree.Get("/d/prof") == nil || tree.Get("/d/cloud") == nil {
		t.Fatal("objects not booked")
	}
}

func TestH1DBindingMethods(t *testing.T) {
	src := `
	h = tree.h1d("/x", "h", "", 10, 0, 10);
	function process(r) { h.fill(2.5); h.fill(2.6, 2); }
	function end() {
		if (h.entries() != 2) error("entries");
		if (h.binHeight(2) != 3) error("height " + h.binHeight(2));
		if (abs(h.binCenter(2) - 2.5) > 0.001) error("center");
		if (h.bins() != 10) error("bins");
		h.scale(2);
		if (h.binHeight(2) != 6) error("scale");
		h.reset();
		if (h.entries() != 0) error("reset");
	}
	`
	a, err := NewAnalysis(src, "raw")
	if err != nil {
		t.Fatal(err)
	}
	ctx := &analysis.Context{Tree: aida.NewTree()}
	if err := a.Init(ctx); err != nil {
		t.Fatal(err)
	}
	if err := a.Process([]byte("r"), ctx); err != nil {
		t.Fatal(err)
	}
	if err := a.End(ctx); err != nil {
		t.Fatal(err)
	}
}

func TestRebookingExistingHistogramReturnsSame(t *testing.T) {
	// Booking the same path twice (e.g. helper functions) must reuse the
	// object rather than fail.
	src := `
	h1 = tree.h1d("/x", "h", "", 10, 0, 10);
	h2 = tree.h1d("/x", "h", "", 10, 0, 10);
	function process(r) { h1.fill(1); h2.fill(2); }
	`
	a, err := NewAnalysis(src, "raw")
	if err != nil {
		t.Fatal(err)
	}
	tree := aida.NewTree()
	ctx := &analysis.Context{Tree: tree}
	if err := a.Init(ctx); err != nil {
		t.Fatal(err)
	}
	if err := a.Process([]byte("r"), ctx); err != nil {
		t.Fatal(err)
	}
	h := tree.Get("/x/h").(*aida.Histogram1D)
	if h.Entries() != 2 {
		t.Fatalf("entries = %d, want 2 (same underlying histogram)", h.Entries())
	}
}

func TestDecoderRegistry(t *testing.T) {
	if _, ok := LookupDecoder("raw"); !ok {
		t.Fatal("raw decoder missing")
	}
	RegisterDecoder("test-upper", func(rec []byte) (Value, error) {
		return strings.ToUpper(string(rec)), nil
	})
	t.Cleanup(func() { unregisterDecoder("test-upper") })
	d, ok := LookupDecoder("test-upper")
	if !ok {
		t.Fatal("registered decoder not found")
	}
	v, err := d([]byte("abc"))
	if err != nil || v != "ABC" {
		t.Fatalf("decoder = %v, %v", v, err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate decoder registration did not panic")
		}
	}()
	RegisterDecoder("test-upper", d)
}
