package codeloader

import (
	"sync"
	"testing"

	"github.com/ipa-grid/ipa/internal/aida"
	"github.com/ipa-grid/ipa/internal/analysis"
	"github.com/ipa-grid/ipa/internal/events"
)

const okScript = `function process(r) {}`

func TestStoreAssignsVersionsAndHashes(t *testing.T) {
	l := New()
	b1, err := l.Store(Bundle{Name: "a", Language: LangScript, Source: okScript})
	if err != nil {
		t.Fatal(err)
	}
	if b1.Version != 1 || b1.Hash == "" {
		t.Fatalf("bundle = %+v", b1)
	}
	// Identical content: same version back.
	b1again, err := l.Store(Bundle{Name: "a", Language: LangScript, Source: okScript})
	if err != nil || b1again.Version != 1 {
		t.Fatalf("re-upload: %+v, %v", b1again, err)
	}
	// Changed content bumps the version.
	b2, err := l.Store(Bundle{Name: "a", Language: LangScript, Source: okScript + "\nx = 1;"})
	if err != nil || b2.Version != 2 {
		t.Fatalf("v2 = %+v, %v", b2, err)
	}
	if b2.Hash == b1.Hash {
		t.Fatal("different content, same hash")
	}
	// History retrievable.
	old, ok := l.Version("a", 1)
	if !ok || old.Hash != b1.Hash {
		t.Fatal("version history lost")
	}
	latest, ok := l.Latest("a")
	if !ok || latest.Version != 2 {
		t.Fatal("latest wrong")
	}
	if _, ok := l.Latest("nope"); ok {
		t.Fatal("phantom bundle")
	}
	if names := l.Names(); len(names) != 1 || names[0] != "a" {
		t.Fatalf("names = %v", names)
	}
}

func TestValidateRejectsBadBundles(t *testing.T) {
	l := New()
	cases := []Bundle{
		{Language: LangScript, Source: okScript},                  // no name
		{Name: "x", Language: LangScript},                         // no source
		{Name: "x", Language: LangScript, Source: "function ("},   // syntax error
		{Name: "x", Language: LangNative},                         // no analysis
		{Name: "x", Language: Language("java"), Source: okScript}, // unknown lang
	}
	for i, b := range cases {
		if _, err := l.Store(b); err == nil {
			t.Errorf("case %d accepted: %+v", i, b)
		}
	}
}

func TestInstantiateScript(t *testing.T) {
	b := &Bundle{Name: "s", Language: LangScript, Source: okScript, Decoder: "raw"}
	if err := b.Validate(); err != nil {
		t.Fatal(err)
	}
	a, err := b.Instantiate(nil)
	if err != nil {
		t.Fatal(err)
	}
	ctx := &analysis.Context{Tree: aida.NewTree()}
	if err := a.Init(ctx); err != nil {
		t.Fatal(err)
	}
	if err := a.Process([]byte("x"), ctx); err != nil {
		t.Fatal(err)
	}
}

func TestInstantiateNative(t *testing.T) {
	reg := analysis.NewRegistry()
	reg.Register("counter", func(params map[string]string) (analysis.Analysis, error) {
		return &analysis.Func{}, nil
	})
	b := &Bundle{Name: "n", Language: LangNative, Analysis: "counter"}
	a, err := b.Instantiate(reg)
	if err != nil || a == nil {
		t.Fatalf("instantiate: %v", err)
	}
	bad := &Bundle{Name: "n", Language: LangNative, Analysis: "ghost"}
	if _, err := bad.Instantiate(reg); err == nil {
		t.Fatal("unknown native analysis instantiated")
	}
}

func TestSizeBytesReflectsPayload(t *testing.T) {
	small := &Bundle{Name: "s", Language: LangScript, Source: "x"}
	big := &Bundle{Name: "s", Language: LangScript, Source: string(make([]byte, 15*1024))}
	if big.SizeBytes() <= small.SizeBytes() {
		t.Fatal("size not reflecting source")
	}
	if big.SizeBytes() < 15*1024 {
		t.Fatalf("15kb bundle reports %d bytes", big.SizeBytes())
	}
}

// A stored bundle compiles once, and the one program runs on any number
// of engines at once (run under -race): with fresh records, and with one
// view per analysis refilled by every record (lc-event, a script that
// keeps nothing).
func TestStoredBundleCompilesOnceAndRunsConcurrently(t *testing.T) {
	const src = `
		h = tree.h1d("/c", "len", "", 10, 0, 10);
		seen = [];
		function process(r) { n = len(r); push(seen, n); h.fill(n); }
	`
	stored, err := New().Store(Bundle{Name: "s", Language: LangScript, Source: src, Decoder: "raw"})
	if err != nil {
		t.Fatal(err)
	}
	borrowing, err := New().Store(Bundle{Name: "b", Language: LangScript, Decoder: events.EventDecoderName, Source: `
		h = tree.h1d("/c", "len", "", 10, 0, 10);
		function process(ev) { for (p : ev.particles) if (p.e > 0) { h.fill(ev.n); break; } }
	`})
	if err != nil {
		t.Fatal(err)
	}
	three := events.Marshal(nil, &events.Event{Particles: []events.Particle{{E: 1}, {E: 2}, {E: 3}}})
	for _, run := range []struct {
		b   *Bundle
		rec []byte
	}{{stored, []byte("abc")}, {borrowing, three}} {
		b := run.b
		trees := make([]*aida.Tree, 2)
		var wg sync.WaitGroup
		for g := range trees {
			wg.Add(1)
			go func() {
				defer wg.Done()
				a, err := b.Instantiate(nil)
				if err != nil {
					t.Error(err)
					return
				}
				trees[g] = aida.NewTree()
				ctx := &analysis.Context{Tree: trees[g]}
				if err := a.Init(ctx); err != nil {
					t.Error(err)
					return
				}
				for i := 0; i < 500; i++ {
					if err := a.Process(run.rec, ctx); err != nil {
						t.Error(err)
						return
					}
				}
			}()
		}
		wg.Wait()
		for g, tree := range trees {
			if h, _ := tree.Get("/c/len").(*aida.Histogram1D); h == nil || h.Entries() != 500 || h.Mean() != 3 {
				t.Fatalf("%s: analysis %d did not fill its own 500 entries of 3", b.Name, g)
			}
		}
	}
	p1, _ := stored.program()
	cp := *stored
	p2, _ := cp.program()
	if p1 == nil || p1 != p2 {
		t.Fatal("copies of a stored bundle do not share one compiled program")
	}
	cp.Source += "\nx = 1;"
	if p3, err := cp.program(); err != nil || p3 == p1 {
		t.Fatalf("edited source still runs the stored program (err %v)", err)
	}
}
