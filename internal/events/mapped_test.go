package events

import (
	"bytes"
	"io"
	"path/filepath"
	"runtime/debug"
	"testing"

	"github.com/ipa-grid/ipa/internal/aida"
	"github.com/ipa-grid/ipa/internal/analysis"
	"github.com/ipa-grid/ipa/internal/dataset"
	"github.com/ipa-grid/ipa/internal/script"
)

// No decoder keeps record bytes past Process. Each analysis below reads
// every record of a mapped container, the mapping is closed before End,
// and End must leave the tree and the output that a run over records the
// caller owns leaves. A decoder that kept a record would read unmapped
// memory in End, which faults.
func TestDecodersKeepNoRecordBytes(t *testing.T) {
	path := filepath.Join(t.TempDir(), "lc.ipa")
	if _, err := GenerateFile(path, GenConfig{Seed: 23}, 400); err != nil {
		t.Fatal(err)
	}
	owned := ownedRecords(t, path)
	scripted := func(src, decoder string) func() (analysis.Analysis, error) {
		return func() (analysis.Analysis, error) { return script.NewAnalysis(src, decoder) }
	}
	for name, mk := range map[string]func() (analysis.Analysis, error){
		"native higgs": func() (analysis.Analysis, error) { return NewHiggsAnalysis(nil) },
		"lc-event, view borrowed": scripted(`
			h = tree.h1d("/a", "e", "", 50, 0, 500);
			function process(ev) { for (p : ev.particles) h.fill(p.e); }`, EventDecoderName),
		"lc-event, views kept": scripted(`
			kept = []; h = tree.h1d("/a", "e", "", 50, 0, 500);
			function process(ev) { push(kept, ev); }
			function end() { for (ev : kept) for (p : ev.particles) h.fill(p.e); }`, EventDecoderName),
		"raw, records kept": scripted(`
			kept = [];
			function process(r) { push(kept, r); }
			function end() { n = 0; for (r : kept) n += len(r); println(len(kept), n, kept[7]); }`, "raw"),
	} {
		t.Run(name, func(t *testing.T) {
			want := runRecords(t, mk, owned, nil)
			r, m, err := dataset.Open(path)
			if err != nil {
				t.Fatal(err)
			}
			it, err := r.Iter(0, -1)
			if err != nil {
				t.Fatal(err)
			}
			got := runRecords(t, mk, nil, func() ([]byte, error) {
				rec, err := it.Next()
				if err == io.EOF {
					return nil, m.Close()
				}
				return rec, err
			})
			if !bytes.Equal(got, want) {
				t.Fatal("End over an unmapped container left a different result")
			}
		})
	}
}

// ownedRecords reads every record of the container at path into memory
// the caller owns.
func ownedRecords(t *testing.T, path string) [][]byte {
	t.Helper()
	r, m, err := dataset.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	recs := make([][]byte, r.NumRecords())
	for i := range recs {
		if recs[i], err = r.Record(int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	return recs
}

// runRecords runs a fresh analysis over recs, or over what next returns
// until it returns nil, and returns the encoded tree and output End left.
// A fault fails the test.
func runRecords(t *testing.T, mk func() (analysis.Analysis, error), recs [][]byte, next func() ([]byte, error)) []byte {
	t.Helper()
	a, err := mk()
	if err != nil {
		t.Fatal(err)
	}
	ctx := &analysis.Context{Tree: aida.NewTree()}
	err = func() (err error) {
		defer debug.SetPanicOnFault(debug.SetPanicOnFault(true))
		defer dataset.CatchFault(&err)
		if err := a.Init(ctx); err != nil {
			return err
		}
		for i := 0; ; i++ {
			var rec []byte
			if next != nil {
				if rec, err = next(); err != nil {
					return err
				}
			} else if i < len(recs) {
				rec = recs[i]
			}
			if rec == nil {
				break
			}
			if err := a.Process(rec, ctx); err != nil {
				return err
			}
		}
		return a.End(ctx)
	}()
	if err != nil {
		t.Fatal(err)
	}
	st, err := ctx.Tree.State()
	if err != nil {
		t.Fatal(err)
	}
	out, err := aida.AppendTreeState(nil, st)
	if err != nil {
		t.Fatal(err)
	}
	if sa, ok := a.(*script.Analysis); ok {
		out = append(out, sa.Output()...)
	}
	return out
}
