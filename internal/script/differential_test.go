package script_test

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"math/rand"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"github.com/ipa-grid/ipa/internal/aida"
	"github.com/ipa-grid/ipa/internal/analysis"
	"github.com/ipa-grid/ipa/internal/events"
	"github.com/ipa-grid/ipa/internal/script"
)

// The differential test: the compiled evaluator against the tree-walker it
// replaced (oracle_test.go), as whole analyses over the same records. The
// two must print the same text, fail with the same message at the same
// position, and leave bit-identical trees.

// seedFiles are where this repository keeps script source: every string
// literal in them that compiles is a seed.
var seedFiles = []string{
	"script_test.go",
	"analysis_test.go",
	"compile_test.go",
	"../engine/engine_test.go",
	"../events/scriptbind_test.go",
	"../../examples/*/main.go",
	"../../bench/session.go",
	"../../bench_test.go",
}

func seedScripts(t testing.TB) []string {
	t.Helper()
	var seeds []string
	for _, pattern := range seedFiles {
		paths, err := filepath.Glob(pattern)
		if err != nil || len(paths) == 0 {
			t.Fatalf("seed files %q: none found (%v)", pattern, err)
		}
		for _, path := range paths {
			f, err := parser.ParseFile(token.NewFileSet(), path, nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			ast.Inspect(f, func(n ast.Node) bool {
				lit, ok := n.(*ast.BasicLit)
				if !ok || lit.Kind != token.STRING {
					return true
				}
				src, err := strconv.Unquote(lit.Value)
				if err != nil {
					return true
				}
				variants := []string{src}
				if strings.Contains(src, "%[1]q") {
					// bench's scriptVariant: a format of (directory, bins).
					variants = []string{fmt.Sprintf(src, "/anaA", 50), fmt.Sprintf(src, "/anaB", 80)}
				}
				for _, v := range variants {
					if _, err := script.Compile(v); err == nil {
						seeds = append(seeds, v)
					}
				}
				return true
			})
		}
	}
	return seeds
}

// workload is one decoder with the records a dataset of its kind holds.
type workload struct {
	decoder string
	recs    [][]byte
}

// workloads are 200 records each of the three formats the repository's
// scripts read: LC events, DNA reads, and trade lines.
func workloads() []workload {
	const n = 200
	g := events.NewGenerator(events.GenConfig{Seed: 7})
	rng := rand.New(rand.NewSource(7))
	lc, dna, trades := make([][]byte, n), make([][]byte, n), make([][]byte, n)
	for i := 0; i < n; i++ {
		lc[i] = events.Marshal(nil, g.Next())
		read := make([]byte, 20+rng.Intn(40))
		for j := range read {
			read[j] = "ACGT"[rng.Intn(4)]
		}
		dna[i] = read
		trades[i] = []byte(fmt.Sprintf("%s,%.2f,%d", []string{"SLAC", "GRID", "AIDA"}[rng.Intn(3)], 40+rng.Float64(), 100*(1+rng.Intn(40))))
	}
	return []workload{{events.EventDecoderName, lc}, {"raw", dna}, {"raw", trades}}
}

// runner is an analysis under either evaluator.
type runner interface {
	analysis.Analysis
	Output() string
}

// result is everything an analysis run leaves behind.
type result struct {
	out, err string
	tree     []byte
	fed      int // records given to Process, the failing one included
}

var addr = regexp.MustCompile(`0x[0-9a-f]+`)

// run drives a through Init, up to limit records and End. It stops
// feeding records once budget is spent, so one slow input cannot hold a
// fuzz worker; the second evaluator is then given the first one's count.
func run(t testing.TB, a runner, recs [][]byte, limit int, budget time.Duration) result {
	tree := aida.NewTree()
	ctx := &analysis.Context{Tree: tree, Params: map[string]string{"cut": "25"}, WorkerID: "w0"}
	var r result
	start := time.Now()
	err := a.Init(ctx)
	for err == nil && r.fed < limit && time.Since(start) < budget {
		ctx.EventIndex = int64(r.fed)
		err = a.Process(recs[r.fed], ctx)
		r.fed++
	}
	if err == nil {
		err = a.End(ctx)
	}
	if err != nil {
		r.err = err.Error()
	}
	st, serr := tree.State()
	if serr != nil {
		t.Fatal(serr)
	}
	if r.tree, serr = aida.AppendTreeState(nil, st); serr != nil {
		t.Fatal(serr)
	}
	// %v of a function or a nested array prints an address.
	r.out, r.err = addr.ReplaceAllString(a.Output(), "0x"), addr.ReplaceAllString(r.err, "0x")
	return r
}

func outOfFuel(r result) bool { return strings.Contains(r.err, script.ErrFuelExhausted.Error()) }

// compare runs src under both evaluators on every workload.
func compare(t testing.TB, src string) {
	if _, err := script.Compile(src); err != nil {
		return
	}
	for _, w := range workloads() {
		oracle, err := script.NewOracleAnalysis(src, w.decoder)
		if err != nil {
			t.Fatalf("compiles but does not parse: %v", err)
		}
		compiled, err := script.NewAnalysis(src, w.decoder)
		if err != nil {
			t.Fatal(err)
		}
		want := run(t, oracle, w.recs, len(w.recs), time.Second)
		got := run(t, compiled, w.recs, want.fed, time.Hour)
		if outOfFuel(want) {
			// What a unit of fuel buys is not part of the contract: the
			// tree-walker pays per node, the compiled code per iteration
			// and call, so past this point the two may differ.
			continue
		}
		if outOfFuel(got) {
			t.Fatalf("%s: compiled code ran out of fuel where the tree-walker did not\nscript:\n%s", w.decoder, src)
		}
		if got.err != want.err {
			t.Fatalf("%s: error\n compiled: %q\n walker:   %q\nscript:\n%s", w.decoder, got.err, want.err, src)
		}
		if got.out != want.out {
			t.Fatalf("%s: output\n compiled: %q\n walker:   %q\nscript:\n%s", w.decoder, got.out, want.out, src)
		}
		if !bytes.Equal(got.tree, want.tree) {
			t.Fatalf("%s: trees differ after %d records\nscript:\n%s", w.decoder, want.fed, src)
		}
	}
}

func FuzzCompiledMatchesTreeWalker(f *testing.F) {
	for _, s := range seedScripts(f) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) { compare(t, src) })
}

// The seeds must be there and must exercise the event path: a renamed
// file or a moved literal would otherwise shrink the corpus silently.
func TestSeedCorpusCoversTheRepositoryScripts(t *testing.T) {
	seeds := seedScripts(t)
	var perEvent int
	for _, s := range seeds {
		if strings.Contains(s, "function process") {
			perEvent++
		}
	}
	if len(seeds) < 60 || perEvent < 12 {
		t.Fatalf("%d seeds, %d with a process function", len(seeds), perEvent)
	}
}
