// Benchmarks regenerating the paper's evaluation. One benchmark per table
// and figure (the printed rows come from cmd/ipa-bench; these measure the
// machinery and assert the headline shapes), plus micro-benchmarks for the
// framework's hot paths.
package ipa

import (
	"fmt"
	"path/filepath"
	"testing"

	"github.com/ipa-grid/ipa/internal/aida"
	"github.com/ipa-grid/ipa/internal/analysis"
	"github.com/ipa-grid/ipa/internal/dataset"
	"github.com/ipa-grid/ipa/internal/events"
	"github.com/ipa-grid/ipa/internal/merge"
	"github.com/ipa-grid/ipa/internal/perf"
	"github.com/ipa-grid/ipa/internal/script"
	"github.com/ipa-grid/ipa/internal/shard"
	"github.com/ipa-grid/ipa/internal/splitter"
)

// BenchmarkTable1 regenerates the Table 1 comparison (local vs 16-node
// Grid, 471 MB) and reports the simulated seconds as custom metrics.
func BenchmarkTable1(b *testing.B) {
	var r perf.Table1Result
	for i := 0; i < b.N; i++ {
		r = perf.Table1(perf.PaperParams())
	}
	b.ReportMetric(float64(r.Local.Total()), "local-s")
	b.ReportMetric(float64(r.Grid.Total()), "grid-s")
	b.ReportMetric(float64(r.Local.Total())/float64(r.Grid.Total()), "speedup")
}

// BenchmarkTable2 regenerates the five-row staging/analysis sweep.
func BenchmarkTable2(b *testing.B) {
	var rows []perf.Table2Row
	for i := 0; i < b.N; i++ {
		rows = perf.Table2(perf.PaperParams())
	}
	for _, row := range rows {
		b.ReportMetric(row.Analysis, fmt.Sprintf("analysis-n%d-s", row.Nodes))
	}
}

// BenchmarkTable2PerNode runs each node count as a sub-benchmark so the
// harness prints one line per paper row.
func BenchmarkTable2PerNode(b *testing.B) {
	for _, n := range []int{1, 2, 4, 8, 16} {
		n := n
		b.Run(fmt.Sprintf("nodes=%d", n), func(b *testing.B) {
			var run perf.GridRun
			for i := 0; i < b.N; i++ {
				run = perf.SimulateGrid(perf.PaperParams(), 471, n)
			}
			b.ReportMetric(float64(run.MoveParts), "move-parts-s")
			b.ReportMetric(float64(run.Analysis), "analysis-s")
		})
	}
}

// BenchmarkFigure5 sweeps the full surface grid.
func BenchmarkFigure5(b *testing.B) {
	var r perf.Figure5Result
	for i := 0; i < b.N; i++ {
		r = perf.Figure5(perf.PaperParams(), nil, nil)
	}
	b.ReportMetric(float64(len(r.Sizes)*len(r.Nodes)), "cells")
}

// BenchmarkEquationsFit refits the paper's §4 equations on simulated data.
func BenchmarkEquationsFit(b *testing.B) {
	var f perf.EquationFit
	var err error
	for i := 0; i < b.N; i++ {
		f, err = perf.FitEquations(perf.EquationCalibratedParams())
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(f.LocalSlope, "local-slope")
	b.ReportMetric(f.GridCoef[3], "grid-x-over-n")
}

// Micro-benchmarks for the framework's hot paths.

func makeEvents(b *testing.B, n int) [][]byte {
	b.Helper()
	g := events.NewGenerator(events.GenConfig{Seed: 1})
	recs := make([][]byte, n)
	for i := range recs {
		recs[i] = events.Marshal(nil, g.Next())
	}
	return recs
}

// BenchmarkScriptAnalysis measures the interpreted path per event —
// decode and evaluate — on the script the end-to-end script_rerun
// workload runs (bench/session.go scriptVariant).
func BenchmarkScriptAnalysis(b *testing.B) {
	recs := makeEvents(b, 1000)
	sa, err := script.NewAnalysis(`
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
	`, events.EventDecoderName)
	if err != nil {
		b.Fatal(err)
	}
	ctx := &analysis.Context{Tree: aida.NewTree()}
	if err := sa.Init(ctx); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := sa.Process(recs[i%len(recs)], ctx); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSplitter measures record-aware splitting throughput.
func BenchmarkSplitter(b *testing.B) {
	dir := b.TempDir()
	src := filepath.Join(dir, "src.ipa")
	if _, err := events.GenerateFile(src, events.GenConfig{Seed: 2}, 5000); err != nil {
		b.Fatal(err)
	}
	r, f, err := dataset.Open(src)
	if err != nil {
		b.Fatal(err)
	}
	defer f.Close()
	b.SetBytes(r.PayloadBytes())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		plan, err := splitter.SplitFile(src, 16, func(j int) string {
			return filepath.Join(dir, fmt.Sprintf("p%d.ipa", j))
		})
		if err != nil || plan.TotalRecords != 5000 {
			b.Fatalf("plan %+v err %v", plan, err)
		}
	}
}

// BenchmarkHistogramMerge measures the AIDA manager's merge step.
func BenchmarkHistogramMerge(b *testing.B) {
	mk := func() *aida.Histogram1D {
		h := aida.NewHistogram1D("h", "", 200, 0, 250)
		for i := 0; i < 10000; i++ {
			h.Fill(float64(i % 250))
		}
		return h
	}
	src := mk()
	dst := mk()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := dst.MergeFrom(src); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSnapshotPublish measures a full worker snapshot ingestion:
// a full-baseline delta of the worker's whole tree.
func BenchmarkSnapshotPublish(b *testing.B) {
	tree := aida.NewTree()
	for o := 0; o < 10; o++ {
		h, _ := tree.H1D("/a", fmt.Sprintf("h%d", o), "", 100, 0, 100)
		for i := 0; i < 1000; i++ {
			h.Fill(float64(i % 100))
		}
	}
	d, err := tree.FullDelta()
	if err != nil {
		b.Fatal(err)
	}
	m := merge.NewManager()
	var rep merge.PublishReply
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		err := m.Publish(merge.PublishArgs{
			SessionID: "s", WorkerID: "w", Seq: int64(i + 1), Delta: d,
		}, &rep)
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDeltaPublish measures one snapshot→publish→incremental-poll
// cycle against a manager holding 20 histograms of which one changes per
// cycle — the steady state of an interactive session, whose cost is
// proportional to what changed, not to total state.
func BenchmarkDeltaPublish(b *testing.B) {
	tree := aida.NewTree()
	hs := make([]*aida.Histogram1D, 20)
	for o := range hs {
		h, err := tree.H1D("/a", fmt.Sprintf("h%02d", o), "", 100, 0, 100)
		if err != nil {
			b.Fatal(err)
		}
		for i := 0; i < 1000; i++ {
			h.Fill(float64(i % 100))
		}
		hs[o] = h
	}
	m := merge.NewManager()
	var rep merge.PublishReply
	publish := func(seq int64) {
		d, err := tree.Delta()
		if err != nil {
			b.Fatal(err)
		}
		args := merge.PublishArgs{SessionID: "s", WorkerID: "w", Seq: seq, Delta: d}
		if err := m.Publish(args, &rep); err != nil || !rep.Accepted {
			b.Fatalf("publish seq %d: %v %+v", seq, err, rep)
		}
	}
	publish(1)
	var poll merge.PollReply
	if err := m.Poll(merge.PollArgs{SessionID: "s"}, &poll); err != nil {
		b.Fatal(err)
	}
	since := poll.Version
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hs[i%len(hs)].Fill(50)
		publish(int64(i + 2))
		poll = merge.PollReply{}
		if err := m.Poll(merge.PollArgs{SessionID: "s", SinceVersion: since}, &poll); err != nil {
			b.Fatal(err)
		}
		if !poll.Changed || len(poll.Entries) != 1 {
			b.Fatalf("cycle %d: poll = changed:%v entries:%d", i, poll.Changed, len(poll.Entries))
		}
		since = poll.Version
	}
}

// BenchmarkPollIncremental measures the client-facing poll alone while a
// delta-publishing worker keeps one of 50 histograms changing.
func BenchmarkPollIncremental(b *testing.B) {
	tree := aida.NewTree()
	for o := 0; o < 50; o++ {
		h, _ := tree.H1D("/a", fmt.Sprintf("h%02d", o), "", 100, 0, 100)
		for i := 0; i < 1000; i++ {
			h.Fill(float64(i % 100))
		}
	}
	m := merge.NewManager()
	var rep merge.PublishReply
	d, err := tree.Delta()
	if err != nil {
		b.Fatal(err)
	}
	if err := m.Publish(merge.PublishArgs{SessionID: "s", WorkerID: "w", Seq: 1, Delta: d}, &rep); err != nil {
		b.Fatal(err)
	}
	var warm merge.PollReply
	if err := m.Poll(merge.PollArgs{SessionID: "s"}, &warm); err != nil {
		b.Fatal(err)
	}
	tree.Get("/a/h00").(*aida.Histogram1D).Fill(1)
	d, err = tree.Delta()
	if err != nil {
		b.Fatal(err)
	}
	if err := m.Publish(merge.PublishArgs{SessionID: "s", WorkerID: "w", Seq: 2, Delta: d}, &rep); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var poll merge.PollReply
		if err := m.Poll(merge.PollArgs{SessionID: "s", SinceVersion: warm.Version}, &poll); err != nil {
			b.Fatal(err)
		}
		if len(poll.Entries) != 1 {
			b.Fatalf("poll entries = %d, want 1", len(poll.Entries))
		}
	}
}

// BenchmarkCatalogQueryAblation exercises the catalog query engine
// indirectly through the facade-level grid (kept small).
func BenchmarkMergeAblationTree(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := perf.MergeAblation(32, 2, 4, 8); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStreamAblation sweeps parallel-stream staging.
func BenchmarkStreamAblation(b *testing.B) {
	var rows []perf.StreamAblationRow
	for i := 0; i < b.N; i++ {
		rows = perf.StreamAblation(100, []int{1, 2, 4, 8})
	}
	b.ReportMetric(rows[len(rows)-1].Speedup, "speedup-8-streams")
}

// BenchmarkShardRouterPublishPoll measures one publish+incremental-poll
// cycle through the consistent-hash router over 4 manager shards — the
// per-call routing overhead on top of BenchmarkPollIncremental's flat
// manager.
func BenchmarkShardRouterPublishPoll(b *testing.B) {
	router := shard.NewRouter(0)
	for i := 0; i < 4; i++ {
		if err := router.AddShard(fmt.Sprintf("shard%d", i), merge.NewManager()); err != nil {
			b.Fatal(err)
		}
	}
	tree := aida.NewTree()
	hs := make([]*aida.Histogram1D, 20)
	for o := range hs {
		h, err := tree.H1D("/a", fmt.Sprintf("h%02d", o), "", 100, 0, 100)
		if err != nil {
			b.Fatal(err)
		}
		for i := 0; i < 1000; i++ {
			h.Fill(float64(i % 100))
		}
		hs[o] = h
	}
	var rep merge.PublishReply
	publish := func(seq int64) {
		d, err := tree.Delta()
		if err != nil {
			b.Fatal(err)
		}
		if err := router.Publish(merge.PublishArgs{SessionID: "s", WorkerID: "w", Seq: seq, Delta: d}, &rep); err != nil || !rep.Accepted {
			b.Fatalf("publish seq %d: %v %+v", seq, err, rep)
		}
	}
	publish(1)
	var poll merge.PollReply
	if err := router.Poll(merge.PollArgs{SessionID: "s"}, &poll); err != nil {
		b.Fatal(err)
	}
	since := poll.Version
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hs[i%len(hs)].Fill(50)
		publish(int64(i + 2))
		var reply merge.PollReply
		if err := router.Poll(merge.PollArgs{SessionID: "s", SinceVersion: since}, &reply); err != nil {
			b.Fatal(err)
		}
		if len(reply.Entries) != 1 {
			b.Fatalf("incremental poll carried %d entries", len(reply.Entries))
		}
		since = reply.Version
	}
}

// BenchmarkWarmPollFrameDecode measures the client-side decode of a warm
// poll's changed-object frame — the per-poll allocation source the frame
// free list eliminates: the decode lands in a recycled buffer and must
// report 0 allocs/op.
func BenchmarkWarmPollFrameDecode(b *testing.B) {
	h := aida.NewHistogram1D("h", "", 100, 0, 100)
	for i := 0; i < 1000; i++ {
		h.Fill(float64(i % 100))
	}
	st, err := aida.StateOf(h)
	if err != nil {
		b.Fatal(err)
	}
	frame, err := aida.EncodeObjectFrame(&st)
	if err != nil {
		b.Fatal(err)
	}
	raw := append([]byte(nil), frame...)
	var f aida.ObjectFrame
	// Warm the free list so the timed region sees steady state.
	for i := 0; i < 8; i++ {
		if err := f.GobDecode(raw); err != nil {
			b.Fatal(err)
		}
		f.Release()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := f.GobDecode(raw); err != nil {
			b.Fatal(err)
		}
		f.Release()
	}
}
