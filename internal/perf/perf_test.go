package perf

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"time"
)

func within(t *testing.T, name string, got, want, relTol float64) {
	t.Helper()
	if want == 0 {
		if math.Abs(got) > relTol {
			t.Fatalf("%s = %v, want ≈0", name, got)
		}
		return
	}
	if math.Abs(got-want)/math.Abs(want) > relTol {
		t.Fatalf("%s = %.1f, want %.1f ±%.0f%%", name, got, want, relTol*100)
	}
}

// Table 2 shape: the calibrated DES must land on the paper's anchor cells
// and preserve monotonicity everywhere.
func TestTable2MatchesPaperShape(t *testing.T) {
	sim := Table2(PaperParams())
	paper := PaperTable2()
	if len(sim) != 5 {
		t.Fatalf("%d rows", len(sim))
	}
	// Anchors used for calibration must be tight.
	within(t, "move-whole@1", sim[0].MoveWhole, paper[0].MoveWhole, 0.02)
	within(t, "split@1", sim[0].Split, paper[0].Split, 0.05)
	within(t, "move-parts@1", sim[0].MoveParts, paper[0].MoveParts, 0.05)
	within(t, "move-parts@16", sim[4].MoveParts, paper[4].MoveParts, 0.05)
	within(t, "analysis@1", sim[0].Analysis, paper[0].Analysis, 0.02)
	within(t, "analysis@16", sim[4].Analysis, paper[4].Analysis, 0.05)
	// Non-anchor cells: shape only (monotone decrease, bounded error).
	for i := 1; i < 5; i++ {
		if sim[i].MoveParts >= sim[i-1].MoveParts {
			t.Fatalf("move-parts not decreasing at row %d", i)
		}
		if sim[i].Analysis >= sim[i-1].Analysis {
			t.Fatalf("analysis not decreasing at row %d", i)
		}
		within(t, "move-whole flat", sim[i].MoveWhole, 63, 0.05)
	}
	// Paper deviation in mid rows stays bounded (documented residuals:
	// the paper's middle points are single anecdotal runs whose implied
	// parallel efficiency is not consistent with any 2-parameter model —
	// see EXPERIMENTS.md). Move-parts ≤ 20%; analysis ≤ 40%.
	for i := range sim {
		p := paper[i]
		if math.Abs(sim[i].MoveParts-p.MoveParts)/p.MoveParts > 0.20 {
			t.Fatalf("move-parts row %d deviates >20%%: sim %.0f vs paper %.0f", i, sim[i].MoveParts, p.MoveParts)
		}
		if math.Abs(sim[i].Analysis-p.Analysis)/p.Analysis > 0.40 {
			t.Fatalf("analysis row %d deviates >40%%: sim %.0f vs paper %.0f", i, sim[i].Analysis, p.Analysis)
		}
	}
}

func TestTable1ShapeHolds(t *testing.T) {
	r := Table1(PaperParams())
	// Local: calibration anchors.
	within(t, "local get", float64(r.Local.GetDataset), r.Paper.LocalGet, 0.02)
	within(t, "local analysis", float64(r.Local.Analysis), r.Paper.LocalAnalysis, 0.02)
	// Grid side is cross-calibrated from Table 2; Table 1's own numbers
	// disagree with Table 2 (documented) so only the decision-relevant
	// shape is asserted: the Grid wins by a large factor.
	speedup := float64(r.Local.Total()) / float64(r.Grid.Total())
	if speedup < 5 {
		t.Fatalf("grid speedup %.1fx, paper shows ~10x", speedup)
	}
	if r.Grid.StageTotal() <= 0 || r.Grid.Analysis <= 0 {
		t.Fatal("degenerate grid run")
	}
	// For the large dataset, staging dominates analysis at 16 nodes —
	// the paper's "most of the time is spent in splitting and moving".
	if float64(r.Grid.StageTotal()) < float64(r.Grid.Analysis) {
		t.Fatalf("staging (%.0f) should dominate analysis (%.0f) at 16 nodes",
			float64(r.Grid.StageTotal()), float64(r.Grid.Analysis))
	}
}

func TestFigure5CrossoverNearPaper(t *testing.T) {
	// Paper: "for large dataset (> ~10 MB) ... it is much better to use
	// the Grid". Analytic crossover at 16 nodes ≈ 5-6 MB; simulated
	// should be the same order of magnitude (< 30 MB).
	pc := Crossover(16, PaperLocalT, PaperGridT)
	if pc < 1 || pc > 15 {
		t.Fatalf("paper-model crossover at 16 nodes = %.1f MB", pc)
	}
	p := PaperParams()
	simLocal := func(x float64) float64 { return float64(SimulateLocal(p, x).Total()) }
	simGrid := func(x float64, n int) float64 { return float64(SimulateGrid(p, x, n).Total()) }
	sc := Crossover(16, simLocal, simGrid)
	if sc < 1 || sc > 30 {
		t.Fatalf("simulated crossover at 16 nodes = %.1f MB", sc)
	}
	// At 471 MB the Grid must win for every N ≥ 2 in both models.
	for _, n := range []int{2, 4, 8, 16} {
		if PaperGridT(471, n) >= PaperLocalT(471) {
			t.Fatalf("paper model: grid loses at 471 MB, N=%d", n)
		}
		if simGrid(471, n) >= simLocal(471) {
			t.Fatalf("sim: grid loses at 471 MB, N=%d", n)
		}
	}
}

func TestFigure5SurfacesConsistent(t *testing.T) {
	r := Figure5(PaperParams(), []float64{10, 100, 471}, []int{1, 4, 16})
	// Grid time decreases with N at the paper's 471 MB operating point.
	// (At very small sizes the per-part split overhead makes extra nodes
	// a net loss — physical behaviour the paper's simplified model hides.)
	last := len(r.Sizes) - 1
	for j := 1; j < len(r.Nodes); j++ {
		if r.SimGrid[last][j] >= r.SimGrid[last][j-1] {
			t.Fatalf("grid surface not decreasing in N at 471 MB")
		}
	}
	// Local time independent of N, increasing with size.
	for j := range r.Nodes {
		if r.SimLocal[0][j] != r.SimLocal[0][0] {
			t.Fatal("local surface depends on N")
		}
	}
	var buf bytes.Buffer
	if err := r.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "size_mb,nodes") {
		t.Fatal("CSV header missing")
	}
	if got := strings.Count(buf.String(), "\n"); got != 1+3*3 {
		t.Fatalf("CSV rows = %d", got)
	}
}

func TestFitEquationsRecoverTableModel(t *testing.T) {
	// With table-calibrated params the refit must recover OUR model's
	// analytic coefficients (validating the whole sweep+fit machinery).
	p := PaperParams()
	f, err := FitEquations(p)
	if err != nil {
		t.Fatal(err)
	}
	wantLocal := 1/p.ClientWANMBps + 1/p.LocalMBps // 5.74 s/MB from Table 1
	within(t, "local slope", f.LocalSlope, wantLocal, 0.01)
	if f.LocalR2 < 0.999 {
		t.Fatalf("local R² = %v", f.LocalR2)
	}
	if f.GridR2 < 0.98 {
		t.Fatalf("grid R² = %v", f.GridR2)
	}
	wantA := 1/p.SiteWANMBps + 1/p.SplitMBps + p.SerialFrac/p.EngineMBps
	wantD := 1/p.LANMBps + (1-p.SerialFrac)/p.EngineMBps
	within(t, "grid X coef", f.GridCoef[0], wantA, 0.05)
	within(t, "grid const", f.GridCoef[1], p.XferInitS+p.CodeStageS, 0.15)
	within(t, "grid X/N coef", f.GridCoef[3], wantD, 0.05)
}

func TestFitEquationsRecoverPaperEquations(t *testing.T) {
	// With equation-calibrated params the refit must land on the
	// paper's published coefficients — the exact Figure 5 model.
	f, err := FitEquations(EquationCalibratedParams())
	if err != nil {
		t.Fatal(err)
	}
	within(t, "local slope", f.LocalSlope, PaperLocalSlope(), 0.01)
	within(t, "grid X", f.GridCoef[0], 0.38, 0.05)
	within(t, "grid const", f.GridCoef[1], 53, 0.05)
	within(t, "grid X/N", f.GridCoef[3], 5.3, 0.05)
	if f.GridR2 < 0.995 {
		t.Fatalf("grid R² = %v", f.GridR2)
	}
}

func TestQueueAblationDedicatedWins(t *testing.T) {
	r, err := QueueAblation(4, 300*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if !r.SharedTimedOut {
		t.Fatal("shared queue should starve behind the batch backlog")
	}
	if r.DedicatedMS > 250 {
		t.Fatalf("dedicated queue latency %d ms", r.DedicatedMS)
	}
}

func TestMergeAblationReducesRootLoad(t *testing.T) {
	rows, err := MergeAblation(32, 3, 4, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("%d rows", len(rows))
	}
	flat, tree := rows[0], rows[1]
	if flat.RootPublishes != 32*3 {
		t.Fatalf("flat root publishes = %d, want %d", flat.RootPublishes, 32*3)
	}
	// 4 groups of 8 forward once per full group round (3 rounds) plus
	// the final Flush each: 4 × (3 + 1).
	if tree.RootPublishes != 16 {
		t.Fatalf("tree root publishes = %d, want 16", tree.RootPublishes)
	}
}

func TestStreamAblationParallelWins(t *testing.T) {
	rows := StreamAblation(100, []int{1, 2, 4, 8})
	if rows[0].Speedup != 1 {
		t.Fatal("baseline speedup != 1")
	}
	// 1 stream: 100/1.4 ≈ 71 s; 4 streams: 100/(4·1.4) ≈ 18 s; 8 streams
	// saturate the 10 MB/s link: 100/10 = 10 s.
	within(t, "1 stream", rows[0].Seconds, 100/1.4+0.2, 0.02)
	within(t, "8 streams", rows[3].Seconds, 10+0.2, 0.05)
	for i := 1; i < len(rows); i++ {
		if rows[i].Seconds >= rows[i-1].Seconds {
			t.Fatalf("more streams slower at row %d", i)
		}
	}
}

func TestPollAblationIncrementalSmaller(t *testing.T) {
	r, err := PollAblation(20)
	if err != nil {
		t.Fatal(err)
	}
	if r.IncrementalBytes*5 > r.FullBytes {
		t.Fatalf("incremental %d B vs full %d B — no saving", r.IncrementalBytes, r.FullBytes)
	}
}

func TestRenderersProduceTables(t *testing.T) {
	var buf bytes.Buffer
	if err := RenderTable1(&buf, Table1(PaperParams())); err != nil {
		t.Fatal(err)
	}
	if err := RenderTable2(&buf, Table2(PaperParams())); err != nil {
		t.Fatal(err)
	}
	f, _ := FitEquations(PaperParams())
	if err := RenderEquations(&buf, f); err != nil {
		t.Fatal(err)
	}
	r := Figure5(PaperParams(), []float64{10, 471}, []int{1, 16})
	if err := RenderFigure5(&buf, r); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"Table 1", "Table 2", "fitted equations", "crossover", "Speedup"} {
		if !strings.Contains(out, want) {
			t.Fatalf("report missing %q:\n%s", want, out)
		}
	}
}
