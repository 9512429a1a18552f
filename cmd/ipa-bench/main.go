// ipa-bench regenerates the tables and figures of the paper's evaluation
// (§4) from the calibrated discrete-event model — Table 1, Table 2, the
// fitted scaling equations and Figure 5 — plus the four ablations of the
// paper's own design choices (A1 dedicated queue, A2 hierarchical
// merging, A3 parallel GridFTP streams, A4 incremental polling). It
// prints paper-vs-simulated rows and writes the Figure 5 CSV/SVG
// artifacts under -out. The live system's performance is measured by
// bench/ (bash bench/run.sh), not here.
//
// Usage:
//
//	ipa-bench [-exp table1|table2|equations|figure5|queue|merge|streams|poll|all] [-out DIR]
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"github.com/ipa-grid/ipa/internal/aida"
	"github.com/ipa-grid/ipa/internal/perf"
)

const experiments = "table1|table2|equations|figure5|queue|merge|streams|poll|all"

func main() {
	exp := flag.String("exp", "all", "experiment to run: "+experiments)
	out := flag.String("out", "bench-out", "artifact output directory")
	flag.Parse()
	if err := run(*exp, *out); err != nil {
		fmt.Fprintln(os.Stderr, "ipa-bench:", err)
		os.Exit(1)
	}
}

func run(exp, outDir string) error {
	p := perf.PaperParams()
	w := os.Stdout
	all := exp == "all"
	switch exp {
	case "all", "table1", "table2", "equations", "figure5", "queue", "merge", "streams", "poll":
	default:
		return fmt.Errorf("unknown experiment %q (want %s)", exp, experiments)
	}

	if all || exp == "table1" {
		r := perf.Table1(p)
		if err := perf.RenderTable1(w, r); err != nil {
			return err
		}
		fmt.Fprintln(w)
	}
	if all || exp == "table2" {
		if err := perf.RenderTable2(w, perf.Table2(p)); err != nil {
			return err
		}
		fmt.Fprintln(w)
	}
	if all || exp == "equations" {
		f, err := perf.FitEquations(perf.EquationCalibratedParams())
		if err != nil {
			return err
		}
		fmt.Fprintln(w, "(equation-calibrated params: reproduces the paper's published fit)")
		if err := perf.RenderEquations(w, f); err != nil {
			return err
		}
		f2, err := perf.FitEquations(p)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, "\n(table-calibrated params: the coefficients the paper's own tables imply)")
		if err := perf.RenderEquations(w, f2); err != nil {
			return err
		}
		fmt.Fprintln(w)
	}
	if all || exp == "figure5" {
		r := perf.Figure5(p, nil, nil)
		if err := perf.RenderFigure5(w, r); err != nil {
			return err
		}
		if err := os.MkdirAll(outDir, 0o755); err != nil {
			return err
		}
		csv, err := os.Create(filepath.Join(outDir, "figure5.csv"))
		if err != nil {
			return err
		}
		if err := r.WriteCSV(csv); err != nil {
			csv.Close()
			return err
		}
		csv.Close()
		svg, err := os.Create(filepath.Join(outDir, "figure5-grid.svg"))
		if err != nil {
			return err
		}
		err = aida.WriteSVGHeatmap(svg, "Figure 5 — simulated Grid time (s)",
			"dataset size (MB)", "compute nodes", r.GridSurface(), 800, 500)
		svg.Close()
		if err != nil {
			return err
		}
		svg2, err := os.Create(filepath.Join(outDir, "figure5-advantage.svg"))
		if err != nil {
			return err
		}
		err = aida.WriteSVGHeatmap(svg2, "Figure 5 — local minus Grid (s; positive = Grid wins)",
			"dataset size (MB)", "compute nodes", r.AdvantageSurface(), 800, 500)
		svg2.Close()
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "\nwrote %s/figure5.csv, figure5-grid.svg, figure5-advantage.svg\n\n", outDir)
	}
	if all || exp == "queue" {
		r, err := perf.QueueAblation(8, 2*time.Second)
		if err != nil {
			return err
		}
		t := &aida.Table{Title: "A1 — engine start latency on a full farm (8 nodes)",
			Columns: []string{"Queue setup", "Latency"}}
		t.AddRow("dedicated interactive (preempting)", fmt.Sprintf("%d ms", r.DedicatedMS))
		shared := fmt.Sprintf("%d ms", r.SharedMS)
		if r.SharedTimedOut {
			shared = fmt.Sprintf("> %d ms (starved behind batch backlog)", r.SharedMS)
		}
		t.AddRow("shared batch queue", shared)
		fmt.Fprintln(w, t.String())
	}
	if all || exp == "merge" {
		rows, err := perf.MergeAblation(64, 4, 8, 8)
		if err != nil {
			return err
		}
		t := &aida.Table{Title: "A2 — flat vs hierarchical merging (64 workers x 4 rounds)",
			Columns: []string{"Mode", "Root publishes", "Wall ms"}}
		for _, r := range rows {
			t.AddRow(r.Mode, fmt.Sprintf("%d", r.RootPublishes), fmt.Sprintf("%d", r.WallMS))
		}
		fmt.Fprintln(w, t.String())
	}
	if all || exp == "streams" {
		rows := perf.StreamAblation(471, []int{1, 2, 4, 8, 16})
		t := &aida.Table{Title: "A3 — parallel GridFTP streams over a window-limited WAN (471 MB)",
			Columns: []string{"Streams", "Seconds", "Speedup"}}
		for _, r := range rows {
			t.AddRow(fmt.Sprintf("%d", r.Streams), fmt.Sprintf("%.1f", r.Seconds), fmt.Sprintf("%.2fx", r.Speedup))
		}
		fmt.Fprintln(w, t.String())
	}
	if all || exp == "poll" {
		r, err := perf.PollAblation(20)
		if err != nil {
			return err
		}
		t := &aida.Table{Title: "A4 — client poll size, 20 histograms, 1 changed",
			Columns: []string{"Strategy", "Bytes"}}
		t.AddRow("full tree", fmt.Sprintf("%d", r.FullBytes))
		t.AddRow("incremental", fmt.Sprintf("%d", r.IncrementalBytes))
		fmt.Fprintln(w, t.String())
	}
	return nil
}
