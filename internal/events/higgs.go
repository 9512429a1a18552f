package events

import (
	"fmt"
	"strconv"

	"github.com/ipa-grid/ipa/internal/aida"
	"github.com/ipa-grid/ipa/internal/analysis"
)

// HiggsAnalysis is the reference analysis of the paper's §4 evaluation:
// "a Java algorithm that looks for Higgs Bosons in simulated Linear
// Collider data". It scans all pairs of energetic objects in each event and
// histograms the pair invariant mass; ZH signal events produce a peak at
// the Higgs mass over the smooth combinatorial background.
//
// Parameters (all optional):
//
//	minE     — jet energy threshold in GeV (default 20)
//	bins     — mass histogram bins (default 125)
//	maxMass  — histogram upper edge in GeV (default 250)
//	dir      — output tree directory (default "/higgs")
type HiggsAnalysis struct {
	minE    float64
	bins    int
	maxMass float64
	dir     string

	mass   *aida.Histogram1D
	jetE   *aida.Histogram1D
	nPart  *aida.Histogram1D
	cosTh  *aida.Histogram1D
	selEff *aida.Profile1D

	seen int64

	// Reusable batch buffers for the bulk fills: one FillN per histogram
	// per event instead of a Fill per sample (the all-pairs mass loop is
	// quadratic in selected objects), with zero per-event allocation
	// once the buffers have grown to the working-set size.
	sel    []FourVec
	selE   []float64
	selCT  []float64
	masses []float64
}

// NewHiggsAnalysis builds the analysis from client parameters.
func NewHiggsAnalysis(params map[string]string) (*HiggsAnalysis, error) {
	h := &HiggsAnalysis{minE: 20, bins: 125, maxMass: 250, dir: "/higgs"}
	if v, ok := params["minE"]; ok {
		f, err := strconv.ParseFloat(v, 64)
		if err != nil || f < 0 {
			return nil, fmt.Errorf("events: bad minE %q", v)
		}
		h.minE = f
	}
	if v, ok := params["bins"]; ok {
		n, err := strconv.Atoi(v)
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("events: bad bins %q", v)
		}
		h.bins = n
	}
	if v, ok := params["maxMass"]; ok {
		f, err := strconv.ParseFloat(v, 64)
		if err != nil || f <= 0 {
			return nil, fmt.Errorf("events: bad maxMass %q", v)
		}
		h.maxMass = f
	}
	if v, ok := params["dir"]; ok {
		h.dir = v
	}
	return h, nil
}

// Init implements analysis.Analysis.
func (h *HiggsAnalysis) Init(ctx *analysis.Context) error {
	var err error
	if h.mass, err = ctx.Tree.H1D(h.dir, "dijet-mass", "Dijet invariant mass [GeV]", h.bins, 0, h.maxMass); err != nil {
		return err
	}
	if h.jetE, err = ctx.Tree.H1D(h.dir, "jet-energy", "Selected object energy [GeV]", 100, 0, 300); err != nil {
		return err
	}
	if h.nPart, err = ctx.Tree.H1D(h.dir, "multiplicity", "Particles per event", 100, 0, 200); err != nil {
		return err
	}
	if h.cosTh, err = ctx.Tree.H1D(h.dir, "cos-theta", "cos(theta) of selected objects", 50, -1, 1); err != nil {
		return err
	}
	if h.selEff, err = ctx.Tree.P1D(h.dir, "selected-vs-mult", "Selected objects vs multiplicity", 40, 0, 200); err != nil {
		return err
	}
	h.seen = 0
	return nil
}

// Process implements analysis.Analysis. It reads the record in place:
// every particle's energy is read from its bytes, and only the objects
// that pass minE (a few of the ≈40 in an event) have their momentum
// decoded.
func (h *HiggsAnalysis) Process(rec []byte, ctx *analysis.Context) error {
	n, b, err := parseRecord(rec)
	if err != nil {
		return err
	}
	h.seen++
	h.nPart.Fill(float64(n))
	// Select energetic objects.
	sel := h.sel[:0]
	selE := h.selE[:0]
	selCT := h.selCT[:0]
	for ; len(b) > 0; b = b[particleSize:] {
		q := b[:particleSize:particleSize]
		e := float64(float32At(q[17:]))
		if e >= h.minE {
			v := FourVec{float64(float32At(q[5:])), float64(float32At(q[9:])), float64(float32At(q[13:])), e}
			sel = append(sel, v)
			selE = append(selE, e)
			selCT = append(selCT, v.CosTheta())
		}
	}
	h.sel, h.selE, h.selCT = sel, selE, selCT
	h.jetE.FillN(selE, nil)
	h.cosTh.FillN(selCT, nil)
	h.selEff.Fill(float64(n), float64(len(sel)))
	// All-pairs invariant mass — the O(n²) inner loop whose cost the
	// paper's 5.3 s/MB analysis coefficient reflects. Masses are batched
	// into one FillN so the bin arithmetic runs once per batch, not once
	// per call.
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

// End implements analysis.Analysis: annotate the mass histogram with the
// location of the peak in the search window.
func (h *HiggsAnalysis) End(ctx *analysis.Context) error {
	peak, height := h.PeakIn(100, 140)
	h.mass.Annotations().Set("higgs.peak", fmt.Sprintf("%.1f", peak))
	h.mass.Annotations().Set("higgs.peak-height", fmt.Sprintf("%.1f", height))
	h.mass.Annotations().Set("higgs.events", strconv.FormatInt(h.seen, 10))
	return nil
}

// PeakIn returns the center and height of the highest mass bin within
// [lo, hi] — the discovery statistic of the example.
func (h *HiggsAnalysis) PeakIn(lo, hi float64) (center, height float64) {
	ax := h.mass.Axis()
	best := -1.0
	for i := 0; i < ax.Bins(); i++ {
		c := ax.BinCenter(i)
		if c < lo || c > hi {
			continue
		}
		if v := h.mass.BinHeight(i); v > best {
			best, center = v, c
		}
	}
	return center, best
}

// MassHistogram exposes the dijet-mass histogram (for tests and examples).
func (h *HiggsAnalysis) MassHistogram() *aida.Histogram1D { return h.mass }

// HiggsAnalysisName is the registry key for the reference analysis.
const HiggsAnalysisName = "higgs-search"

func init() {
	analysis.Register(HiggsAnalysisName, func(params map[string]string) (analysis.Analysis, error) {
		return NewHiggsAnalysis(params)
	})
}
