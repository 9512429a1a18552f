package aida

import "math"

// Histogram1D is a fixed-binning one-dimensional weighted histogram
// (AIDA IHistogram1D). The sample analyses of the paper — dijet invariant
// mass in the Higgs search — fill these on every worker.
type Histogram1D struct{ binned }

// h1Sums is the number of sums a Histogram1D cell keeps: Σw, Σw², Σw·x.
const h1Sums = 3

// NewHistogram1D creates a histogram with nBins over [lo, hi).
func NewHistogram1D(name, title string, nBins int, lo, hi float64) *Histogram1D {
	h := new(Histogram1D)
	h.init(name, titled(title), NewAxis(nBins, lo, hi), Axis{}, h1Sums)
	return h
}

// Kind implements Object.
func (h *Histogram1D) Kind() string { return "Histogram1D" }

// Axis returns the binning.
func (h *Histogram1D) Axis() Axis { return h.x }

// Fill adds x with weight 1.
func (h *Histogram1D) Fill(x float64) { h.FillW(x, 1) }

// FillW adds x with weight w. NaN coordinates are counted as overflow so
// they remain visible in entry totals instead of disappearing.
func (h *Histogram1D) FillW(x, w float64) {
	h.dirty = true
	s, in := h.x.slotOf(x)
	h.add(h.n, h.sums, s, in, x, w)
}

// FillN adds every xs[i] with weight ws[i]; a nil ws fills with weight
// 1. It panics when ws is non-nil with a different length, like a
// mismatched slice index would. It is the sequence of FillW calls, bit
// for bit, without the per-call overhead.
func (h *Histogram1D) FillN(xs, ws []float64) {
	if len(xs) == 0 {
		return
	}
	checkFillN(xs, xs, ws)
	h.dirty = true
	ax, n, sums := h.x, h.n, h.sums
	for i, x := range xs {
		s, in := ax.slotOf(x)
		h.add(n, sums, s, in, x, fillWeight(ws, i))
	}
}

// add is the one fill, into h's cells n and sums (parameters so that
// FillN's loop holds them in registers): slot s gains an entry, w, w²
// and w·x, and a fill in range adds to the totals.
func (h *Histogram1D) add(n []int64, sums []float64, s int, in bool, x, w float64) {
	n[s]++
	c := cell(sums, s, h1Sums)
	c[sumW] += w
	c[sumW2] += w * w
	c[sumWX] += w * x
	if in {
		h.in.w += w
		h.in.wx += w * x
		h.in.wx2 += w * x * x
	}
}

// BinEntries returns the number of fills in bin i
// (i may be Underflow or Overflow).
func (h *Histogram1D) BinEntries(i int) int64 { return h.n[h.x.slot(i)] }

// BinHeight returns the weighted height of bin i.
func (h *Histogram1D) BinHeight(i int) float64 { return cell(h.sums, h.x.slot(i), h1Sums)[sumW] }

// BinError returns the Poisson-style error sqrt(Σw²) of bin i.
func (h *Histogram1D) BinError(i int) float64 {
	return math.Sqrt(cell(h.sums, h.x.slot(i), h1Sums)[sumW2])
}

// BinMean returns the weighted mean x within bin i, or the bin center when
// the bin is empty.
func (h *Histogram1D) BinMean(i int) float64 {
	c := cell(h.sums, h.x.slot(i), h1Sums)
	if c[sumW] == 0 {
		if i >= 0 {
			return h.x.BinCenter(i)
		}
		return math.NaN()
	}
	return c[sumWX] / c[sumW]
}

// AllEntries includes the flow bins.
func (h *Histogram1D) AllEntries() int64 {
	var n int64
	for _, e := range h.n {
		n += e
	}
	return n
}

// SumBinHeights returns the total in-range weight.
func (h *Histogram1D) SumBinHeights() float64 { return h.in.w }

// Mean returns the weighted in-range mean.
func (h *Histogram1D) Mean() float64 { return mean(h.in.w, h.in.wx) }

// Rms returns the weighted in-range standard deviation.
func (h *Histogram1D) Rms() float64 { return rms(h.in.w, h.in.wx, h.in.wx2) }

// MaxBinHeight returns the largest in-range bin height.
func (h *Histogram1D) MaxBinHeight() float64 { return h.maxHeight() }

// MaxBin returns the index of the highest in-range bin (ties → lowest index).
func (h *Histogram1D) MaxBin() int {
	best, bestH := 0, math.Inf(-1)
	for i := 0; i < h.x.nBins; i++ {
		if hgt := h.sums[(i+1)*h1Sums]; hgt > bestH {
			best, bestH = i, hgt
		}
	}
	return best
}

// Scale multiplies all weights by f (entry counts are unchanged).
func (h *Histogram1D) Scale(f float64) { h.scale(f) }

// Clone returns a deep copy (used when snapshotting live histograms).
func (h *Histogram1D) Clone() *Histogram1D { return &Histogram1D{h.clone()} }

// MergeFrom implements Mergeable: adds src (a *Histogram1D with identical
// binning) into h.
func (h *Histogram1D) MergeFrom(src Object) error {
	if o, ok := src.(*Histogram1D); !ok || !h.merge(&o.binned) {
		return errIncompatible("merge", h, src)
	}
	return nil
}
