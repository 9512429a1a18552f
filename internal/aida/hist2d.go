package aida

import "math"

// Histogram2D is a fixed-binning two-dimensional weighted histogram
// (AIDA IHistogram2D), e.g. energy vs polar angle in the physics examples
// or the (X, N) timing surface of Figure 5.
type Histogram2D struct{ binned }

// h2Sums is the number of sums a Histogram2D cell keeps: Σw, Σw², Σw·x,
// Σw·y.
const h2Sums = 4

// NewHistogram2D creates a 2D histogram.
func NewHistogram2D(name, title string, nx int, xlo, xhi float64, ny int, ylo, yhi float64) *Histogram2D {
	h := new(Histogram2D)
	h.init(name, titled(title), NewAxis(nx, xlo, xhi), NewAxis(ny, ylo, yhi), h2Sums)
	return h
}

// Kind implements Object.
func (h *Histogram2D) Kind() string { return "Histogram2D" }

// XAxis returns the x binning.
func (h *Histogram2D) XAxis() Axis { return h.x }

// YAxis returns the y binning.
func (h *Histogram2D) YAxis() Axis { return h.y }

// slot returns the cell of bin (ix, iy), panicking on an index outside
// its axis.
func (h *Histogram2D) slot(ix, iy int) int { return h.x.slot(ix)*(h.y.nBins+2) + h.y.slot(iy) }

// Fill adds (x, y) with weight 1.
func (h *Histogram2D) Fill(x, y float64) { h.FillW(x, y, 1) }

// FillW adds (x, y) with weight w, and is the one 2D fill: cell (x, y)
// gains an entry, w, w², w·x and w·y, and a fill in range on both axes
// adds to the totals. A NaN coordinate counts as overflow on its axis.
func (h *Histogram2D) FillW(x, y, w float64) {
	h.dirty = true
	sx, inX := h.x.slotOf(x)
	sy, inY := h.y.slotOf(y)
	s := sx*(h.y.nBins+2) + sy
	h.n[s]++
	c := cell(h.sums, s, h2Sums)
	c[sumW] += w
	c[sumW2] += w * w
	c[sumWX] += w * x
	c[sumWY] += w * y
	if inX && inY {
		h.in.w += w
		h.in.wx += w * x
		h.in.wy += w * y
		h.in.wx2 += w * x * x
		h.in.wy2 += w * y * y
	}
}

// FillN adds every (xs[i], ys[i]) with weight ws[i]; a nil ws fills
// with weight 1. Panics on mismatched slice lengths. It is the sequence
// of FillW calls: the 2D fill is too large for Go to inline, so a batch
// saves only the per-call checks.
func (h *Histogram2D) FillN(xs, ys, ws []float64) {
	if len(xs) == 0 {
		return
	}
	checkFillN(xs, ys, ws)
	for i, x := range xs {
		h.FillW(x, ys[i], fillWeight(ws, i))
	}
}

// BinEntries returns fills in cell (ix, iy).
func (h *Histogram2D) BinEntries(ix, iy int) int64 { return h.n[h.slot(ix, iy)] }

// BinHeight returns the weighted height of cell (ix, iy).
func (h *Histogram2D) BinHeight(ix, iy int) float64 {
	return cell(h.sums, h.slot(ix, iy), h2Sums)[sumW]
}

// BinError returns sqrt(Σw²) for cell (ix, iy).
func (h *Histogram2D) BinError(ix, iy int) float64 {
	return math.Sqrt(cell(h.sums, h.slot(ix, iy), h2Sums)[sumW2])
}

// SumBinHeights returns total in-range weight.
func (h *Histogram2D) SumBinHeights() float64 { return h.in.w }

// MeanX returns the weighted in-range mean of x.
func (h *Histogram2D) MeanX() float64 { return mean(h.in.w, h.in.wx) }

// MeanY returns the weighted in-range mean of y.
func (h *Histogram2D) MeanY() float64 { return mean(h.in.w, h.in.wy) }

// RmsX returns the weighted in-range standard deviation of x.
func (h *Histogram2D) RmsX() float64 { return rms(h.in.w, h.in.wx, h.in.wx2) }

// RmsY returns the weighted in-range standard deviation of y.
func (h *Histogram2D) RmsY() float64 { return rms(h.in.w, h.in.wy, h.in.wy2) }

// MaxBinHeight returns the largest in-range cell height.
func (h *Histogram2D) MaxBinHeight() float64 { return h.maxHeight() }

// ProjectionX sums over y (in-range only) into a 1D histogram.
func (h *Histogram2D) ProjectionX() *Histogram1D {
	p := NewHistogram1D(h.name+"_px", h.Title()+" (X projection)", h.x.nBins, h.x.lo, h.x.hi)
	h.project(p, h.y, h.y.nBins+2, 1, sumWX)
	// The projection's in-range cells are exactly the 2D in-range cells,
	// so its totals are the 2D totals of its axis.
	p.in = moments{w: h.in.w, wx: h.in.wx, wx2: h.in.wx2}
	return p
}

// ProjectionY sums over x (in-range only) into a 1D histogram.
func (h *Histogram2D) ProjectionY() *Histogram1D {
	p := NewHistogram1D(h.name+"_py", h.Title()+" (Y projection)", h.y.nBins, h.y.lo, h.y.hi)
	h.project(p, h.x, 1, h.y.nBins+2, sumWY)
	p.in = moments{w: h.in.w, wx: h.in.wy, wx2: h.in.wy2} // as in ProjectionX
	return p
}

// project adds the in-range cells into p's bins, summing over the other
// axis: p's slot i gathers cells i*di + j*dj for j in range on other, and
// its Σw·x is sum xsum of those cells.
func (h *Histogram2D) project(p *Histogram1D, other Axis, di, dj, xsum int) {
	for i := 1; i <= p.x.nBins; i++ {
		pc := cell(p.sums, i, h1Sums)
		for j := 1; j <= other.nBins; j++ {
			s := i*di + j*dj
			c := cell(h.sums, s, h2Sums)
			p.n[i] += h.n[s]
			pc[sumW] += c[sumW]
			pc[sumW2] += c[sumW2]
			pc[sumWX] += c[xsum]
		}
	}
}

// Scale multiplies all weights by f.
func (h *Histogram2D) Scale(f float64) { h.scale(f) }

// Clone returns a deep copy.
func (h *Histogram2D) Clone() *Histogram2D { return &Histogram2D{h.clone()} }

// MergeFrom implements Mergeable.
func (h *Histogram2D) MergeFrom(src Object) error {
	if o, ok := src.(*Histogram2D); !ok || !h.merge(&o.binned) {
		return errIncompatible("merge", h, src)
	}
	return nil
}
