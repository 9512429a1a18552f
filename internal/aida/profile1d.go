package aida

import "math"

// Profile1D records the mean and spread of y as a function of binned x
// (AIDA IProfile1D) — e.g. mean analysis time per event vs event size.
type Profile1D struct{ binned }

// p1Sums is the number of sums a Profile1D cell keeps: Σw, Σw·y, Σw·y².
const p1Sums = 3

// NewProfile1D creates a profile with nBins over [lo, hi).
func NewProfile1D(name, title string, nBins int, lo, hi float64) *Profile1D {
	p := new(Profile1D)
	p.init(name, titled(title), NewAxis(nBins, lo, hi), Axis{}, p1Sums)
	return p
}

// Kind implements Object.
func (p *Profile1D) Kind() string { return "Profile1D" }

// Axis returns the binning.
func (p *Profile1D) Axis() Axis { return p.x }

// Fill adds the sample (x, y) with weight 1.
func (p *Profile1D) Fill(x, y float64) { p.FillW(x, y, 1) }

// FillW adds the sample (x, y) with weight w. A NaN x counts as
// overflow.
func (p *Profile1D) FillW(x, y, w float64) {
	p.dirty = true
	s, _ := p.x.slotOf(x)
	p.add(p.n, p.sums, s, y, w)
}

// FillN adds every sample (xs[i], ys[i]) with weight ws[i]; a nil ws
// fills with weight 1. Panics on mismatched slice lengths. It is the
// sequence of FillW calls, bit for bit.
func (p *Profile1D) FillN(xs, ys, ws []float64) {
	if len(xs) == 0 {
		return
	}
	checkFillN(xs, ys, ws)
	p.dirty = true
	ax, n, sums := p.x, p.n, p.sums
	for i, x := range xs {
		s, _ := ax.slotOf(x)
		p.add(n, sums, s, ys[i], fillWeight(ws, i))
	}
}

// add is the one fill, into p's cells n and sums (parameters, as in
// Histogram1D.add): slot s gains an entry, w, w·y and w·y².
func (p *Profile1D) add(n []int64, sums []float64, s int, y, w float64) {
	n[s]++
	c := cell(sums, s, p1Sums)
	c[sumW] += w
	c[sumPWY] += w * y
	c[sumPWY2] += w * y * y
}

// BinEntries returns the fills in bin i.
func (p *Profile1D) BinEntries(i int) int64 { return p.n[p.x.slot(i)] }

// BinHeight returns the mean y in bin i (0 when empty).
func (p *Profile1D) BinHeight(i int) float64 {
	c := cell(p.sums, p.x.slot(i), p1Sums)
	return mean(c[sumW], c[sumPWY])
}

// BinRms returns the y standard deviation in bin i.
func (p *Profile1D) BinRms(i int) float64 {
	c := cell(p.sums, p.x.slot(i), p1Sums)
	return rms(c[sumW], c[sumPWY], c[sumPWY2])
}

// BinError returns the error on the mean of bin i (rms/√n).
func (p *Profile1D) BinError(i int) float64 {
	n := p.n[p.x.slot(i)]
	if n == 0 {
		return 0
	}
	return p.BinRms(i) / math.Sqrt(float64(n))
}

// Clone returns a deep copy.
func (p *Profile1D) Clone() *Profile1D { return &Profile1D{p.clone()} }

// MergeFrom implements Mergeable.
func (p *Profile1D) MergeFrom(src Object) error {
	if o, ok := src.(*Profile1D); !ok || !p.merge(&o.binned) {
		return errIncompatible("merge", p, src)
	}
	return nil
}
