package aida

import (
	"math"
)

// DefaultCloudLimit is the number of unbinned entries a cloud holds before
// auto-converting to a histogram (AIDA's "maxEntries" semantics).
const DefaultCloudLimit = 10000

// cloudAutoBins is the binning used when a cloud converts itself.
const cloudAutoBins = 50

// Cloud1D stores raw (x, w) samples until a limit, then converts itself to
// a Histogram1D (AIDA ICloud1D). Clouds let analysis code defer binning
// decisions — useful when the interesting range is unknown before the first
// pass over a dataset.
type Cloud1D struct {
	name      string
	ann       *Annotation
	limit     int
	xs        []float64
	ws        []float64
	converted *Histogram1D
	// Exact moments maintained while unbinned.
	sumW, sumWX, sumWX2 float64
	lo, hi              float64
	dirty               bool // content mutations since the last ClearDirty
}

// NewCloud1D creates a cloud with the default auto-convert limit.
func NewCloud1D(name, title string) *Cloud1D { return NewCloud1DLimit(name, title, DefaultCloudLimit) }

// NewCloud1DLimit creates a cloud converting after limit entries
// (limit ≤ 0 means never).
func NewCloud1DLimit(name, title string, limit int) *Cloud1D {
	return &Cloud1D{name: name, ann: titled(title), limit: limit, lo: math.Inf(1), hi: math.Inf(-1),
		dirty: true} // born dirty — see binned.init
}

// Name implements Object.
func (c *Cloud1D) Name() string { return c.name }

// Kind implements Object.
func (c *Cloud1D) Kind() string { return "Cloud1D" }

// Annotations implements Object.
func (c *Cloud1D) Annotations() *Annotation { return c.ann }

// Title returns the display title (falls back to the name).
func (c *Cloud1D) Title() string { return displayTitle(c.ann, c.name) }

// IsConverted reports whether the cloud has collapsed into a histogram.
func (c *Cloud1D) IsConverted() bool { return c.converted != nil }

// Fill adds x with weight 1.
func (c *Cloud1D) Fill(x float64) { c.FillW(x, 1) }

// FillW adds x with weight w, converting when the limit is crossed.
func (c *Cloud1D) FillW(x, w float64) {
	c.dirty = true
	if c.converted != nil {
		c.converted.FillW(x, w)
		return
	}
	c.xs = append(c.xs, x)
	c.ws = append(c.ws, w)
	c.sumW += w
	c.sumWX += w * x
	c.sumWX2 += w * x * x
	if x < c.lo {
		c.lo = x
	}
	if x > c.hi {
		c.hi = x
	}
	if c.limit > 0 && len(c.xs) >= c.limit {
		c.Convert(cloudAutoBins)
	}
}

// Entries returns the number of samples (including converted ones).
func (c *Cloud1D) Entries() int64 {
	if c.converted != nil {
		return c.converted.AllEntries()
	}
	return int64(len(c.xs))
}

// EntriesCount implements Object.
func (c *Cloud1D) EntriesCount() int64 { return c.Entries() }

// Mean returns the weighted mean (exact while unbinned).
func (c *Cloud1D) Mean() float64 {
	if c.converted != nil {
		return c.converted.Mean()
	}
	return mean(c.sumW, c.sumWX)
}

// Rms returns the weighted standard deviation (exact while unbinned).
func (c *Cloud1D) Rms() float64 {
	if c.converted != nil {
		return c.converted.Rms()
	}
	return rms(c.sumW, c.sumWX, c.sumWX2)
}

// LowerEdge returns the smallest sample seen (∞ when empty, histogram edge
// after conversion).
func (c *Cloud1D) LowerEdge() float64 {
	if c.converted != nil {
		return c.converted.Axis().LowerEdge()
	}
	return c.lo
}

// UpperEdge returns the largest sample seen.
func (c *Cloud1D) UpperEdge() float64 {
	if c.converted != nil {
		return c.converted.Axis().UpperEdge()
	}
	return c.hi
}

// Convert bins the cloud into a histogram with nBins over the observed
// range (a degenerate range is padded so the single value is in range).
func (c *Cloud1D) Convert(nBins int) *Histogram1D {
	if c.converted != nil {
		return c.converted
	}
	c.dirty = true
	lo, hi := c.lo, c.hi
	if len(c.xs) == 0 {
		lo, hi = 0, 1
	}
	if lo == hi {
		lo, hi = lo-0.5, hi+0.5
	}
	// Widen the top edge slightly so the max sample lands in range.
	hi += (hi - lo) * 1e-9
	h := NewHistogram1D(c.name, c.Title(), nBins, lo, hi)
	for i, x := range c.xs {
		h.FillW(x, c.ws[i])
	}
	c.converted = h
	c.xs, c.ws = nil, nil
	return h
}

// Histogram returns the converted histogram, converting on demand.
func (c *Cloud1D) Histogram() *Histogram1D { return c.Convert(cloudAutoBins) }

// Values returns copies of the raw samples (nil after conversion).
func (c *Cloud1D) Values() (xs, ws []float64) {
	if c.converted != nil {
		return nil, nil
	}
	xs = make([]float64, len(c.xs))
	ws = make([]float64, len(c.ws))
	copy(xs, c.xs)
	copy(ws, c.ws)
	return xs, ws
}

// Reset clears everything, returning the cloud to unbinned mode.
func (c *Cloud1D) Reset() {
	c.dirty = true
	c.xs, c.ws = nil, nil
	c.converted = nil
	c.sumW, c.sumWX, c.sumWX2 = 0, 0, 0
	c.lo, c.hi = math.Inf(1), math.Inf(-1)
}

// Clone returns a deep copy.
func (c *Cloud1D) Clone() *Cloud1D {
	n := &Cloud1D{
		name: c.name, ann: c.ann.clone(), limit: c.limit,
		sumW: c.sumW, sumWX: c.sumWX, sumWX2: c.sumWX2, lo: c.lo, hi: c.hi,
		dirty: c.dirty,
	}
	n.xs = append([]float64(nil), c.xs...)
	n.ws = append([]float64(nil), c.ws...)
	if c.converted != nil {
		n.converted = c.converted.Clone()
	}
	return n
}

// Dirty implements Dirtyable. Fills may bypass the cloud entirely via
// the histogram handle Convert/Histogram return, so the converted
// histogram's own flag counts too.
func (c *Cloud1D) Dirty() bool { return c.dirty || (c.converted != nil && c.converted.Dirty()) }

// ClearDirty implements Dirtyable.
func (c *Cloud1D) ClearDirty() {
	c.dirty = false
	if c.converted != nil {
		c.converted.ClearDirty()
	}
}

// MergeFrom implements Mergeable. Merging an unbinned cloud into an
// unbinned cloud concatenates samples (converting if the limit trips);
// any converted operand forces conversion of both with the receiver's
// binning.
func (c *Cloud1D) MergeFrom(src Object) error {
	o, ok := src.(*Cloud1D)
	if !ok {
		return errIncompatible("merge", c, src)
	}
	c.dirty = true
	if c.converted == nil && o.converted == nil {
		for i, x := range o.xs {
			c.FillW(x, o.ws[i])
		}
		mergeAnnotations(c.ann, o.ann)
		return nil
	}
	// At least one side is binned: bin both and add. Note the receiver
	// converts over its own observed range; the source histogram is
	// refilled by bin mean, which is the standard AIDA lossy cloud merge.
	dst := c.Convert(cloudAutoBins)
	if o.converted == nil {
		for i, x := range o.xs {
			dst.FillW(x, o.ws[i])
		}
	} else {
		oh := o.converted
		for i := 0; i < oh.Axis().Bins(); i++ {
			if oh.BinEntries(i) > 0 {
				dst.FillW(oh.BinMean(i), oh.BinHeight(i))
			}
		}
		for _, flow := range []int{Underflow, Overflow} {
			if oh.BinEntries(flow) > 0 {
				dst.FillW(oh.BinMean(flow), oh.BinHeight(flow))
			}
		}
	}
	mergeAnnotations(c.ann, o.ann)
	return nil
}

// Cloud2D stores raw (x, y, w) samples until a limit, then converts to a
// Histogram2D (AIDA ICloud2D).
type Cloud2D struct {
	name      string
	ann       *Annotation
	limit     int
	xs, ys    []float64
	ws        []float64
	converted *Histogram2D
	xlo, xhi  float64
	ylo, yhi  float64
	dirty     bool // content mutations since the last ClearDirty
}

// NewCloud2D creates a 2D cloud with the default auto-convert limit.
func NewCloud2D(name, title string) *Cloud2D {
	return &Cloud2D{
		name: name, ann: titled(title), limit: DefaultCloudLimit,
		xlo: math.Inf(1), xhi: math.Inf(-1), ylo: math.Inf(1), yhi: math.Inf(-1),
		dirty: true, // born dirty — see binned.init
	}
}

// Name implements Object.
func (c *Cloud2D) Name() string { return c.name }

// Kind implements Object.
func (c *Cloud2D) Kind() string { return "Cloud2D" }

// Annotations implements Object.
func (c *Cloud2D) Annotations() *Annotation { return c.ann }

// Fill adds (x, y) with weight 1.
func (c *Cloud2D) Fill(x, y float64) { c.FillW(x, y, 1) }

// FillW adds (x, y) with weight w.
func (c *Cloud2D) FillW(x, y, w float64) {
	c.dirty = true
	if c.converted != nil {
		c.converted.FillW(x, y, w)
		return
	}
	c.xs = append(c.xs, x)
	c.ys = append(c.ys, y)
	c.ws = append(c.ws, w)
	c.xlo = math.Min(c.xlo, x)
	c.xhi = math.Max(c.xhi, x)
	c.ylo = math.Min(c.ylo, y)
	c.yhi = math.Max(c.yhi, y)
	if c.limit > 0 && len(c.xs) >= c.limit {
		c.Convert(cloudAutoBins, cloudAutoBins)
	}
}

// Entries returns the number of samples.
func (c *Cloud2D) Entries() int64 {
	if c.converted != nil {
		return c.converted.Entries()
	}
	return int64(len(c.xs))
}

// EntriesCount implements Object.
func (c *Cloud2D) EntriesCount() int64 { return c.Entries() }

// IsConverted reports whether the cloud has collapsed into a histogram.
func (c *Cloud2D) IsConverted() bool { return c.converted != nil }

// Convert bins the cloud into a 2D histogram over the observed ranges.
func (c *Cloud2D) Convert(nx, ny int) *Histogram2D {
	if c.converted != nil {
		return c.converted
	}
	c.dirty = true
	xlo, xhi, ylo, yhi := c.xlo, c.xhi, c.ylo, c.yhi
	if len(c.xs) == 0 {
		xlo, xhi, ylo, yhi = 0, 1, 0, 1
	}
	if xlo == xhi {
		xlo, xhi = xlo-0.5, xhi+0.5
	}
	if ylo == yhi {
		ylo, yhi = ylo-0.5, yhi+0.5
	}
	xhi += (xhi - xlo) * 1e-9
	yhi += (yhi - ylo) * 1e-9
	h := NewHistogram2D(c.name, c.ann.Get(TitleKey), nx, xlo, xhi, ny, ylo, yhi)
	for i := range c.xs {
		h.FillW(c.xs[i], c.ys[i], c.ws[i])
	}
	c.converted = h
	c.xs, c.ys, c.ws = nil, nil, nil
	return h
}

// Clone returns a deep copy.
func (c *Cloud2D) Clone() *Cloud2D {
	n := &Cloud2D{
		name: c.name, ann: c.ann.clone(), limit: c.limit,
		xlo: c.xlo, xhi: c.xhi, ylo: c.ylo, yhi: c.yhi,
		dirty: c.dirty,
	}
	n.xs = append([]float64(nil), c.xs...)
	n.ys = append([]float64(nil), c.ys...)
	n.ws = append([]float64(nil), c.ws...)
	if c.converted != nil {
		n.converted = c.converted.Clone()
	}
	return n
}

// Dirty implements Dirtyable (see Cloud1D.Dirty on the converted flag).
func (c *Cloud2D) Dirty() bool { return c.dirty || (c.converted != nil && c.converted.Dirty()) }

// ClearDirty implements Dirtyable.
func (c *Cloud2D) ClearDirty() {
	c.dirty = false
	if c.converted != nil {
		c.converted.ClearDirty()
	}
}

// MergeFrom implements Mergeable (same semantics as Cloud1D).
func (c *Cloud2D) MergeFrom(src Object) error {
	o, ok := src.(*Cloud2D)
	if !ok {
		return errIncompatible("merge", c, src)
	}
	c.dirty = true
	if c.converted == nil && o.converted == nil {
		for i := range o.xs {
			c.FillW(o.xs[i], o.ys[i], o.ws[i])
		}
		mergeAnnotations(c.ann, o.ann)
		return nil
	}
	dst := c.Convert(cloudAutoBins, cloudAutoBins)
	if o.converted == nil {
		for i := range o.xs {
			dst.FillW(o.xs[i], o.ys[i], o.ws[i])
		}
		mergeAnnotations(c.ann, o.ann)
		return nil
	}
	oh := o.converted
	for ix := 0; ix < oh.XAxis().Bins(); ix++ {
		for iy := 0; iy < oh.YAxis().Bins(); iy++ {
			if oh.BinEntries(ix, iy) > 0 {
				dst.FillW(oh.XAxis().BinCenter(ix), oh.YAxis().BinCenter(iy), oh.BinHeight(ix, iy))
			}
		}
	}
	mergeAnnotations(c.ann, o.ann)
	return nil
}
