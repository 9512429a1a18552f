package aida

import (
	"math"
	"slices"
)

// binned is the one store behind Histogram1D, Histogram2D and Profile1D,
// and every operation that treats their bins as plain numbers: entry
// counts, reset, clone, the merge add and the scale. A kind decides only
// which sums a fill adds and what its statistics read back from them.
type binned struct {
	name string
	ann  *Annotation
	x, y Axis
	// The cells: a row-major grid over both axes with the flow cells
	// included. Slot 0 of an axis is its underflow, slots 1…bins are in
	// range and slot bins+1 is its overflow; a 1D kind's y axis has no
	// bins, so each x slot is one cell. Every cell has a fill count in n
	// and k weight sums, cell after cell in sums (see cell).
	n     []int64
	sums  []float64
	in    moments // the in-range totals of the histogram kinds
	dirty bool    // content mutations since the last ClearDirty
}

// The sums of a cell. Sum 0 is Σw, the height, in every kind.
const (
	sumW    = 0 // Σw
	sumW2   = 1 // Σw² in the histogram kinds
	sumWX   = 2 // Σw·x in the histogram kinds
	sumWY   = 3 // Σw·y in Histogram2D
	sumPWY  = 1 // Σw·y in Profile1D
	sumPWY2 = 2 // Σw·y² in Profile1D
)

// moments are a histogram's in-range totals: Σw, Σw·x, Σw·y, Σw·x² and
// Σw·y² over the fills that landed in range on every axis (the y sums
// stay 0 in one dimension).
type moments struct{ w, wx, wy, wx2, wy2 float64 }

// rowLen is the number of cells per x slot.
func rowLen(y Axis) int {
	if y.nBins == 0 {
		return 1
	}
	return y.nBins + 2
}

// init makes b an empty store with k sums per cell, in place. It is born
// dirty: a fresh object stored over an already-snapshotted path must
// still appear in the next delta.
func (b *binned) init(name string, ann *Annotation, x, y Axis, k int) {
	nc := (x.nBins + 2) * rowLen(y)
	b.name, b.ann, b.x, b.y, b.dirty = name, ann, x, y, true
	b.n, b.sums = make([]int64, nc), make([]float64, k*nc)
}

// titled returns a new annotation set holding title, if there is one.
func titled(title string) *Annotation {
	a := NewAnnotation()
	if title != "" {
		a.Set(TitleKey, title)
	}
	return a
}

// cell returns the k sums of cell c in sums.
func cell(sums []float64, c, k int) []float64 {
	c *= k
	return sums[c : c+k : c+k]
}

// k returns the number of sums per cell.
func (b *binned) k() int { return len(b.sums) / len(b.n) }

// Name implements Object.
func (b *binned) Name() string { return b.name }

// Annotations implements Object.
func (b *binned) Annotations() *Annotation { return b.ann }

// Title returns the display title (falls back to the name).
func (b *binned) Title() string { return displayTitle(b.ann, b.name) }

// Dirty implements Dirtyable.
func (b *binned) Dirty() bool { return b.dirty }

// ClearDirty implements Dirtyable.
func (b *binned) ClearDirty() { b.dirty = false }

// eachInRange calls fn with every cell that is in range on every axis.
func (b *binned) eachInRange(fn func(c int)) {
	lo, hi, stride := 1, b.y.nBins+1, rowLen(b.y)
	if b.y.nBins == 0 {
		lo, hi = 0, 1
	}
	for ix := 1; ix <= b.x.nBins; ix++ {
		for c := ix*stride + lo; c < ix*stride+hi; c++ {
			fn(c)
		}
	}
}

// Entries returns the number of in-range fills.
func (b *binned) Entries() int64 {
	var n int64
	b.eachInRange(func(c int) { n += b.n[c] })
	return n
}

// EntriesCount implements Object.
func (b *binned) EntriesCount() int64 { return b.Entries() }

// maxHeight returns the largest in-range height, or 0.
func (b *binned) maxHeight() float64 {
	max, k := 0.0, b.k()
	b.eachInRange(func(c int) {
		if v := b.sums[c*k]; v > max {
			max = v
		}
	})
	return max
}

// Reset clears all content, keeping binning and annotations.
func (b *binned) Reset() {
	b.dirty = true
	clear(b.n)
	clear(b.sums)
	b.in = moments{}
}

// clone returns a deep copy.
func (b *binned) clone() binned {
	c := *b
	c.ann = b.ann.clone()
	c.n = slices.Clone(b.n)
	c.sums = slices.Clone(b.sums)
	return c
}

// merge adds o's cells and totals into b, which must be of the same kind,
// and reports whether the binning matched. This is the operation the
// AIDA manager performs when collecting intermediate results from the
// engines (§3.7).
func (b *binned) merge(o *binned) bool {
	if !b.x.Equal(o.x) || !b.y.Equal(o.y) {
		return false
	}
	b.dirty = true
	n := b.n[:len(o.n)]
	for i, v := range o.n {
		n[i] += v
	}
	addTo(b.sums, o.sums)
	b.in.w += o.in.w
	b.in.wx += o.in.wx
	b.in.wy += o.in.wy
	b.in.wx2 += o.in.wx2
	b.in.wy2 += o.in.wy2
	mergeAnnotations(b.ann, o.ann)
	return true
}

// addTo adds src into dst element by element, four at a time: a plain
// loop's per-element overhead made a 100-bin Histogram1D merge about
// 1.5× slower than the per-bin struct adds it replaced.
func addTo(dst, src []float64) {
	dst = dst[:len(src)]
	for len(src) >= 4 {
		d, s := dst[:4:4], src[:4:4]
		d[0] += s[0]
		d[1] += s[1]
		d[2] += s[2]
		d[3] += s[3]
		dst, src = dst[4:], src[4:]
	}
	for i, v := range src {
		dst[i] += v
	}
}

// scale multiplies every weight of a histogram kind by f: Σw² by f², the
// other sums and the totals by f. Entry counts are unchanged.
func (b *binned) scale(f float64) {
	b.dirty = true
	k, ff := b.k(), f*f
	for c := range b.n {
		sums := cell(b.sums, c, k)
		for j := range sums {
			if j == sumW2 {
				sums[j] *= ff
			} else {
				sums[j] *= f
			}
		}
	}
	b.in.w *= f
	b.in.wx *= f
	b.in.wy *= f
	b.in.wx2 *= f
	b.in.wy2 *= f
}

// mean is the weighted mean Σwx/Σw, or 0 without weight.
func mean(sw, swx float64) float64 {
	if sw == 0 {
		return 0
	}
	return swx / sw
}

// rms is the weighted standard deviation from Σw, Σwx and Σwx², or 0
// without weight; a variance that rounding pushed below 0 counts as 0.
func rms(sw, swx, swx2 float64) float64 {
	if sw == 0 {
		return 0
	}
	m := swx / sw
	v := swx2/sw - m*m
	if v < 0 {
		v = 0
	}
	return math.Sqrt(v)
}

// fillWeight is sample i's weight in a bulk fill: ws[i], or 1 for a nil ws.
func fillWeight(ws []float64, i int) float64 {
	if ws == nil {
		return 1
	}
	return ws[i]
}

// checkFillN panics when a bulk fill's slices differ in length, like a
// mismatched slice index would. ws may be nil; a 1D fill passes xs as ys.
func checkFillN(xs, ys, ws []float64) {
	if len(ys) != len(xs) || (ws != nil && len(ws) != len(xs)) {
		panic("aida: FillN slice length mismatch")
	}
}
