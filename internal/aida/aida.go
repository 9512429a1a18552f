// Package aida is a Go implementation of the analysis-object toolkit the
// paper builds on: AIDA, the "Abstract Interfaces for Data Analysis" (§3.7).
//
// It provides the managed objects user analysis code fills on the worker
// nodes — 1D/2D histograms, profiles, clouds, data-point sets — organised in
// a hierarchical named Tree, together with the merge algebra the AIDA
// manager service uses to combine per-worker partial results, an AIDA-XML
// serialisation, a compact binary wire encoding for snapshots, and ASCII/SVG
// renderers for presenting merged results to the client.
//
// All objects are single-goroutine by design (engines fill them in their
// event loop); the merge service synchronises externally.
package aida

import (
	"fmt"
	"sort"
)

// Object is anything that can live in a Tree.
type Object interface {
	// Name returns the object's leaf name within its directory.
	Name() string
	// Kind returns the AIDA type tag, e.g. "Histogram1D".
	Kind() string
	// Annotations returns the object's mutable annotation set.
	Annotations() *Annotation
	// EntriesCount returns the number of in-range fills (for displays).
	EntriesCount() int64
}

// Mergeable objects can absorb another object of the same type and binning.
// Merging is the paper's core result-combination operation: partial
// histograms from N analysis engines add into the session result.
type Mergeable interface {
	Object
	// MergeFrom adds src's content into the receiver.
	MergeFrom(src Object) error
}

// Annotation is an ordered set of key/value metadata strings
// (AIDA IAnnotation).
type Annotation struct {
	keys   []string
	values map[string]string
}

// NewAnnotation returns an empty annotation set.
func NewAnnotation() *Annotation {
	return &Annotation{values: make(map[string]string)}
}

// Set adds or replaces a key.
func (a *Annotation) Set(key, value string) {
	if _, ok := a.values[key]; !ok {
		a.keys = append(a.keys, key)
	}
	a.values[key] = value
}

// Get returns the value for key, or "".
func (a *Annotation) Get(key string) string { return a.values[key] }

// Has reports whether key is present.
func (a *Annotation) Has(key string) bool { _, ok := a.values[key]; return ok }

// Remove deletes a key if present.
func (a *Annotation) Remove(key string) {
	if _, ok := a.values[key]; !ok {
		return
	}
	delete(a.values, key)
	for i, k := range a.keys {
		if k == key {
			a.keys = append(a.keys[:i], a.keys[i+1:]...)
			break
		}
	}
}

// Keys returns the keys in insertion order.
func (a *Annotation) Keys() []string {
	out := make([]string, len(a.keys))
	copy(out, a.keys)
	return out
}

// Len returns the number of keys.
func (a *Annotation) Len() int { return len(a.keys) }

// clone returns a deep copy.
func (a *Annotation) clone() *Annotation {
	c := NewAnnotation()
	for _, k := range a.keys {
		c.Set(k, a.values[k])
	}
	return c
}

// mergeAnnotations keeps dst's values, adding any keys only src has.
func mergeAnnotations(dst, src *Annotation) {
	for _, k := range src.keys {
		if !dst.Has(k) {
			dst.Set(k, src.values[k])
		}
	}
}

// Title is the conventional annotation key for display titles.
const TitleKey = "Title"

// displayTitle is the title in ann, or name when there is none.
func displayTitle(ann *Annotation, name string) string {
	if t := ann.Get(TitleKey); t != "" {
		return t
	}
	return name
}

// Axis is a fixed-width binning over [lo, hi) with nBins bins.
// Bin indices: 0..nBins-1 in range; Underflow and Overflow are separate.
type Axis struct {
	nBins int
	lo    float64
	hi    float64
}

// Flow-bin sentinels for CoordToIndex.
const (
	Underflow = -1
	Overflow  = -2
)

// NewAxis constructs an axis; it panics on invalid binning since binning is
// analysis configuration, not runtime data.
func NewAxis(nBins int, lo, hi float64) Axis {
	if nBins <= 0 || !(lo < hi) {
		panic(fmt.Sprintf("aida: invalid axis [%v,%v) with %d bins", lo, hi, nBins))
	}
	return Axis{nBins: nBins, lo: lo, hi: hi}
}

// Bins returns the number of in-range bins.
func (a Axis) Bins() int { return a.nBins }

// LowerEdge returns the axis lower bound.
func (a Axis) LowerEdge() float64 { return a.lo }

// UpperEdge returns the axis upper bound.
func (a Axis) UpperEdge() float64 { return a.hi }

// BinWidth returns the width of each bin.
func (a Axis) BinWidth() float64 { return (a.hi - a.lo) / float64(a.nBins) }

// BinLowerEdge returns the lower edge of bin i.
func (a Axis) BinLowerEdge(i int) float64 { return a.lo + float64(i)*a.BinWidth() }

// BinUpperEdge returns the upper edge of bin i.
func (a Axis) BinUpperEdge(i int) float64 { return a.lo + float64(i+1)*a.BinWidth() }

// BinCenter returns the center of bin i.
func (a Axis) BinCenter(i int) float64 { return a.lo + (float64(i)+0.5)*a.BinWidth() }

// CoordToIndex maps x to a bin index, or Underflow/Overflow (NaN is
// Overflow).
func (a Axis) CoordToIndex(x float64) int {
	if s, _ := a.slotOf(x); s <= a.nBins {
		return s - 1 // slot 0 is Underflow
	}
	return Overflow
}

// slotOf returns the slot a fill at x lands in, 0 for underflow, 1…nBins
// in range and nBins+1 for overflow, and whether x is in range. NaN
// fails both comparisons and counts as overflow, so it stays visible in
// entry totals instead of disappearing.
func (a Axis) slotOf(x float64) (s int, in bool) {
	if x >= a.lo && x < a.hi {
		i := int(float64(a.nBins) * (x - a.lo) / (a.hi - a.lo))
		if i >= a.nBins { // guard float rounding at the upper edge
			i = a.nBins - 1
		}
		return i + 1, true
	}
	if x < a.lo {
		return 0, false
	}
	return a.nBins + 1, false
}

// slot returns the slot of bin i, which may be Underflow or Overflow. It
// panics on any other index outside the axis: bin indices come from the
// analysis author's code, and silently clamping would corrupt results.
func (a Axis) slot(i int) int {
	switch {
	case i == Underflow:
		return 0
	case i == Overflow:
		return a.nBins + 1
	case i < 0 || i >= a.nBins:
		panic(fmt.Sprintf("aida: bin %d out of range [0,%d)", i, a.nBins))
	}
	return i + 1
}

// Equal reports whether two axes have identical binning.
func (a Axis) Equal(b Axis) bool { return a.nBins == b.nBins && a.lo == b.lo && a.hi == b.hi }

// errIncompatible builds the standard merge-mismatch error.
func errIncompatible(op string, dst, src Object) error {
	return fmt.Errorf("aida: cannot %s %s %q into %s %q: incompatible", op, src.Kind(), src.Name(), dst.Kind(), dst.Name())
}

// sortedKeys returns map keys in sorted order (deterministic iteration).
func sortedKeys[M map[string]V, V any](m M) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
