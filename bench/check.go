package main

import (
	"fmt"
	"math"
	"sort"

	"github.com/ipa-grid/ipa/internal/aida"
	"github.com/ipa-grid/ipa/internal/merge"
)

// flatObject is an object's state reduced to what a comparison needs:
// shape (kind, name, binning), integer counts, and float sums.
type flatObject struct {
	shape  string
	ann    string
	counts []int64
	sums   []float64
}

func flatten(st aida.ObjectState) (flatObject, error) {
	switch {
	case st.H1 != nil:
		h := st.H1
		f := flatObject{
			shape: fmt.Sprintf("H1D %s %d [%g,%g]", h.Name, h.Bins, h.Lo, h.Hi),
			ann:   fmt.Sprint(h.Ann),
			sums:  []float64{h.SumW, h.SumWX, h.SumWX2},
		}
		for _, b := range h.Data {
			f.counts = append(f.counts, b.Entries)
			f.sums = append(f.sums, b.SumW, b.SumW2, b.SumWX)
		}
		return f, nil
	case st.H2 != nil:
		h := st.H2
		f := flatObject{
			shape: fmt.Sprintf("H2D %s %dx%d [%g,%g]x[%g,%g]", h.Name, h.NX, h.NY, h.XLo, h.XHi, h.YLo, h.YHi),
			ann:   fmt.Sprint(h.Ann),
			sums:  []float64{h.SumW, h.SumWX, h.SumWY, h.SumWX2, h.SumWY2},
		}
		for _, c := range h.Cells {
			f.counts = append(f.counts, c.Entries)
			f.sums = append(f.sums, c.SumW, c.SumW2, c.SumWX, c.SumWY)
		}
		return f, nil
	case st.P1 != nil:
		p := st.P1
		f := flatObject{
			shape: fmt.Sprintf("P1D %s %d [%g,%g]", p.Name, p.Bins, p.Lo, p.Hi),
			ann:   fmt.Sprint(p.Ann),
		}
		for _, b := range p.Data {
			f.counts = append(f.counts, b.Entries)
			f.sums = append(f.sums, b.SumW, b.SumWY, b.SumWY2)
		}
		return f, nil
	}
	return flatObject{}, fmt.Errorf("unsupported object kind in comparison")
}

// flatTree maps object path → flattened state.
type flatTree map[string]flatObject

func flattenTree(t *aida.Tree) (flatTree, error) {
	out := flatTree{}
	var firstErr error
	t.Walk(func(path string, obj aida.Object) {
		if firstErr != nil {
			return
		}
		st, err := aida.StateOf(obj)
		if err == nil {
			out[path], err = flatten(st)
		}
		if err != nil {
			firstErr = fmt.Errorf("%s: %w", path, err)
		}
	})
	return out, firstErr
}

func flattenReply(r *merge.PollReply) (flatTree, error) {
	out := flatTree{}
	for _, e := range r.Entries {
		st, err := e.State()
		if err == nil {
			out[e.Path], err = flatten(st)
		}
		if err != nil {
			return nil, fmt.Errorf("%s: %w", e.Path, err)
		}
	}
	return out, nil
}

// diffTrees returns nil when got equals want: same paths, shapes and
// integer counts, and every float sum within relTol of the reference
// (relTol 0 demands bit-identical sums and equal annotations, the
// fabric's "byte-identical to a flat sequential merge" promise; a
// positive tolerance is for sums whose addition order differs, and
// then annotations — which engines write per part — are not compared).
func diffTrees(got, want flatTree, relTol float64) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d objects, want %d (got %v)", len(got), len(want), sortedKeys(got))
	}
	for _, path := range sortedKeys(want) {
		w := want[path]
		g, ok := got[path]
		if !ok {
			return fmt.Errorf("%s: missing", path)
		}
		if g.shape != w.shape {
			return fmt.Errorf("%s: shape %q, want %q", path, g.shape, w.shape)
		}
		if relTol == 0 && g.ann != w.ann {
			return fmt.Errorf("%s: annotations %s, want %s", path, g.ann, w.ann)
		}
		if len(g.counts) != len(w.counts) || len(g.sums) != len(w.sums) {
			return fmt.Errorf("%s: state length differs", path)
		}
		for i := range w.counts {
			if g.counts[i] != w.counts[i] {
				return fmt.Errorf("%s: count[%d] = %d, want %d", path, i, g.counts[i], w.counts[i])
			}
		}
		for i := range w.sums {
			if !closeEnough(g.sums[i], w.sums[i], relTol) {
				return fmt.Errorf("%s: sum[%d] = %v, want %v", path, i, g.sums[i], w.sums[i])
			}
		}
	}
	return nil
}

func closeEnough(g, w, relTol float64) bool {
	if relTol == 0 {
		return math.Float64bits(g) == math.Float64bits(w)
	}
	return math.Abs(g-w) <= relTol*math.Max(math.Abs(w), 1)
}

func sortedKeys(t flatTree) []string {
	keys := make([]string, 0, len(t))
	for k := range t {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
