package script

import (
	"fmt"
	"math"

	"github.com/ipa-grid/ipa/internal/aida"
)

// Host-object bindings exposing AIDA to scripts. A script books and fills
// histograms through the global `tree` object, exactly as the paper's PNUTS
// analyses did through the Java AIDA API (§3.7):
//
//	h = tree.h1d("/higgs", "mass", "Dijet mass", 125, 0, 250)
//	function process(ev) { ... h.fill(m) ... }
//
// Every binding declares its methods in a Members table, registered
// below, so h.fill(x) in a per-event loop finds fill at load time and
// neither builds a method value nor boxes x.

func init() {
	RegisterMembers(treeMembers)
	RegisterMembers(h1dMembers)
	RegisterMembers(h2dMembers)
	RegisterMembers(p1dMembers)
	RegisterMembers(c1dMembers)
}

// TreeObject wraps an aida.Tree for script access.
type TreeObject struct {
	Tree *aida.Tree
}

// TypeName implements HostObject.
func (t *TreeObject) TypeName() string { return "tree" }

// Member implements HostObject.
func (t *TreeObject) Member(name string) (Value, bool) { return MemberOf(t, name) }

// Get implements Getter.
func (t *TreeObject) Get(name string) (Val, bool) { return treeMembers.Get(t, name) }

var treeMembers = Members[*TreeObject]{
	"h1d": {Call: func(t *TreeObject, args []Val) (Val, error) {
		dir, nm, title, bins, lo, hi, err := histArgs(args)
		if err != nil {
			return Val{}, fmt.Errorf("tree.h1d: %v", err)
		}
		if existing, ok := t.Tree.Get(dir + "/" + nm).(*aida.Histogram1D); ok {
			return ValOf(&H1DObject{H: existing}), nil
		}
		h, err := t.Tree.H1D(dir, nm, title, bins, lo, hi)
		if err != nil {
			return Val{}, err
		}
		return ValOf(&H1DObject{H: h}), nil
	}},
	"h2d": {Call: func(t *TreeObject, args []Val) (Val, error) {
		if len(args) != 9 {
			return Val{}, fmt.Errorf("tree.h2d expects (dir, name, title, nx, xlo, xhi, ny, ylo, yhi)")
		}
		dir, err1 := args[0].Str()
		nm, err2 := args[1].Str()
		title, err3 := args[2].Str()
		if err1 != nil || err2 != nil || err3 != nil {
			return Val{}, fmt.Errorf("tree.h2d: dir, name, title must be strings")
		}
		var nums [6]float64
		for i := 0; i < 6; i++ {
			f, err := args[3+i].Number()
			if err != nil {
				return Val{}, fmt.Errorf("tree.h2d: %v", err)
			}
			nums[i] = f
		}
		nx, err := axisBins(nums[0], nums[1], nums[2])
		if err != nil {
			return Val{}, fmt.Errorf("tree.h2d: %v", err)
		}
		ny, err := axisBins(nums[3], nums[4], nums[5])
		if err != nil {
			return Val{}, fmt.Errorf("tree.h2d: %v", err)
		}
		if nx*ny > maxBins {
			return Val{}, fmt.Errorf("tree.h2d: %d x %d bins is too many", nx, ny)
		}
		if existing, ok := t.Tree.Get(dir + "/" + nm).(*aida.Histogram2D); ok {
			return ValOf(&H2DObject{H: existing}), nil
		}
		h, err := t.Tree.H2D(dir, nm, title, nx, nums[1], nums[2], ny, nums[4], nums[5])
		if err != nil {
			return Val{}, err
		}
		return ValOf(&H2DObject{H: h}), nil
	}},
	"p1d": {Call: func(t *TreeObject, args []Val) (Val, error) {
		dir, nm, title, bins, lo, hi, err := histArgs(args)
		if err != nil {
			return Val{}, fmt.Errorf("tree.p1d: %v", err)
		}
		if existing, ok := t.Tree.Get(dir + "/" + nm).(*aida.Profile1D); ok {
			return ValOf(&P1DObject{P: existing}), nil
		}
		p, err := t.Tree.P1D(dir, nm, title, bins, lo, hi)
		if err != nil {
			return Val{}, err
		}
		return ValOf(&P1DObject{P: p}), nil
	}},
	"c1d": {Call: func(t *TreeObject, args []Val) (Val, error) {
		if len(args) != 3 {
			return Val{}, fmt.Errorf("tree.c1d expects (dir, name, title)")
		}
		dir, err1 := args[0].Str()
		nm, err2 := args[1].Str()
		title, err3 := args[2].Str()
		if err1 != nil || err2 != nil || err3 != nil {
			return Val{}, fmt.Errorf("tree.c1d: arguments must be strings")
		}
		if existing, ok := t.Tree.Get(dir + "/" + nm).(*aida.Cloud1D); ok {
			return ValOf(&C1DObject{C: existing}), nil
		}
		c, err := t.Tree.C1D(dir, nm, title)
		if err != nil {
			return Val{}, err
		}
		return ValOf(&C1DObject{C: c}), nil
	}},
	"ls": {Call: func(t *TreeObject, args []Val) (Val, error) {
		path := "/"
		if len(args) == 1 {
			p, err := args[0].Str()
			if err != nil {
				return Val{}, err
			}
			path = p
		}
		names, err := t.Tree.Ls(path)
		if err != nil {
			return Val{}, err
		}
		arr := &Array{}
		for _, n := range names {
			arr.Elems = append(arr.Elems, n)
		}
		return Val{k: kRef, r: arr}, nil
	}},
}

func histArgs(args []Val) (dir, name, title string, bins int, lo, hi float64, err error) {
	if len(args) != 6 {
		return "", "", "", 0, 0, 0, fmt.Errorf("expected (dir, name, title, bins, lo, hi), got %d args", len(args))
	}
	if dir, err = args[0].Str(); err != nil {
		return
	}
	if name, err = args[1].Str(); err != nil {
		return
	}
	if title, err = args[2].Str(); err != nil {
		return
	}
	var b float64
	if b, err = args[3].Number(); err != nil {
		return
	}
	if lo, err = args[4].Number(); err != nil {
		return
	}
	if hi, err = args[5].Number(); err != nil {
		return
	}
	bins, err = axisBins(b, lo, hi)
	return
}

// maxBins bounds the bins of one booked object: binning comes from the
// script, and aida panics on (or allocates) whatever it is given.
const maxBins = 1 << 20

// axisBins checks a script's binning and returns the bin count.
func axisBins(bins, lo, hi float64) (int, error) {
	if !(bins >= 1 && bins <= maxBins && lo < hi) || math.IsInf(lo, 0) || math.IsInf(hi, 0) {
		return 0, fmt.Errorf("invalid axis [%v,%v) with %v bins", lo, hi, bins)
	}
	return int(bins), nil
}

// binArg checks the (bin) argument of binHeight and binCenter.
func binArg(name string, h *aida.Histogram1D, args []Val) (int, error) {
	if len(args) != 1 {
		return 0, fmt.Errorf("%s expects (bin)", name)
	}
	f, err := args[0].Number()
	if err != nil {
		return 0, err
	}
	if i := int(f); i < 0 || i >= h.Axis().Bins() {
		return 0, fmt.Errorf("%s: bin %d out of range", name, i)
	}
	return int(f), nil
}

// H1DObject wraps a Histogram1D.
type H1DObject struct {
	H *aida.Histogram1D
}

// TypeName implements HostObject.
func (h *H1DObject) TypeName() string { return "histogram1d" }

// Member implements HostObject.
func (h *H1DObject) Member(name string) (Value, bool) { return MemberOf(h, name) }

// Get implements Getter.
func (h *H1DObject) Get(name string) (Val, bool) { return h1dMembers.Get(h, name) }

var h1dMembers = Members[*H1DObject]{
	"fill": {Call: func(h *H1DObject, args []Val) (Val, error) {
		if len(args) != 1 && len(args) != 2 {
			return Val{}, fmt.Errorf("fill expects (x) or (x, weight)")
		}
		x, err := args[0].Number()
		if err != nil {
			return Val{}, fmt.Errorf("fill: %v", err)
		}
		if len(args) == 1 {
			h.H.Fill(x)
			return Val{}, nil
		}
		w, err := args[1].Number()
		if err != nil {
			return Val{}, fmt.Errorf("fill: %v", err)
		}
		h.H.FillW(x, w)
		return Val{}, nil
	}},
	"mean":    {Call: func(h *H1DObject, _ []Val) (Val, error) { return NumVal(h.H.Mean()), nil }},
	"rms":     {Call: func(h *H1DObject, _ []Val) (Val, error) { return NumVal(h.H.Rms()), nil }},
	"entries": {Call: func(h *H1DObject, _ []Val) (Val, error) { return NumVal(float64(h.H.Entries())), nil }},
	"maxBinHeight": {Call: func(h *H1DObject, _ []Val) (Val, error) {
		return NumVal(h.H.MaxBinHeight()), nil
	}},
	"binHeight": {Call: func(h *H1DObject, args []Val) (Val, error) {
		i, err := binArg("binHeight", h.H, args)
		if err != nil {
			return Val{}, err
		}
		return NumVal(h.H.BinHeight(i)), nil
	}},
	"binCenter": {Call: func(h *H1DObject, args []Val) (Val, error) {
		i, err := binArg("binCenter", h.H, args)
		if err != nil {
			return Val{}, err
		}
		return NumVal(h.H.Axis().BinCenter(i)), nil
	}},
	"bins": {Call: func(h *H1DObject, _ []Val) (Val, error) {
		return NumVal(float64(h.H.Axis().Bins())), nil
	}},
	"reset": {Call: func(h *H1DObject, _ []Val) (Val, error) {
		h.H.Reset()
		return Val{}, nil
	}},
	"scale": {Call: func(h *H1DObject, args []Val) (Val, error) {
		if len(args) != 1 {
			return Val{}, fmt.Errorf("scale expects (factor)")
		}
		f, err := args[0].Number()
		if err != nil {
			return Val{}, err
		}
		h.H.Scale(f)
		return Val{}, nil
	}},
	"annotate": {Call: func(h *H1DObject, args []Val) (Val, error) {
		if len(args) != 2 {
			return Val{}, fmt.Errorf("annotate expects (key, value)")
		}
		k, err := args[0].Str()
		if err != nil {
			return Val{}, err
		}
		h.H.Annotations().Set(k, ToString(args[1].Value()))
		return Val{}, nil
	}},
}

// H2DObject wraps a Histogram2D.
type H2DObject struct {
	H *aida.Histogram2D
}

// TypeName implements HostObject.
func (h *H2DObject) TypeName() string { return "histogram2d" }

// Member implements HostObject.
func (h *H2DObject) Member(name string) (Value, bool) { return MemberOf(h, name) }

// Get implements Getter.
func (h *H2DObject) Get(name string) (Val, bool) { return h2dMembers.Get(h, name) }

var h2dMembers = Members[*H2DObject]{
	"fill": {Call: func(h *H2DObject, args []Val) (Val, error) {
		if len(args) != 2 && len(args) != 3 {
			return Val{}, fmt.Errorf("fill expects (x, y) or (x, y, weight)")
		}
		x, err := args[0].Number()
		if err != nil {
			return Val{}, err
		}
		y, err := args[1].Number()
		if err != nil {
			return Val{}, err
		}
		w := 1.0
		if len(args) == 3 {
			if w, err = args[2].Number(); err != nil {
				return Val{}, err
			}
		}
		h.H.FillW(x, y, w)
		return Val{}, nil
	}},
	"entries": {Call: func(h *H2DObject, _ []Val) (Val, error) { return NumVal(float64(h.H.Entries())), nil }},
	"meanX":   {Call: func(h *H2DObject, _ []Val) (Val, error) { return NumVal(h.H.MeanX()), nil }},
	"meanY":   {Call: func(h *H2DObject, _ []Val) (Val, error) { return NumVal(h.H.MeanY()), nil }},
}

// P1DObject wraps a Profile1D.
type P1DObject struct {
	P *aida.Profile1D
}

// TypeName implements HostObject.
func (p *P1DObject) TypeName() string { return "profile1d" }

// Member implements HostObject.
func (p *P1DObject) Member(name string) (Value, bool) { return MemberOf(p, name) }

// Get implements Getter.
func (p *P1DObject) Get(name string) (Val, bool) { return p1dMembers.Get(p, name) }

var p1dMembers = Members[*P1DObject]{
	"fill": {Call: func(p *P1DObject, args []Val) (Val, error) {
		if len(args) != 2 {
			return Val{}, fmt.Errorf("fill expects (x, y)")
		}
		x, err := args[0].Number()
		if err != nil {
			return Val{}, err
		}
		y, err := args[1].Number()
		if err != nil {
			return Val{}, err
		}
		p.P.Fill(x, y)
		return Val{}, nil
	}},
	"entries": {Call: func(p *P1DObject, _ []Val) (Val, error) { return NumVal(float64(p.P.Entries())), nil }},
}

// C1DObject wraps a Cloud1D.
type C1DObject struct {
	C *aida.Cloud1D
}

// TypeName implements HostObject.
func (c *C1DObject) TypeName() string { return "cloud1d" }

// Member implements HostObject.
func (c *C1DObject) Member(name string) (Value, bool) { return MemberOf(c, name) }

// Get implements Getter.
func (c *C1DObject) Get(name string) (Val, bool) { return c1dMembers.Get(c, name) }

var c1dMembers = Members[*C1DObject]{
	"fill": {Call: func(c *C1DObject, args []Val) (Val, error) {
		if len(args) != 1 && len(args) != 2 {
			return Val{}, fmt.Errorf("fill expects (x) or (x, weight)")
		}
		x, err := args[0].Number()
		if err != nil {
			return Val{}, err
		}
		w := 1.0
		if len(args) == 2 {
			if w, err = args[1].Number(); err != nil {
				return Val{}, err
			}
		}
		c.C.FillW(x, w)
		return Val{}, nil
	}},
	"mean":    {Call: func(c *C1DObject, _ []Val) (Val, error) { return NumVal(c.C.Mean()), nil }},
	"rms":     {Call: func(c *C1DObject, _ []Val) (Val, error) { return NumVal(c.C.Rms()), nil }},
	"entries": {Call: func(c *C1DObject, _ []Val) (Val, error) { return NumVal(float64(c.C.Entries())), nil }},
}
