package script

import (
	"errors"
	"fmt"
	"io"
	"math"
	"sort"
)

// RuntimeError is a script execution failure with its source position.
type RuntimeError struct {
	Pos Pos
	Msg string
}

func (e *RuntimeError) Error() string { return fmt.Sprintf("script:%s: %s", e.Pos, e.Msg) }

// Is lets errors.Is(err, ErrFuelExhausted) find the budget guard behind
// the position it stopped the script at.
func (e *RuntimeError) Is(target error) bool {
	return target == ErrFuelExhausted && e.Msg == ErrFuelExhausted.Error()
}

// ErrFuelExhausted aborts scripts that exceed their execution budget — the
// guard that keeps a runaway uploaded script from wedging a worker node.
var ErrFuelExhausted = errors.New("script: execution budget exhausted")

// Options configure an interpreter.
type Options struct {
	// Fuel bounds loop iterations plus calls (0 = DefaultFuel): every
	// iteration of every loop and every call costs at least one unit.
	Fuel int64
	// Output receives print()/println() text (nil = discard).
	Output io.Writer
	// MaxCallDepth bounds recursion (0 = 256).
	MaxCallDepth int
}

// DefaultFuel is generous enough for per-event analysis over large staged
// parts while still halting accidental infinite loops in bounded time.
const DefaultFuel = 200_000_000

// global is one name of the global scope. Programs reach it by index
// through the table link builds, the host by name through Define/Lookup.
type global struct {
	v Val // kUnbound until something defines the name
}

// frame is one activation: the top level of a program, or a call.
type frame struct {
	in     *Interp
	g      []*global // the running program's globals
	slots  []Val     // this function's variables; kUnbound until assigned
	parent *frame    // activation of the enclosing function
	ret    Val       // set by return
}

// Interp executes compiled programs.
type Interp struct {
	globals  map[string]*global
	fuel     int64
	maxDepth int
	depth    int
	out      io.Writer
	// stack holds call arguments while a call is being set up.
	stack []Val
	// frames[d] is reused by every call at depth d of a function whose
	// activation no closure can capture.
	frames []*frame
}

// New creates an interpreter with the standard library installed.
func New(opts Options) *Interp {
	in := &Interp{
		globals:  make(map[string]*global),
		fuel:     opts.Fuel,
		maxDepth: opts.MaxCallDepth,
		out:      opts.Output,
	}
	if in.fuel <= 0 {
		in.fuel = DefaultFuel
	}
	if in.maxDepth <= 0 {
		in.maxDepth = 256
	}
	installBuiltins(in)
	return in
}

// cell returns the global named name, creating it unbound.
func (in *Interp) cell(name string) *global {
	g, ok := in.globals[name]
	if !ok {
		g = &global{v: Val{k: kUnbound}}
		in.globals[name] = g
	}
	return g
}

// Define binds a global name (host objects, configuration values).
func (in *Interp) Define(name string, v Value) { in.cell(name).v = ValOf(v) }

// Lookup fetches a global.
func (in *Interp) Lookup(name string) (Value, bool) {
	g, ok := in.globals[name]
	if !ok || g.v.k == kUnbound {
		return nil, false
	}
	return g.v.Value(), true
}

// RemainingFuel returns the unspent execution budget.
func (in *Interp) RemainingFuel() int64 { return in.fuel }

// AddFuel extends the execution budget (the engine tops fuel up per event
// so long datasets don't starve, while any single event stays bounded).
func (in *Interp) AddFuel(n int64) { in.fuel += n }

// Run executes a program's top-level statements in the global scope.
func (in *Interp) Run(p *Program) error {
	fr := &frame{in: in, g: make([]*global, len(p.globals))}
	for i, name := range p.globals {
		fr.g[i] = in.cell(name)
	}
	for i, s := range p.code {
		c, err := s(fr)
		if err != nil {
			return err
		}
		if c != ctrlNone {
			return &RuntimeError{Pos: p.pos[i], Msg: "break/continue/return outside function or loop"}
		}
	}
	return nil
}

// Call invokes a named global function with the given arguments.
func (in *Interp) Call(name string, args ...Value) (Value, error) {
	fn, ok := in.Lookup(name)
	if !ok {
		return nil, fmt.Errorf("script: no function %q defined", name)
	}
	return in.CallValue(fn, args)
}

// Has reports whether a global name is bound to a callable.
func (in *Interp) Has(name string) bool {
	v, _ := in.Lookup(name)
	switch v.(type) {
	case *Closure, HostFunc:
		return true
	}
	return false
}

// CallValue invokes a function value.
func (in *Interp) CallValue(fn Value, args []Value) (Value, error) {
	switch f := fn.(type) {
	case *Closure:
		base := len(in.stack)
		for _, a := range args {
			in.stack = append(in.stack, ValOf(a))
		}
		v, err := in.callClosure(f, in.stack[base:], Pos{})
		in.stack = in.stack[:base]
		return v.Value(), err
	case HostFunc:
		return f(args)
	default:
		return nil, fmt.Errorf("script: value of type %s is not callable", TypeName(fn))
	}
}

// callClosure runs f on args (which it copies before f's body can move
// the stack they sit on). at is the call site, zero for a call from Go.
func (in *Interp) callClosure(f *Closure, args []Val, at Pos) (Val, error) {
	fn := f.fn
	if at == (Pos{}) {
		at = fn.pos
	}
	if in.depth >= in.maxDepth {
		return Val{}, &RuntimeError{Pos: at, Msg: fmt.Sprintf("call depth exceeds %d", in.maxDepth)}
	}
	if err := in.burn(at); err != nil {
		return Val{}, err
	}
	var fr *frame
	switch {
	case fn.captured:
		fr = new(frame)
	case in.depth < len(in.frames):
		fr = in.frames[in.depth]
	default:
		fr = new(frame)
		in.frames = append(in.frames, fr)
	}
	if cap(fr.slots) < fn.nslots {
		fr.slots = make([]Val, fn.nslots)
	}
	fr.in, fr.g, fr.parent, fr.ret = in, f.g, f.parent, Val{}
	fr.slots = fr.slots[:fn.nslots]
	// Parameters are bound even when the caller passed too few.
	n := copy(fr.slots[:fn.nparams], args)
	for i := n; i < fn.nparams; i++ {
		fr.slots[i] = Val{}
	}
	for i := fn.nparams; i < fn.nslots; i++ {
		fr.slots[i] = Val{k: kUnbound}
	}
	in.depth++
	c, err := fn.body(fr)
	in.depth--
	if err != nil || c != ctrlReturn {
		return Val{}, err
	}
	return fr.ret, nil
}

// burn charges one unit of fuel.
func (in *Interp) burn(pos Pos) error {
	in.fuel--
	if in.fuel < 0 {
		return &RuntimeError{Pos: pos, Msg: ErrFuelExhausted.Error()}
	}
	return nil
}

func rtErr(pos Pos, format string, args ...any) error {
	return &RuntimeError{Pos: pos, Msg: fmt.Sprintf(format, args...)}
}

// hostErr positions an error a host function returned, unless the host
// already made it a RuntimeError.
func hostErr(pos Pos, err error) error {
	if _, isRT := err.(*RuntimeError); isRT {
		return err
	}
	return rtErr(pos, "%v", err)
}

// applyBinary is every binary operator except the short-circuit ones.
func applyBinary(pos Pos, op tokKind, l, r Value) (Value, error) {
	switch op {
	case tokEq:
		return valuesEqual(l, r), nil
	case tokNe:
		return !valuesEqual(l, r), nil
	}
	// String concatenation and comparison.
	if ls, ok := l.(string); ok {
		switch op {
		case tokPlus:
			return ls + ToString(r), nil
		case tokLt, tokLe, tokGt, tokGe:
			rs, ok := r.(string)
			if !ok {
				return nil, rtErr(pos, "cannot compare string with %s", TypeName(r))
			}
			switch op {
			case tokLt:
				return ls < rs, nil
			case tokLe:
				return ls <= rs, nil
			case tokGt:
				return ls > rs, nil
			default:
				return ls >= rs, nil
			}
		}
	}
	// number + string → concatenation (PNUTS-style convenience).
	if _, ok := r.(string); ok && op == tokPlus {
		return ToString(l) + r.(string), nil
	}
	// Array concatenation.
	if la, ok := l.(*Array); ok && op == tokPlus {
		if ra, ok := r.(*Array); ok {
			out := &Array{Elems: make([]Value, 0, len(la.Elems)+len(ra.Elems))}
			out.Elems = append(out.Elems, la.Elems...)
			out.Elems = append(out.Elems, ra.Elems...)
			return out, nil
		}
	}
	lf, lok := l.(float64)
	rf, rok := r.(float64)
	if !lok || !rok {
		return nil, rtErr(pos, "operator %v not defined for %s and %s", op, TypeName(l), TypeName(r))
	}
	switch op {
	case tokPlus:
		return lf + rf, nil
	case tokMinus:
		return lf - rf, nil
	case tokStar:
		return lf * rf, nil
	case tokSlash:
		if rf == 0 {
			return nil, rtErr(pos, "division by zero")
		}
		return lf / rf, nil
	case tokPercent:
		if rf == 0 {
			return nil, rtErr(pos, "modulo by zero")
		}
		return math.Mod(lf, rf), nil
	case tokLt:
		return lf < rf, nil
	case tokLe:
		return lf <= rf, nil
	case tokGt:
		return lf > rf, nil
	case tokGe:
		return lf >= rf, nil
	}
	return nil, rtErr(pos, "internal: bad binary op %v", op)
}

// compoundOp maps an assignment operator to the binary operator it
// applies first (tokAssign itself maps to tokAssign).
func compoundOp(op tokKind) tokKind {
	switch op {
	case tokPlusAssign:
		return tokPlus
	case tokMinusAssign:
		return tokMinus
	case tokStarAssign:
		return tokStar
	case tokSlashAssign:
		return tokSlash
	}
	return op
}

// seqIndex checks idx as an index into a sequence (what: "array" or
// "string") of n elements: a number, integral, in range.
func seqIndex(pos Pos, what string, n int, idx Val) (int, error) {
	if idx.k != kNum {
		return 0, rtErr(pos, "%s index must be number, got %s", what, TypeName(idx.Value()))
	}
	i := int(idx.n)
	if float64(i) != idx.n {
		return 0, rtErr(pos, "%s index %v is not an integer", what, idx.n)
	}
	if i < 0 || i >= n {
		return 0, rtErr(pos, "%s index %d out of range [0,%d)", what, i, n)
	}
	return i, nil
}

func indexValue(pos Pos, target Value, idx Val) (Value, error) {
	switch t := target.(type) {
	case *Array:
		i, err := seqIndex(pos, "array", len(t.Elems), idx)
		if err != nil {
			return nil, err
		}
		return t.Elems[i], nil
	case *Map:
		k, ok := idx.r.(string)
		if !ok {
			return nil, rtErr(pos, "map key must be string, got %s", TypeName(idx.Value()))
		}
		return t.Items[k], nil
	case string:
		i, err := seqIndex(pos, "string", len(t), idx)
		if err != nil {
			return nil, err
		}
		return string(t[i]), nil
	default:
		return nil, rtErr(pos, "cannot index %s", TypeName(target))
	}
}

// setIndex is target[idx] = v.
func setIndex(pos Pos, target Value, idx Val, v Value) error {
	switch t := target.(type) {
	case *Array:
		i, err := seqIndex(pos, "array", len(t.Elems), idx)
		if err != nil {
			return err
		}
		t.Elems[i] = v
	case *Map:
		k, ok := idx.r.(string)
		if !ok {
			return rtErr(pos, "map key must be string, got %s", TypeName(idx.Value()))
		}
		t.Items[k] = v
	default:
		return rtErr(pos, "cannot index-assign into %s", TypeName(target))
	}
	return nil
}

func memberValue(pos Pos, target Value, name string) (Value, error) {
	switch t := target.(type) {
	case *Map:
		return t.Items[name], nil
	case HostObject:
		v, ok := t.Member(name)
		if !ok {
			return nil, noMember(pos, t, name)
		}
		return v, nil
	case *Array:
		if name == "length" {
			return float64(len(t.Elems)), nil
		}
		return nil, rtErr(pos, "array has no member %q", name)
	case string:
		if name == "length" {
			return float64(len(t)), nil
		}
		return nil, rtErr(pos, "string has no member %q", name)
	default:
		return nil, rtErr(pos, "%s has no members", TypeName(target))
	}
}

func noMember(pos Pos, o HostObject, name string) error {
	return rtErr(pos, "%s has no member %q", o.TypeName(), name)
}

// setMember is target.name = v.
func setMember(pos Pos, target Value, name string, v Value) error {
	switch t := target.(type) {
	case *Map:
		t.Items[name] = v
	case SettableHostObject:
		if err := t.SetMember(name, v); err != nil {
			return rtErr(pos, "%v", err)
		}
	default:
		return rtErr(pos, "cannot set member %q on %s", name, TypeName(target))
	}
	return nil
}

// sortedMapKeys is the order for-each visits a map in: deterministic, for
// reproducible analyses.
func sortedMapKeys(m *Map) []string {
	keys := make([]string, 0, len(m.Items))
	for k := range m.Items {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
