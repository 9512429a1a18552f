package script

import (
	"bytes"
	"fmt"

	"github.com/ipa-grid/ipa/internal/analysis"
)

// The tree-walking evaluator the compiled one replaced, kept as the
// oracle of the differential tests: it walks the AST node by node, looks
// every name up in a chain of maps, and boxes every value. It shares an
// Interp's fuel, depth limit, output and the operator and indexing helpers
// with the compiled evaluator; scopes, calls and control flow are its own.

// env is a lexical scope.
type env struct {
	vars   map[string]Value
	parent *env
	o      *oracle
}

func (e *env) child() *env { return &env{vars: make(map[string]Value), parent: e, o: e.o} }

func (e *env) lookup(name string) (Value, bool) {
	for s := e; s != nil; s = s.parent {
		if v, ok := s.vars[name]; ok {
			return v, true
		}
	}
	return nil, false
}

// assign updates name where it is bound, or defines it in scope e.
func (e *env) assign(name string, v Value) {
	for s := e; s != nil; s = s.parent {
		if _, ok := s.vars[name]; ok {
			s.vars[name] = v
			return
		}
	}
	e.vars[name] = v
}

// oracle is the tree-walker's state beyond what Interp holds.
type oracle struct {
	in        *Interp
	globals   *env
	returnVal Value
	// closures has the AST and defining scope of every function value the
	// walker made; the *Closure itself only names the function.
	closures map[*Closure]oracleClosure
}

type oracleClosure struct {
	lit *funcLit
	env *env
}

// newOracle starts a tree-walker on in's globals as they are now
// (builtins and whatever the host defined).
func newOracle(in *Interp) *oracle {
	o := &oracle{in: in, closures: make(map[*Closure]oracleClosure)}
	o.globals = &env{vars: make(map[string]Value), o: o}
	for name, g := range in.globals {
		if g.v.k != kUnbound {
			o.globals.vars[name] = g.v.Value()
		}
	}
	return o
}

// run executes source's top-level statements in the global scope.
func (o *oracle) run(src string) error {
	stmts, err := parse(src)
	if err != nil {
		return err
	}
	for _, s := range stmts {
		c, err := o.in.exec(s, o.globals)
		if err != nil {
			return err
		}
		if c != ctrlNone {
			return &RuntimeError{Pos: s.position(), Msg: "break/continue/return outside function or loop"}
		}
	}
	return nil
}

func (o *oracle) has(name string) bool {
	v, _ := o.globals.lookup(name)
	switch v.(type) {
	case *Closure, HostFunc:
		return true
	}
	return false
}

// call invokes a named global function.
func (o *oracle) call(name string, args ...Value) (Value, error) {
	fn, ok := o.globals.lookup(name)
	if !ok {
		return nil, fmt.Errorf("script: no function %q defined", name)
	}
	switch f := fn.(type) {
	case *Closure:
		return o.in.callTree(f, args, Pos{}, o)
	case HostFunc:
		return f(args)
	default:
		return nil, fmt.Errorf("script: value of type %s is not callable", TypeName(fn))
	}
}

func (in *Interp) callTree(f *Closure, args []Value, at Pos, o *oracle) (Value, error) {
	if in.depth >= in.maxDepth {
		return nil, &RuntimeError{Pos: at, Msg: fmt.Sprintf("call depth exceeds %d", in.maxDepth)}
	}
	oc := o.closures[f]
	scope := oc.env.child()
	for i, p := range oc.lit.params {
		if i < len(args) {
			scope.vars[p] = args[i]
		} else {
			scope.vars[p] = nil
		}
	}
	in.depth++
	defer func() { in.depth-- }()
	o.returnVal = nil
	c, err := in.exec(oc.lit.body, scope)
	if err != nil {
		return nil, err
	}
	if c == ctrlReturn {
		v := o.returnVal
		o.returnVal = nil
		return v, nil
	}
	return nil, nil
}

// exec runs a statement.
func (in *Interp) exec(n Node, scope *env) (ctrl, error) {
	if err := in.burn(n.position()); err != nil {
		return ctrlNone, err
	}
	switch s := n.(type) {
	case *exprStmt:
		_, err := in.eval(s.x, scope)
		return ctrlNone, err
	case *blockStmt:
		for _, st := range s.stmts {
			c, err := in.exec(st, scope)
			if err != nil || c != ctrlNone {
				return c, err
			}
		}
		return ctrlNone, nil
	case *ifStmt:
		cond, err := in.eval(s.cond, scope)
		if err != nil {
			return ctrlNone, err
		}
		if Truthy(cond) {
			return in.exec(s.then, scope)
		}
		if s.alt != nil {
			return in.exec(s.alt, scope)
		}
		return ctrlNone, nil
	case *whileStmt:
		for {
			cond, err := in.eval(s.cond, scope)
			if err != nil {
				return ctrlNone, err
			}
			if !Truthy(cond) {
				return ctrlNone, nil
			}
			c, err := in.exec(s.body, scope)
			if err != nil {
				return ctrlNone, err
			}
			if c == ctrlBreak {
				return ctrlNone, nil
			}
			if c == ctrlReturn {
				return c, nil
			}
			if err := in.burn(s.pos); err != nil {
				return ctrlNone, err
			}
		}
	case *forStmt:
		if s.init != nil {
			if _, err := in.eval(s.init, scope); err != nil {
				return ctrlNone, err
			}
		}
		for {
			if s.cond != nil {
				cond, err := in.eval(s.cond, scope)
				if err != nil {
					return ctrlNone, err
				}
				if !Truthy(cond) {
					return ctrlNone, nil
				}
			}
			c, err := in.exec(s.body, scope)
			if err != nil {
				return ctrlNone, err
			}
			if c == ctrlBreak {
				return ctrlNone, nil
			}
			if c == ctrlReturn {
				return c, nil
			}
			if s.post != nil {
				if _, err := in.eval(s.post, scope); err != nil {
					return ctrlNone, err
				}
			}
			if err := in.burn(s.pos); err != nil {
				return ctrlNone, err
			}
		}
	case *forEachStmt:
		iter, err := in.eval(s.iterable, scope)
		if err != nil {
			return ctrlNone, err
		}
		runBody := func(v Value) (ctrl, error) {
			scope.assign(s.ident, v)
			return in.exec(s.body, scope)
		}
		switch it := iter.(type) {
		case *Array:
			for _, v := range it.Elems {
				c, err := runBody(v)
				if err != nil {
					return ctrlNone, err
				}
				if c == ctrlBreak {
					return ctrlNone, nil
				}
				if c == ctrlReturn {
					return c, nil
				}
				if err := in.burn(s.pos); err != nil {
					return ctrlNone, err
				}
			}
			return ctrlNone, nil
		case *Map:
			for _, k := range sortedMapKeys(it) {
				c, err := runBody(k)
				if err != nil {
					return ctrlNone, err
				}
				if c == ctrlBreak {
					return ctrlNone, nil
				}
				if c == ctrlReturn {
					return c, nil
				}
			}
			return ctrlNone, nil
		case float64:
			for i := 0.0; i < it; i++ {
				c, err := runBody(i)
				if err != nil {
					return ctrlNone, err
				}
				if c == ctrlBreak {
					return ctrlNone, nil
				}
				if c == ctrlReturn {
					return c, nil
				}
				if err := in.burn(s.pos); err != nil {
					return ctrlNone, err
				}
			}
			return ctrlNone, nil
		default:
			return ctrlNone, rtErr(s.pos, "cannot iterate over %s", TypeName(iter))
		}
	case *returnStmt:
		if s.val != nil {
			v, err := in.eval(s.val, scope)
			if err != nil {
				return ctrlNone, err
			}
			scope.o.returnVal = v
		} else {
			scope.o.returnVal = nil
		}
		return ctrlReturn, nil
	case *breakStmt:
		return ctrlBreak, nil
	case *continueStmt:
		return ctrlContinue, nil
	default:
		return ctrlNone, rtErr(n.position(), "internal: unknown statement %T", n)
	}
}

// eval computes an expression value.
func (in *Interp) eval(n Node, scope *env) (Value, error) {
	if err := in.burn(n.position()); err != nil {
		return nil, err
	}
	switch e := n.(type) {
	case *numberLit:
		return e.val, nil
	case *stringLit:
		return e.val, nil
	case *boolLit:
		return e.val, nil
	case *nilLit:
		return nil, nil
	case *identExpr:
		v, ok := scope.lookup(e.name)
		if !ok {
			return nil, rtErr(e.pos, "undefined variable %q", e.name)
		}
		return v, nil
	case *arrayLit:
		arr := &Array{Elems: make([]Value, 0, len(e.elems))}
		for _, el := range e.elems {
			v, err := in.eval(el, scope)
			if err != nil {
				return nil, err
			}
			arr.Elems = append(arr.Elems, v)
		}
		return arr, nil
	case *mapLit:
		m := NewMap()
		for i := range e.keys {
			k, err := in.eval(e.keys[i], scope)
			if err != nil {
				return nil, err
			}
			ks, ok := k.(string)
			if !ok {
				return nil, rtErr(e.keys[i].position(), "map key must be string, got %s", TypeName(k))
			}
			v, err := in.eval(e.vals[i], scope)
			if err != nil {
				return nil, err
			}
			m.Items[ks] = v
		}
		return m, nil
	case *funcLit:
		c := &Closure{fn: &funcProto{name: e.name, pos: e.pos}}
		scope.o.closures[c] = oracleClosure{lit: e, env: scope}
		return c, nil
	case *unaryExpr:
		x, err := in.eval(e.x, scope)
		if err != nil {
			return nil, err
		}
		switch e.op {
		case tokMinus:
			f, ok := x.(float64)
			if !ok {
				return nil, rtErr(e.pos, "cannot negate %s", TypeName(x))
			}
			return -f, nil
		case tokNot:
			return !Truthy(x), nil
		}
		return nil, rtErr(e.pos, "internal: bad unary op")
	case *binaryExpr:
		return in.evalBinary(e, scope)
	case *ternaryExpr:
		cond, err := in.eval(e.cond, scope)
		if err != nil {
			return nil, err
		}
		if Truthy(cond) {
			return in.eval(e.then, scope)
		}
		return in.eval(e.alt, scope)
	case *assignExpr:
		return in.evalAssign(e, scope)
	case *callExpr:
		return in.evalCall(e, scope)
	case *indexExpr:
		target, err := in.eval(e.target, scope)
		if err != nil {
			return nil, err
		}
		idx, err := in.eval(e.index, scope)
		if err != nil {
			return nil, err
		}
		return indexValue(e.pos, target, ValOf(idx))
	case *memberExpr:
		target, err := in.eval(e.target, scope)
		if err != nil {
			return nil, err
		}
		return memberValue(e.pos, target, e.name)
	default:
		return nil, rtErr(n.position(), "internal: unknown expression %T", n)
	}
}

func (in *Interp) evalBinary(e *binaryExpr, scope *env) (Value, error) {
	// Short-circuit logical operators.
	if e.op == tokAnd || e.op == tokOr {
		l, err := in.eval(e.l, scope)
		if err != nil {
			return nil, err
		}
		if e.op == tokAnd && !Truthy(l) {
			return false, nil
		}
		if e.op == tokOr && Truthy(l) {
			return true, nil
		}
		r, err := in.eval(e.r, scope)
		if err != nil {
			return nil, err
		}
		return Truthy(r), nil
	}
	l, err := in.eval(e.l, scope)
	if err != nil {
		return nil, err
	}
	r, err := in.eval(e.r, scope)
	if err != nil {
		return nil, err
	}
	return applyBinary(e.pos, e.op, l, r)
}

func (in *Interp) evalAssign(e *assignExpr, scope *env) (Value, error) {
	val, err := in.eval(e.value, scope)
	if err != nil {
		return nil, err
	}
	// Compound ops read the old value first.
	if e.op != tokAssign {
		old, err := in.eval(e.target, scope)
		if err != nil {
			return nil, err
		}
		val, err = applyBinary(e.pos, compoundOp(e.op), old, val)
		if err != nil {
			return nil, err
		}
	}
	switch t := e.target.(type) {
	case *identExpr:
		scope.assign(t.name, val)
		return val, nil
	case *indexExpr:
		target, err := in.eval(t.target, scope)
		if err != nil {
			return nil, err
		}
		idx, err := in.eval(t.index, scope)
		if err != nil {
			return nil, err
		}
		return val, setIndex(t.pos, target, ValOf(idx), val)
	case *memberExpr:
		target, err := in.eval(t.target, scope)
		if err != nil {
			return nil, err
		}
		return val, setMember(t.pos, target, t.name, val)
	}
	return nil, rtErr(e.pos, "internal: bad assignment target")
}

func (in *Interp) evalCall(e *callExpr, scope *env) (Value, error) {
	callee, err := in.eval(e.callee, scope)
	if err != nil {
		return nil, err
	}
	args := make([]Value, len(e.args))
	for i, a := range e.args {
		v, err := in.eval(a, scope)
		if err != nil {
			return nil, err
		}
		args[i] = v
	}
	switch f := callee.(type) {
	case *Closure:
		return in.callTree(f, args, e.pos, scope.o)
	case HostFunc:
		v, err := f(args)
		if err != nil {
			return nil, hostErr(e.pos, err)
		}
		return v, nil
	default:
		return nil, rtErr(e.pos, "cannot call %s", TypeName(callee))
	}
}

// oracleAnalysis is Analysis with the tree-walker in place of the compiled
// program: the same globals, fuel top-up and init/process/end protocol.
type oracleAnalysis struct {
	source  string
	decoder RecordDecoder
	o       *oracle
	output  bytes.Buffer
}

func newOracleAnalysis(source, decoderName string) (*oracleAnalysis, error) {
	if _, err := parse(source); err != nil {
		return nil, err
	}
	dec, ok := LookupDecoder(decoderName)
	if !ok {
		return nil, fmt.Errorf("script: unknown record decoder %q", decoderName)
	}
	return &oracleAnalysis{source: source, decoder: dec}, nil
}

func (a *oracleAnalysis) Output() string { return a.output.String() }

func (a *oracleAnalysis) Init(ctx *analysis.Context) error {
	a.output.Reset()
	in := New(Options{Output: &a.output, Fuel: perEventFuel})
	bindHost(in, ctx)
	a.o = newOracle(in)
	if err := a.o.run(a.source); err != nil {
		return fmt.Errorf("script top-level: %w", err)
	}
	if a.o.has("init") {
		if _, err := a.o.call("init"); err != nil {
			return fmt.Errorf("script init(): %w", err)
		}
	}
	if !a.o.has("process") {
		return fmt.Errorf("script: no process(event) function defined")
	}
	return nil
}

func (a *oracleAnalysis) Process(rec []byte, ctx *analysis.Context) error {
	ev, err := a.decoder(rec)
	if err != nil {
		return fmt.Errorf("script: decoding record %d: %w", ctx.EventIndex, err)
	}
	if rem := a.o.in.RemainingFuel(); rem < perEventFuel {
		a.o.in.AddFuel(perEventFuel - rem)
	}
	if _, err := a.o.call("process", ev); err != nil {
		return fmt.Errorf("script process() at record %d: %w", ctx.EventIndex, err)
	}
	return nil
}

func (a *oracleAnalysis) End(ctx *analysis.Context) error {
	if a.o.has("end") {
		if _, err := a.o.call("end"); err != nil {
			return fmt.Errorf("script end(): %w", err)
		}
	}
	return nil
}
