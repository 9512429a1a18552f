package script

import "math"

// The evaluator. compile turns the parsed AST into Go closures once per
// Program; running a script is calling them. Three things make that
// cheaper than walking the tree:
//
//   - every identifier is resolved here, at compile time, to the places it
//     can live at run time — a slot in the frame of each enclosing function
//     that ever assigns the name, then a cell of the global scope — so a
//     variable access is an index, not a map lookup;
//   - values travel as Val, numbers inline, and are boxed only where they
//     leave compiled code (arrays, maps, HostFunc arguments, Lookup);
//   - obj.name(args...) on a Getter resolves the method and calls it with
//     arguments left on the interpreter's stack: no method value, no
//     argument slice.
//
// The language binds dynamically: an assignment writes the innermost
// scope that already has the name and otherwise defines it in the current
// one, so which scope `x` means inside a function can change between two
// calls (a global `x` may appear in between). Slots and cells therefore
// start kUnbound and every access checks, innermost first; what compile
// time removes is the search for the candidates, not the check.

// stmt runs a statement. ctrl says how it ended.
type stmt func(fr *frame) (ctrl, error)

// expr evaluates an expression; it never yields kUnbound.
type expr func(fr *frame) (Val, error)

// control-flow signals threaded through statements.
type ctrl int

const (
	ctrlNone ctrl = iota
	ctrlBreak
	ctrlContinue
	ctrlReturn
)

// funcProto is the compiled form of a function literal.
type funcProto struct {
	name    string
	pos     Pos
	nparams int // slots [0,nparams) are the parameters
	nslots  int
	body    stmt
	// captured is set when the body contains a function literal: a closure
	// may then outlive the call and still reach the frame, which therefore
	// cannot be reused by the next call.
	captured bool
}

// fnScope is a function being compiled: the names its activations can
// define.
type fnScope struct {
	slots    map[string]int
	parent   *fnScope // enclosing function, nil directly under the top level
	captured bool
}

// localRef is a slot `hops` activations up the parent chain.
type localRef struct{ hops, slot int }

// varRef is where one identifier may be bound, innermost first.
type varRef struct {
	locals []localRef
	global int
}

// find returns the innermost place the name is bound in, or nil.
func (r *varRef) find(fr *frame) *Val {
	for _, l := range r.locals {
		f := fr
		for h := l.hops; h > 0; h-- {
			f = f.parent
		}
		if s := &f.slots[l.slot]; s.k != kUnbound {
			return s
		}
	}
	if g := fr.g[r.global]; g.v.k != kUnbound {
		return &g.v
	}
	return nil
}

type compiler struct {
	globals []string
	gidx    map[string]int
	fn      *fnScope // nil while compiling top-level code
}

func compile(stmts []Node, src string) *Program {
	c := &compiler{gidx: make(map[string]int)}
	p := &Program{source: src}
	for _, s := range stmts {
		p.code = append(p.code, c.stmt(s))
		p.pos = append(p.pos, s.position())
	}
	p.globals = c.globals
	return p
}

func (c *compiler) global(name string) int {
	i, ok := c.gidx[name]
	if !ok {
		i = len(c.globals)
		c.globals = append(c.globals, name)
		c.gidx[name] = i
	}
	return i
}

func (c *compiler) resolve(name string) *varRef {
	r := &varRef{global: c.global(name)}
	hops := 0
	for s := c.fn; s != nil; s = s.parent {
		if slot, ok := s.slots[name]; ok {
			r.locals = append(r.locals, localRef{hops, slot})
		}
		hops++
	}
	return r
}

// load compiles a read of name.
func (c *compiler) load(pos Pos, name string) expr {
	r := c.resolve(name)
	gi := r.global
	undefined := func() (Val, error) { return Val{}, rtErr(pos, "undefined variable %q", name) }
	switch {
	case len(r.locals) == 0:
		return func(fr *frame) (Val, error) {
			if v := fr.g[gi].v; v.k != kUnbound {
				return v, nil
			}
			return undefined()
		}
	case len(r.locals) == 1 && r.locals[0].hops == 0:
		slot := r.locals[0].slot
		return func(fr *frame) (Val, error) {
			if v := fr.slots[slot]; v.k != kUnbound {
				return v, nil
			}
			if v := fr.g[gi].v; v.k != kUnbound {
				return v, nil
			}
			return undefined()
		}
	default:
		return func(fr *frame) (Val, error) {
			if p := r.find(fr); p != nil {
				return *p, nil
			}
			return undefined()
		}
	}
}

// store compiles `name = v`: write where the name is bound, else define
// it in the current scope.
func (c *compiler) store(name string) func(fr *frame, v Val) {
	r := c.resolve(name)
	gi := r.global
	if c.fn == nil {
		return func(fr *frame, v Val) { fr.g[gi].v = v }
	}
	// declare gave every name this function assigns a slot of its own.
	here := r.locals[0].slot
	if len(r.locals) == 1 {
		return func(fr *frame, v Val) {
			s := &fr.slots[here]
			if s.k == kUnbound {
				if g := fr.g[gi]; g.v.k != kUnbound {
					s = &g.v
				}
			}
			*s = v
		}
	}
	return func(fr *frame, v Val) {
		p := r.find(fr)
		if p == nil {
			p = &fr.slots[here]
		}
		*p = v
	}
}

// declare gives a slot in s to every name n's code can define there:
// targets of assignments and for-each variables, not looking inside
// nested function literals (those define in their own activations).
func declare(s *fnScope, n Node) {
	name := func(id string) {
		if _, ok := s.slots[id]; !ok {
			s.slots[id] = len(s.slots)
		}
	}
	var walk func(n Node)
	walk = func(n Node) {
		switch n := n.(type) {
		case nil, *numberLit, *stringLit, *boolLit, *nilLit, *identExpr, *breakStmt, *continueStmt:
		case *funcLit:
			s.captured = true
		case *arrayLit:
			for _, e := range n.elems {
				walk(e)
			}
		case *mapLit:
			for i := range n.keys {
				walk(n.keys[i])
				walk(n.vals[i])
			}
		case *unaryExpr:
			walk(n.x)
		case *binaryExpr:
			walk(n.l)
			walk(n.r)
		case *ternaryExpr:
			walk(n.cond)
			walk(n.then)
			walk(n.alt)
		case *callExpr:
			walk(n.callee)
			for _, a := range n.args {
				walk(a)
			}
		case *indexExpr:
			walk(n.target)
			walk(n.index)
		case *memberExpr:
			walk(n.target)
		case *assignExpr:
			if id, ok := n.target.(*identExpr); ok {
				name(id.name)
			}
			walk(n.target)
			walk(n.value)
		case *exprStmt:
			walk(n.x)
		case *blockStmt:
			for _, st := range n.stmts {
				walk(st)
			}
		case *ifStmt:
			walk(n.cond)
			walk(n.then)
			if n.alt != nil {
				walk(n.alt)
			}
		case *whileStmt:
			walk(n.cond)
			walk(n.body)
		case *forStmt:
			for _, part := range []Node{n.init, n.cond, n.post} {
				if part != nil {
					walk(part)
				}
			}
			walk(n.body)
		case *forEachStmt:
			name(n.ident)
			walk(n.iterable)
			walk(n.body)
		case *returnStmt:
			if n.val != nil {
				walk(n.val)
			}
		}
	}
	walk(n)
}

func (c *compiler) funcLit(e *funcLit) expr {
	s := &fnScope{slots: make(map[string]int, len(e.params)), parent: c.fn}
	for i, p := range e.params {
		s.slots[p] = i
	}
	declare(s, e.body)
	outer := c.fn
	c.fn = s
	body := c.block(e.body)
	c.fn = outer
	proto := &funcProto{
		name: e.name, pos: e.pos,
		nparams: len(e.params), nslots: len(s.slots),
		body: body, captured: s.captured,
	}
	return func(fr *frame) (Val, error) {
		return Val{k: kRef, r: &Closure{fn: proto, parent: fr, g: fr.g}}, nil
	}
}

// Statements.

func (c *compiler) stmt(n Node) stmt {
	switch s := n.(type) {
	case *exprStmt:
		x := c.expr(s.x)
		return func(fr *frame) (ctrl, error) {
			_, err := x(fr)
			return ctrlNone, err
		}
	case *blockStmt:
		return c.block(s)
	case *ifStmt:
		cond, then := c.expr(s.cond), c.stmt(s.then)
		alt := stmt(func(*frame) (ctrl, error) { return ctrlNone, nil })
		if s.alt != nil {
			alt = c.stmt(s.alt)
		}
		return func(fr *frame) (ctrl, error) {
			v, err := cond(fr)
			if err != nil {
				return ctrlNone, err
			}
			if v.truthy() {
				return then(fr)
			}
			return alt(fr)
		}
	case *whileStmt:
		return c.loop(s.pos, nil, c.expr(s.cond), nil, c.stmt(s.body))
	case *forStmt:
		var init, cond, post expr
		if s.init != nil {
			init = c.expr(s.init)
		}
		if s.cond != nil {
			cond = c.expr(s.cond)
		}
		if s.post != nil {
			post = c.expr(s.post)
		}
		return c.loop(s.pos, init, cond, post, c.stmt(s.body))
	case *forEachStmt:
		return c.forEach(s)
	case *returnStmt:
		if s.val == nil {
			return func(fr *frame) (ctrl, error) {
				fr.ret = Val{}
				return ctrlReturn, nil
			}
		}
		val := c.expr(s.val)
		return func(fr *frame) (ctrl, error) {
			v, err := val(fr)
			if err != nil {
				return ctrlNone, err
			}
			fr.ret = v
			return ctrlReturn, nil
		}
	case *breakStmt:
		return func(*frame) (ctrl, error) { return ctrlBreak, nil }
	case *continueStmt:
		return func(*frame) (ctrl, error) { return ctrlContinue, nil }
	default:
		pos := n.position()
		return func(*frame) (ctrl, error) {
			return ctrlNone, rtErr(pos, "internal: unknown statement %T", n)
		}
	}
}

func (c *compiler) block(b *blockStmt) stmt {
	stmts := make([]stmt, len(b.stmts))
	for i, s := range b.stmts {
		stmts[i] = c.stmt(s)
	}
	if len(stmts) == 1 {
		return stmts[0]
	}
	return func(fr *frame) (ctrl, error) {
		for _, s := range stmts {
			if how, err := s(fr); err != nil || how != ctrlNone {
				return how, err
			}
		}
		return ctrlNone, nil
	}
}

// loop is while (init, post nil) and the C-style for (any part nil).
func (c *compiler) loop(pos Pos, init, cond, post expr, body stmt) stmt {
	return func(fr *frame) (ctrl, error) {
		if init != nil {
			if _, err := init(fr); err != nil {
				return ctrlNone, err
			}
		}
		for {
			if cond != nil {
				v, err := cond(fr)
				if err != nil {
					return ctrlNone, err
				}
				if !v.truthy() {
					return ctrlNone, nil
				}
			}
			how, err := body(fr)
			if err != nil {
				return ctrlNone, err
			}
			if how == ctrlBreak {
				return ctrlNone, nil
			}
			if how == ctrlReturn {
				return how, nil
			}
			if post != nil {
				if _, err := post(fr); err != nil {
					return ctrlNone, err
				}
			}
			if err := fr.in.burn(pos); err != nil {
				return ctrlNone, err
			}
		}
	}
}

func (c *compiler) forEach(s *forEachStmt) stmt {
	iterable, set, body, pos := c.expr(s.iterable), c.store(s.ident), c.stmt(s.body), s.pos
	// step runs one iteration; done reports that the loop is over.
	step := func(fr *frame, v Val) (done bool, how ctrl, err error) {
		set(fr, v)
		how, err = body(fr)
		switch {
		case err != nil:
			return true, ctrlNone, err
		case how == ctrlBreak:
			return true, ctrlNone, nil
		case how == ctrlReturn:
			return true, how, nil
		}
		err = fr.in.burn(pos)
		return err != nil, ctrlNone, err
	}
	return func(fr *frame) (ctrl, error) {
		it, err := iterable(fr)
		if err != nil {
			return ctrlNone, err
		}
		if it.k == kNum {
			for i := 0.0; i < it.n; i++ {
				if done, how, err := step(fr, NumVal(i)); done {
					return how, err
				}
			}
			return ctrlNone, nil
		}
		switch seq := it.r.(type) {
		case *Array:
			// The bounds are taken once: elements the body appends are
			// not visited.
			for _, v := range seq.Elems {
				if done, how, err := step(fr, ValOf(v)); done {
					return how, err
				}
			}
			return ctrlNone, nil
		case *Map:
			for _, k := range sortedMapKeys(seq) {
				if done, how, err := step(fr, Val{k: kRef, r: k}); done {
					return how, err
				}
			}
			return ctrlNone, nil
		}
		return ctrlNone, rtErr(pos, "cannot iterate over %s", TypeName(it.Value()))
	}
}

// Expressions.

func constant(v Val) expr { return func(*frame) (Val, error) { return v, nil } }

func (c *compiler) expr(n Node) expr {
	switch e := n.(type) {
	case *numberLit:
		return constant(NumVal(e.val))
	case *stringLit:
		return constant(Val{k: kRef, r: e.val})
	case *boolLit:
		return constant(BoolVal(e.val))
	case *nilLit:
		return constant(Val{})
	case *identExpr:
		return c.load(e.pos, e.name)
	case *arrayLit:
		elems := c.exprs(e.elems)
		return func(fr *frame) (Val, error) {
			arr := &Array{Elems: make([]Value, 0, len(elems))}
			for _, el := range elems {
				v, err := el(fr)
				if err != nil {
					return Val{}, err
				}
				arr.Elems = append(arr.Elems, v.Value())
			}
			return Val{k: kRef, r: arr}, nil
		}
	case *mapLit:
		keys, vals := c.exprs(e.keys), c.exprs(e.vals)
		return func(fr *frame) (Val, error) {
			m := NewMap()
			for i := range keys {
				k, err := keys[i](fr)
				if err != nil {
					return Val{}, err
				}
				ks, ok := k.r.(string)
				if !ok {
					return Val{}, rtErr(e.keys[i].position(), "map key must be string, got %s", TypeName(k.Value()))
				}
				v, err := vals[i](fr)
				if err != nil {
					return Val{}, err
				}
				m.Items[ks] = v.Value()
			}
			return Val{k: kRef, r: m}, nil
		}
	case *funcLit:
		return c.funcLit(e)
	case *unaryExpr:
		return c.unary(e)
	case *binaryExpr:
		return c.binary(e)
	case *ternaryExpr:
		cond, then, alt := c.expr(e.cond), c.expr(e.then), c.expr(e.alt)
		return func(fr *frame) (Val, error) {
			v, err := cond(fr)
			if err != nil {
				return Val{}, err
			}
			if v.truthy() {
				return then(fr)
			}
			return alt(fr)
		}
	case *assignExpr:
		return c.assign(e)
	case *callExpr:
		return c.call(e)
	case *indexExpr:
		target, index, pos := c.expr(e.target), c.expr(e.index), e.pos
		return func(fr *frame) (Val, error) {
			t, err := target(fr)
			if err != nil {
				return Val{}, err
			}
			i, err := index(fr)
			if err != nil {
				return Val{}, err
			}
			v, err := indexValue(pos, t.Value(), i)
			return ValOf(v), err
		}
	case *memberExpr:
		target, pos, name := c.expr(e.target), e.pos, e.name
		return func(fr *frame) (Val, error) {
			t, err := target(fr)
			if err != nil {
				return Val{}, err
			}
			return member(pos, t, name)
		}
	default:
		pos := n.position()
		return func(*frame) (Val, error) {
			return Val{}, rtErr(pos, "internal: unknown expression %T", n)
		}
	}
}

func (c *compiler) exprs(nodes []Node) []expr {
	out := make([]expr, len(nodes))
	for i, n := range nodes {
		out[i] = c.expr(n)
	}
	return out
}

// lookupMember is target.name as compiled code wants it: from a Getter
// (returned as recv) numbers come unboxed and methods unbound.
func lookupMember(pos Pos, target Val, name string) (recv HostObject, v Val, err error) {
	if g, ok := target.r.(Getter); ok {
		v, ok := g.Get(name)
		if !ok {
			return nil, Val{}, noMember(pos, g, name)
		}
		return g, v, nil
	}
	m, err := memberValue(pos, target.Value(), name)
	return nil, ValOf(m), err
}

// member is target.name as a value: a method gets bound to its object.
func member(pos Pos, target Val, name string) (Val, error) {
	recv, v, err := lookupMember(pos, target, name)
	if m, isMethod := v.r.(Method); isMethod {
		return Val{k: kRef, r: m.bind(recv)}, nil
	}
	return v, err
}

func (c *compiler) unary(e *unaryExpr) expr {
	x, pos := c.expr(e.x), e.pos
	switch e.op {
	case tokMinus:
		return func(fr *frame) (Val, error) {
			v, err := x(fr)
			if err != nil {
				return Val{}, err
			}
			if v.k != kNum {
				return Val{}, rtErr(pos, "cannot negate %s", TypeName(v.Value()))
			}
			return NumVal(-v.n), nil
		}
	case tokNot:
		return func(fr *frame) (Val, error) {
			v, err := x(fr)
			return BoolVal(!v.truthy()), err
		}
	}
	return func(*frame) (Val, error) { return Val{}, rtErr(pos, "internal: bad unary op") }
}

// arith applies op to two Vals: numbers inline, the rest through
// applyBinary.
func arith(pos Pos, op tokKind, l, r Val) (Val, error) {
	if l.k == kNum && r.k == kNum {
		switch op {
		case tokPlus:
			return NumVal(l.n + r.n), nil
		case tokMinus:
			return NumVal(l.n - r.n), nil
		case tokStar:
			return NumVal(l.n * r.n), nil
		case tokSlash:
			if r.n == 0 {
				return Val{}, rtErr(pos, "division by zero")
			}
			return NumVal(l.n / r.n), nil
		case tokPercent:
			if r.n == 0 {
				return Val{}, rtErr(pos, "modulo by zero")
			}
			return NumVal(math.Mod(l.n, r.n)), nil
		case tokLt:
			return BoolVal(l.n < r.n), nil
		case tokLe:
			return BoolVal(l.n <= r.n), nil
		case tokGt:
			return BoolVal(l.n > r.n), nil
		case tokGe:
			return BoolVal(l.n >= r.n), nil
		case tokEq:
			return BoolVal(l.n == r.n), nil
		case tokNe:
			return BoolVal(l.n != r.n), nil
		}
	}
	v, err := applyBinary(pos, op, l.Value(), r.Value())
	return ValOf(v), err
}

func (c *compiler) binary(e *binaryExpr) expr {
	l, r, pos, op := c.expr(e.l), c.expr(e.r), e.pos, e.op
	if op == tokAnd || op == tokOr {
		// The left side decides alone when it is false (&&) or true (||).
		decides := op == tokOr
		return func(fr *frame) (Val, error) {
			lv, err := l(fr)
			if err != nil {
				return Val{}, err
			}
			if lv.truthy() == decides {
				return BoolVal(decides), nil
			}
			rv, err := r(fr)
			return BoolVal(rv.truthy()), err
		}
	}
	return func(fr *frame) (Val, error) {
		lv, err := l(fr)
		if err != nil {
			return Val{}, err
		}
		rv, err := r(fr)
		if err != nil {
			return Val{}, err
		}
		return arith(pos, op, lv, rv)
	}
}

// assign compiles =, +=, -=, *=, /=. A compound operator evaluates the
// new value, then reads the target, and only then stores — so an index or
// member target's sub-expressions run twice, once for the read and once
// for the store.
func (c *compiler) assign(e *assignExpr) expr {
	value, pos, op := c.expr(e.value), e.pos, compoundOp(e.op)
	var old expr
	if op != tokAssign {
		old = c.expr(e.target)
	}
	newValue := func(fr *frame) (Val, error) {
		v, err := value(fr)
		if err != nil || old == nil {
			return v, err
		}
		o, err := old(fr)
		if err != nil {
			return Val{}, err
		}
		return arith(pos, op, o, v)
	}
	switch t := e.target.(type) {
	case *identExpr:
		set := c.store(t.name)
		return func(fr *frame) (Val, error) {
			v, err := newValue(fr)
			if err != nil {
				return Val{}, err
			}
			set(fr, v)
			return v, nil
		}
	case *indexExpr:
		target, index, tpos := c.expr(t.target), c.expr(t.index), t.pos
		return func(fr *frame) (Val, error) {
			v, err := newValue(fr)
			if err != nil {
				return Val{}, err
			}
			tv, err := target(fr)
			if err != nil {
				return Val{}, err
			}
			i, err := index(fr)
			if err != nil {
				return Val{}, err
			}
			return v, setIndex(tpos, tv.Value(), i, v.Value())
		}
	case *memberExpr:
		target, tpos, name := c.expr(t.target), t.pos, t.name
		return func(fr *frame) (Val, error) {
			v, err := newValue(fr)
			if err != nil {
				return Val{}, err
			}
			tv, err := target(fr)
			if err != nil {
				return Val{}, err
			}
			return v, setMember(tpos, tv.Value(), name, v.Value())
		}
	}
	return func(*frame) (Val, error) { return Val{}, rtErr(pos, "internal: bad assignment target") }
}

// apply calls callee — a closure, a host function, or recv's method — at
// call site pos.
func (in *Interp) apply(recv HostObject, callee Val, args []Val, pos Pos) (Val, error) {
	switch f := callee.r.(type) {
	case *Closure:
		return in.callClosure(f, args, pos)
	case Method:
		if err := in.burn(pos); err != nil {
			return Val{}, err
		}
		v, err := f(recv, args)
		if err != nil {
			return Val{}, hostErr(pos, err)
		}
		return v, nil
	case HostFunc:
		if err := in.burn(pos); err != nil {
			return Val{}, err
		}
		// A HostFunc may keep its argument slice, so it gets its own.
		boxed := make([]Value, len(args))
		for i, v := range args {
			boxed[i] = v.Value()
		}
		v, err := f(boxed)
		if err != nil {
			return Val{}, hostErr(pos, err)
		}
		return ValOf(v), nil
	}
	return Val{}, rtErr(pos, "cannot call %s", TypeName(callee.Value()))
}

// call compiles callee(args...). The callee is evaluated first, so a
// missing member is reported before any argument runs.
func (c *compiler) call(e *callExpr) expr {
	args, pos := c.exprs(e.args), e.pos
	// invoke calls callee (recv is the object when callee is its Method)
	// on the arguments, which wait on the interpreter's stack meanwhile.
	invoke := func(fr *frame, recv HostObject, callee Val) (Val, error) {
		in := fr.in
		base := len(in.stack)
		for _, a := range args {
			v, err := a(fr)
			if err != nil {
				in.stack = in.stack[:base]
				return Val{}, err
			}
			in.stack = append(in.stack, v)
		}
		v, err := in.apply(recv, callee, in.stack[base:], pos)
		in.stack = in.stack[:base]
		return v, err
	}
	if m, ok := e.callee.(*memberExpr); ok {
		target, mpos, name := c.expr(m.target), m.pos, m.name
		return func(fr *frame) (Val, error) {
			t, err := target(fr)
			if err != nil {
				return Val{}, err
			}
			recv, callee, err := lookupMember(mpos, t, name)
			if err != nil {
				return Val{}, err
			}
			return invoke(fr, recv, callee)
		}
	}
	callee := c.expr(e.callee)
	return func(fr *frame) (Val, error) {
		f, err := callee(fr)
		if err != nil {
			return Val{}, err
		}
		return invoke(fr, nil, f)
	}
}
