package script

import "math"

// The evaluator. compile turns the parsed AST into Go closures once per
// Program; running a script is calling them. What makes that cheaper than
// walking the tree:
//
//   - every identifier is resolved here, at compile time, to the places it
//     can live at run time — a slot in the frame of each enclosing function
//     that ever assigns the name, then a cell of the global scope — so a
//     variable access is an index, not a map lookup;
//   - values travel as Val, numbers inline, and are boxed only where they
//     leave compiled code (arrays, maps, HostFunc arguments, Lookup);
//   - an expression compiles to one of three forms, chosen by where it
//     stands: a value (expr); a condition (cond) where only its truth is
//     wanted, so a comparison of two numbers is a Go bool; an effect (stmt)
//     where its value is dropped, so an assignment or a call is the
//     statement itself. A loop runs its body's statements itself, and a
//     for-each writes its variable in place when it has a slot of its own;
//   - members resolve at load time: x.name reads the property and
//     x.name(args...) calls the method that RegisterMembers declared for
//     x's type, after one type check, with the arguments left on the
//     interpreter's stack; any other x goes through Getter.Get or Member.
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

// cond evaluates an expression for its truth.
type cond func(fr *frame) (bool, error)

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
	// borrows is set on a top-level function that cannot keep its first
	// argument past the call. The parameter, and every for-each variable
	// bound from a member of a borrowed variable, appear only as x.member
	// reads; a member that shares the object's storage is only iterated;
	// and no function literal can capture the frame. A store to one of the
	// for-each variables, borrowed, still writes the global of that name
	// when one is bound, which Analysis checks before it borrows.
	borrows  bool
	borrowed []string
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

// own returns the name's slot when only the function being compiled can
// bind it: that slot and the global cell are then the only places to look.
func (r *varRef) own() (slot int, ok bool) {
	if len(r.locals) == 1 && r.locals[0].hops == 0 {
		return r.locals[0].slot, true
	}
	return 0, false
}

// local is where a name with its own slot is bound: the slot, else the
// global cell, else nil.
func (fr *frame) local(slot, global int) *Val {
	if s := &fr.slots[slot]; s.k != kUnbound {
		return s
	}
	if g := &fr.g[global].v; g.k != kUnbound {
		return g
	}
	return nil
}

// define stores v to a name with its own slot: where it is bound, else in
// the slot.
func (fr *frame) define(slot, global int, v Val) {
	if p := fr.local(slot, global); p != nil {
		*p = v
	} else {
		fr.slots[slot] = v
	}
}

func undefinedVar(pos Pos, name string) error { return rtErr(pos, "undefined variable %q", name) }

// load compiles a read of name.
func (c *compiler) load(pos Pos, name string) expr {
	r := c.resolve(name)
	gi := r.global
	if slot, own := r.own(); own {
		return func(fr *frame) (Val, error) {
			if p := fr.local(slot, gi); p != nil {
				return *p, nil
			}
			return Val{}, undefinedVar(pos, name)
		}
	}
	if len(r.locals) == 0 {
		return func(fr *frame) (Val, error) {
			if v := fr.g[gi].v; v.k != kUnbound {
				return v, nil
			}
			return Val{}, undefinedVar(pos, name)
		}
	}
	return func(fr *frame) (Val, error) {
		if p := r.find(fr); p != nil {
			return *p, nil
		}
		return Val{}, undefinedVar(pos, name)
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
	// scan gave every name this function assigns a slot of its own.
	here := r.locals[0].slot
	if len(r.locals) == 1 {
		return func(fr *frame, v Val) { fr.define(here, gi, v) }
	}
	return func(fr *frame, v Val) {
		p := r.find(fr)
		if p == nil {
			p = &fr.slots[here]
		}
		*p = v
	}
}

// scan walks a function body once, not entering nested function
// literals. It gives a slot in s to every name the body can define there
// (targets of assignments and for-each variables) and works out whether
// the function borrows its first parameter, param, and through which
// for-each variables (see funcProto.borrows).
func scan(s *fnScope, body Node, param string) (borrows bool, vars []string) {
	name := func(id string) {
		if _, ok := s.slots[id]; !ok {
			s.slots[id] = len(s.slots)
		}
	}
	// keeps names a variable whose value the body may keep: one used
	// other than as x.member, or whose shared member is read other than
	// as a for-each iterable.
	keeps := map[string]bool{}
	bindings := map[string][]string{} // for (v : x.member) binds v from x
	var walk func(n Node)
	walk = func(n Node) {
		switch n := n.(type) {
		case nil, *numberLit, *stringLit, *boolLit, *nilLit, *breakStmt, *continueStmt:
		case *identExpr:
			keeps[n.name] = true
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
			id, ok := n.target.(*identExpr)
			if !ok {
				walk(n.target)
			} else if memberAccess(n.name).ref {
				keeps[id.name] = true
			}
		case *assignExpr:
			switch t := n.target.(type) {
			case *identExpr:
				name(t.name)
				walk(t)
			case *memberExpr:
				walk(t.target) // a member store uses its object as a value
			default:
				walk(t)
			}
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
			walk(n.alt)
		case *whileStmt:
			walk(n.cond)
			walk(n.body)
		case *forStmt:
			walk(n.init)
			walk(n.cond)
			walk(n.post)
			walk(n.body)
		case *forEachStmt:
			name(n.ident)
			if id, ok := memberOfVar(n.iterable); ok {
				bindings[id] = append(bindings[id], n.ident)
			} else {
				walk(n.iterable)
			}
			walk(n.body)
		case *returnStmt:
			walk(n.val)
		}
	}
	walk(body)
	if s.parent != nil || s.captured {
		return false, nil
	}
	borrowed := map[string]bool{param: true}
	for todo := []string{param}; len(todo) > 0; todo = todo[1:] {
		if keeps[todo[0]] {
			return false, nil
		}
		for _, v := range bindings[todo[0]] {
			if !borrowed[v] {
				borrowed[v] = true
				vars = append(vars, v)
				todo = append(todo, v)
			}
		}
	}
	return true, vars
}

// memberOfVar returns x when n is x.member.
func memberOfVar(n Node) (string, bool) {
	if m, ok := n.(*memberExpr); ok {
		if id, ok := m.target.(*identExpr); ok {
			return id.name, true
		}
	}
	return "", false
}

func (c *compiler) funcLit(e *funcLit) expr {
	s := &fnScope{slots: make(map[string]int, len(e.params)), parent: c.fn}
	for i, p := range e.params {
		s.slots[p] = i
	}
	param := ""
	if len(e.params) > 0 {
		param = e.params[0]
	}
	borrows, borrowed := scan(s, e.body, param)
	outer := c.fn
	c.fn = s
	body := c.block(e.body)
	c.fn = outer
	proto := &funcProto{
		name: e.name, pos: e.pos,
		nparams: len(e.params), nslots: len(s.slots),
		body: body, captured: s.captured,
		borrows: borrows, borrowed: borrowed,
	}
	return func(fr *frame) (Val, error) {
		return Val{k: kRef, r: &Closure{fn: proto, parent: fr, g: fr.g}}, nil
	}
}

// Statements.

func (c *compiler) stmt(n Node) stmt {
	switch s := n.(type) {
	case *exprStmt:
		return c.effect(s.x)
	case *blockStmt:
		return c.block(s)
	case *ifStmt:
		test, then := c.cond(s.cond), c.stmt(s.then)
		var alt stmt
		if s.alt != nil {
			alt = c.stmt(s.alt)
		}
		return func(fr *frame) (ctrl, error) {
			ok, err := test(fr)
			switch {
			case err != nil:
				return ctrlNone, err
			case ok:
				return then(fr)
			case alt != nil:
				return alt(fr)
			}
			return ctrlNone, nil
		}
	case *whileStmt:
		return c.loop(s.pos, nil, c.cond(s.cond), nil, c.body(s.body))
	case *forStmt:
		var init, post stmt
		var test cond
		if s.init != nil {
			init = c.effect(s.init)
		}
		if s.cond != nil {
			test = c.cond(s.cond)
		}
		if s.post != nil {
			post = c.effect(s.post)
		}
		return c.loop(s.pos, init, test, post, c.body(s.body))
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
	stmts := c.body(b)
	if len(stmts) == 1 {
		return stmts[0]
	}
	return func(fr *frame) (ctrl, error) { return run(fr, stmts) }
}

// body compiles the statements a block, or a loop's body, runs in turn:
// a loop runs them itself, with no block in between.
func (c *compiler) body(n Node) []stmt {
	b, ok := n.(*blockStmt)
	if !ok {
		return []stmt{c.stmt(n)}
	}
	stmts := make([]stmt, len(b.stmts))
	for i, s := range b.stmts {
		stmts[i] = c.stmt(s)
	}
	return stmts
}

// run runs stmts until one fails or ends other than normally.
func run(fr *frame, stmts []stmt) (ctrl, error) {
	for _, s := range stmts {
		if how, err := s(fr); err != nil || how != ctrlNone {
			return how, err
		}
	}
	return ctrlNone, nil
}

// loop is while (init, post nil) and the C-style for (any part nil).
func (c *compiler) loop(pos Pos, init stmt, test cond, post stmt, body []stmt) stmt {
	return func(fr *frame) (ctrl, error) {
		if init != nil {
			if _, err := init(fr); err != nil {
				return ctrlNone, err
			}
		}
		for {
			if test != nil {
				ok, err := test(fr)
				if err != nil || !ok {
					return ctrlNone, err
				}
			}
			how, err := run(fr, body)
			if err != nil || how == ctrlBreak {
				return ctrlNone, err
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

// forEach compiles for (x : seq). A variable with a slot of its own is
// written in place, where store would write it.
func (c *compiler) forEach(s *forEachStmt) stmt {
	iterable, body, pos := c.expr(s.iterable), c.body(s.body), s.pos
	r := c.resolve(s.ident)
	slot, own := r.own()
	gi := r.global
	var set func(*frame, Val)
	if !own {
		set = c.store(s.ident)
	}
	return func(fr *frame) (ctrl, error) {
		it, err := iterable(fr)
		if err != nil {
			return ctrlNone, err
		}
		// A number n counts 0 … n-1; an array's bounds are taken once, so
		// elements the body appends are not visited; a map gives its keys.
		num, seq := it.k == kNum, []Value(nil)
		switch x := it.r.(type) {
		case *Array:
			seq = x.Elems
		case *Map:
			seq = sortedMapKeys(x)
		default:
			if !num {
				return ctrlNone, rtErr(pos, "cannot iterate over %s", TypeName(it.Value()))
			}
		}
		for i := 0; num && float64(i) < it.n || i < len(seq); i++ {
			v := NumVal(float64(i))
			if !num {
				v = ValOf(seq[i])
			}
			if own {
				fr.define(slot, gi, v)
			} else {
				set(fr, v)
			}
			how, err := run(fr, body)
			if err != nil || how == ctrlBreak {
				return ctrlNone, err
			}
			if how == ctrlReturn {
				return how, nil
			}
			if err := fr.in.burn(pos); err != nil {
				return ctrlNone, err
			}
		}
		return ctrlNone, nil
	}
}

// effect compiles an expression whose value is not used. An assignment to
// a variable with a slot of its own, or a call, is then the statement
// itself.
func (c *compiler) effect(n Node) stmt {
	switch e := n.(type) {
	case *callExpr:
		site := c.callSite(e)
		return func(fr *frame) (ctrl, error) {
			_, err := site.run(fr)
			return ctrlNone, err
		}
	case *assignExpr:
		id, ok := e.target.(*identExpr)
		if !ok {
			break
		}
		r := c.resolve(id.name)
		slot, own := r.own()
		if !own {
			break
		}
		a := &localAssign{value: c.expr(e.value), slot: slot, global: r.global, op: compoundOp(e.op), pos: e.pos, id: id}
		return func(fr *frame) (ctrl, error) {
			v, err := a.value(fr)
			if err != nil {
				return ctrlNone, err
			}
			if a.op == tokAssign {
				fr.define(a.slot, a.global, v)
				return ctrlNone, nil
			}
			// A compound operator updates the variable where it is bound,
			// which is where the store would write.
			p := fr.local(a.slot, a.global)
			if p == nil {
				return ctrlNone, undefinedVar(a.id.pos, a.id.name)
			}
			if p.k == kNum && v.k == kNum {
				if n, ok := numOp(a.op, p.n, v.n); ok {
					p.n = n
					return ctrlNone, nil
				}
			}
			if v, err = arith(a.pos, a.op, *p, v); err == nil {
				*p = v
			}
			return ctrlNone, err
		}
	}
	x := c.expr(n)
	return func(fr *frame) (ctrl, error) {
		_, err := x(fr)
		return ctrlNone, err
	}
}

// cond compiles n where only its truth is wanted: the condition of if,
// while, for and ?:, and the operands of &&, || and !. A comparison of two
// numbers is a Go comparison, and a literal right operand is folded.
func (c *compiler) cond(n Node) cond {
	if v, ok := literal(n); ok {
		b := v.truthy()
		return func(*frame) (bool, error) { return b, nil }
	}
	switch e := n.(type) {
	case *unaryExpr:
		if e.op == tokNot {
			x := c.cond(e.x)
			return func(fr *frame) (bool, error) {
				b, err := x(fr)
				return !b, err
			}
		}
	case *binaryExpr:
		switch e.op {
		case tokAnd, tokOr:
			// The left side decides alone when it is false (&&) or true (||).
			l, r, decides := c.cond(e.l), c.cond(e.r), e.op == tokOr
			return func(fr *frame) (bool, error) {
				b, err := l(fr)
				if err != nil || b == decides {
					return b, err
				}
				return r(fr)
			}
		case tokLt, tokLe, tokGt, tokGe, tokEq, tokNe:
			return c.compare(e)
		}
	}
	x := c.expr(n)
	return func(fr *frame) (bool, error) {
		v, err := x(fr)
		return v.truthy(), err
	}
}

// compare compiles a comparison as a condition.
func (c *compiler) compare(e *binaryExpr) cond {
	o := &operands{l: c.expr(e.l), r: c.expr(e.r), op: e.op, pos: e.pos}
	o.k, o.folded = literal(e.r)
	return func(fr *frame) (bool, error) {
		lv, err := o.l(fr)
		if err != nil {
			return false, err
		}
		rv := o.k
		if !o.folded {
			if rv, err = o.r(fr); err != nil {
				return false, err
			}
		}
		if lv.k == kNum && rv.k == kNum {
			return compare(o.op, lv.n, rv.n), nil
		}
		v, err := arith(o.pos, o.op, lv, rv)
		return v.truthy(), err
	}
}

// Closures that call out and then need several captured values hold them
// through one pointer: Go keeps no register across a call, so each value
// still live would be saved on every entry.

// operands is a binary operator and its operands; k is the right one when
// it is a literal, folded.
type operands struct {
	l, r   expr
	op     tokKind
	pos    Pos
	k      Val
	folded bool
}

// localAssign is an assignment to a variable with a slot of its own.
type localAssign struct {
	value        expr
	slot, global int
	op           tokKind
	pos          Pos
	id           *identExpr
}

// Expressions.

// literal returns the value of a literal node.
func literal(n Node) (Val, bool) {
	switch e := n.(type) {
	case *numberLit:
		return NumVal(e.val), true
	case *stringLit:
		return Val{k: kRef, r: e.val}, true
	case *boolLit:
		return BoolVal(e.val), true
	case *nilLit:
		return Val{}, true
	}
	return Val{}, false
}

func (c *compiler) expr(n Node) expr {
	if v, ok := literal(n); ok {
		return func(*frame) (Val, error) { return v, nil }
	}
	switch e := n.(type) {
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
		test, then, alt := c.cond(e.cond), c.expr(e.then), c.expr(e.alt)
		return func(fr *frame) (Val, error) {
			ok, err := test(fr)
			if err != nil {
				return Val{}, err
			}
			if ok {
				return then(fr)
			}
			return alt(fr)
		}
	case *assignExpr:
		return c.assign(e)
	case *callExpr:
		return c.callSite(e).run
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
		return c.member(e)
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

// member compiles a read of target.name: through the property
// registered for name when target has its type, else through the generic
// member.
func (c *compiler) member(e *memberExpr) expr {
	pos, name := e.pos, e.name
	acc := memberAccess(name)
	if id, ok := e.target.(*identExpr); ok && acc.local != nil {
		r := c.resolve(id.name)
		if slot, own := r.own(); own {
			// A local's member, with the variable read in place.
			return acc.local(slot, r.global, func(t *Val) (Val, error) {
				if t == nil {
					return Val{}, undefinedVar(id.pos, id.name)
				}
				return member(pos, *t, name)
			})
		}
	}
	target := c.expr(e.target)
	return func(fr *frame) (Val, error) {
		t, err := target(fr)
		if err != nil {
			return Val{}, err
		}
		if v, ok := acc.get(t.r); ok {
			return v, nil
		}
		return member(pos, t, name)
	}
}

// lookupMember is target.name as compiled code wants it: from a Getter
// (returned as recv) numbers come unboxed and methods unbound.
func lookupMember(pos Pos, target Val, name string) (recv Value, v Val, err error) {
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
	if m, isMethod := v.r.(method); isMethod {
		return Val{k: kRef, r: bind(m, recv)}, nil
	}
	return v, err
}

func (c *compiler) unary(e *unaryExpr) expr {
	pos := e.pos
	switch e.op {
	case tokMinus:
		x := c.expr(e.x)
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
		return c.boolean(e)
	}
	return func(*frame) (Val, error) { return Val{}, rtErr(pos, "internal: bad unary op") }
}

// arith applies op to two Vals: numbers inline, the rest through
// applyBinary.
func arith(pos Pos, op tokKind, l, r Val) (Val, error) {
	if l.k == kNum && r.k == kNum {
		if n, ok := numOp(op, l.n, r.n); ok {
			return NumVal(n), nil
		}
		switch op {
		case tokSlash:
			return Val{}, rtErr(pos, "division by zero")
		case tokPercent:
			if r.n == 0 {
				return Val{}, rtErr(pos, "modulo by zero")
			}
			return NumVal(math.Mod(l.n, r.n)), nil
		case tokLt, tokLe, tokGt, tokGe, tokEq, tokNe:
			return BoolVal(compare(op, l.n, r.n)), nil
		}
	}
	v, err := applyBinary(pos, op, l.Value(), r.Value())
	return ValOf(v), err
}

// numOp applies +, -, * or / to two numbers; ok is false for any other
// operator and for a division by zero.
func numOp(op tokKind, l, r float64) (n float64, ok bool) {
	switch {
	case op == tokPlus:
		return l + r, true
	case op == tokMinus:
		return l - r, true
	case op == tokStar:
		return l * r, true
	case op == tokSlash && r != 0:
		return l / r, true
	}
	return 0, false
}

// compare applies a comparison operator to two numbers.
func compare(op tokKind, l, r float64) bool {
	switch op {
	case tokLt:
		return l < r
	case tokLe:
		return l <= r
	case tokGt:
		return l > r
	case tokGe:
		return l >= r
	case tokEq:
		return l == r
	}
	return l != r
}

// boolean compiles a logical operator's value from its condition form.
func (c *compiler) boolean(n Node) expr {
	test := c.cond(n)
	return func(fr *frame) (Val, error) {
		b, err := test(fr)
		return BoolVal(b), err
	}
}

func (c *compiler) binary(e *binaryExpr) expr {
	if e.op == tokAnd || e.op == tokOr {
		return c.boolean(e)
	}
	l, r, pos, op := c.expr(e.l), c.expr(e.r), e.pos, e.op
	// A literal right operand is not evaluated: it has no effect to order.
	if k, ok := literal(e.r); ok {
		return func(fr *frame) (Val, error) {
			lv, err := l(fr)
			if err != nil {
				return Val{}, err
			}
			return arith(pos, op, lv, k)
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
func (in *Interp) apply(recv Value, callee Val, args []Val, pos Pos) (Val, error) {
	switch f := callee.r.(type) {
	case *Closure:
		return in.callClosure(f, args, pos)
	case method:
		return in.callMethod(f, recv, args, pos)
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

func (in *Interp) callMethod(m method, recv Value, args []Val, pos Pos) (Val, error) {
	if err := in.burn(pos); err != nil {
		return Val{}, err
	}
	v, err := m.call(recv, args)
	if err != nil {
		return Val{}, hostErr(pos, err)
	}
	return v, nil
}

// callSite is a compiled call: callee(args...), or recv.name(args...)
// when recv is set. Its value form is run and its statement form calls
// run directly.
type callSite struct {
	callee, recv expr
	name         string
	method       func(Value) method // name's registered methods
	args         []expr
	pos, mpos    Pos
}

func (c *compiler) callSite(e *callExpr) *callSite {
	s := &callSite{args: c.exprs(e.args), pos: e.pos}
	if m, ok := e.callee.(*memberExpr); ok {
		s.recv, s.name, s.mpos = c.expr(m.target), m.name, m.pos
		s.method = memberAccess(m.name).call
	} else {
		s.callee = c.expr(e.callee)
	}
	return s
}

// run makes the call. The callee is evaluated first, so a missing member
// is reported before any argument runs; the arguments then wait on the
// interpreter's stack. A method registered for the receiver's type needs
// no lookup by name.
func (s *callSite) run(fr *frame) (Val, error) {
	var recv Value
	var callee Val
	var m method
	var err error
	if s.recv == nil {
		callee, err = s.callee(fr)
	} else if callee, err = s.recv(fr); err == nil {
		if m = s.method(callee.r); m != nil {
			recv = callee.r
		} else {
			recv, callee, err = lookupMember(s.mpos, callee, s.name)
		}
	}
	if err != nil {
		return Val{}, err
	}
	in := fr.in
	base := len(in.stack)
	for _, a := range s.args {
		v, err := a(fr)
		if err != nil {
			in.stack = in.stack[:base]
			return Val{}, err
		}
		in.stack = append(in.stack, v)
	}
	var v Val
	if m != nil {
		v, err = in.callMethod(m, recv, in.stack[base:], s.pos)
	} else {
		v, err = in.apply(recv, callee, in.stack[base:], s.pos)
	}
	in.stack = in.stack[:base]
	return v, err
}
