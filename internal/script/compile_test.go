package script

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"github.com/ipa-grid/ipa/internal/aida"
)

// runBoth runs src as top-level code under the compiled evaluator and the
// tree-walker and requires the same output and the same error. It returns
// the compiled run's interpreter, output and error. host defines what the
// script finds beyond the builtins, once per interpreter.
func runBoth(t *testing.T, src string, opts Options, host ...func(*Interp)) (*Interp, string, error) {
	t.Helper()
	var out, oracleOut bytes.Buffer
	opts.Output = &out
	in := New(opts)
	opts.Output = &oracleOut
	oracleIn := New(opts)
	for _, define := range host {
		define(in)
		define(oracleIn)
	}
	prog, err := Compile(src)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	err = in.Run(prog)
	oracleErr := newOracle(oracleIn).run(src)
	if out.String() != oracleOut.String() {
		t.Errorf("output\n compiled: %q\n walker:   %q", out.String(), oracleOut.String())
	}
	fuel := errors.Is(err, ErrFuelExhausted) && errors.Is(oracleErr, ErrFuelExhausted)
	if !fuel && (err == nil) != (oracleErr == nil) || !fuel && err != nil && err.Error() != oracleErr.Error() {
		t.Errorf("error\n compiled: %v\n walker:   %v", err, oracleErr)
	}
	return in, out.String(), err
}

// A function that assigns `total` defines a local while no global of
// that name exists — and writes the global once one does, even though the
// function was compiled, and first called, before it appeared.
func TestGlobalDefinedAfterFirstCallIsAssigned(t *testing.T) {
	in, out, err := runBoth(t, `
		function bump() { total = 1; return total; }
		println(bump());         // local: no global yet
		total = 10;
		bump();                  // now the global
		println(total);
		function read() { return total + 1; }
		println(read());
	`, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if out != "1\n1\n2\n" {
		t.Fatalf("output %q", out)
	}
	// The same through the host: a global defined between two Calls.
	in, _, err = runBoth(t, `function set() { fromHost = 5; }`, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := in.Call("set"); err != nil {
		t.Fatal(err)
	}
	if _, ok := in.Lookup("fromHost"); ok {
		t.Fatal("a function-local assignment leaked into the globals")
	}
	in.Define("fromHost", 0.0)
	if _, err := in.Call("set"); err != nil {
		t.Fatal(err)
	}
	if v, _ := in.Lookup("fromHost"); v != 5.0 {
		t.Fatalf("global defined between calls not assigned: %v", v)
	}
}

// Scopes are per activation, not per block or iteration: closures made in
// a loop share the loop variable, and closures of different calls do not.
func TestClosureCapturesLoopVariable(t *testing.T) {
	_, out, err := runBoth(t, `
		function make() {
			fs = [];
			for (i = 0; i < 3; i += 1) push(fs, function() { return i; });
			return fs;
		}
		a = make(); b = make();
		println(a[0](), a[1](), a[2]());
		function counter() { n = 0; return function() { n += 1; return n; }; }
		c = counter(); d = counter();
		c(); c();
		println(c(), d());
		// Three levels: the innermost function writes two activations up.
		function outer() {
			x = 1;
			function mid() { function inner() { x += 10; } inner(); return x; }
			return mid() + x;
		}
		println(outer());
	`, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if out != "3 3 3\n3 1\n22\n" {
		t.Fatalf("output %q", out)
	}
}

func TestRecursionToMaxCallDepth(t *testing.T) {
	const src = `function down(n) { if (n == 0) return 0; return 1 + down(n - 1); } println(down(DEPTH));`
	_, out, err := runBoth(t, strings.Replace(src, "DEPTH", "31", 1), Options{MaxCallDepth: 32})
	if err != nil || out != "31\n" {
		t.Fatalf("32 nested calls under a limit of 32: %q, %v", out, err)
	}
	_, _, err = runBoth(t, strings.Replace(src, "DEPTH", "32", 1), Options{MaxCallDepth: 32})
	var rt *RuntimeError
	if !errors.As(err, &rt) || rt.Msg != "call depth exceeds 32" || rt.Pos.Line != 1 {
		t.Fatalf("33 nested calls under a limit of 32: %v", err)
	}
}

// Every way of not terminating is stopped by fuel, with a position.
func TestFuelStopsEveryKindOfLoop(t *testing.T) {
	for name, src := range map[string]string{
		"while":          "x = 0;\nwhile (true) { x += 1; }",
		"for":            "x = 0;\nfor (;;) x += 1;",
		"for-each range": "x = 0;\nfor (i : 1e18) x += 1;",
		"recursion":      "x = 0;\nfunction f() { x += 1; f(); }\nf();",
		"empty body":     "\nwhile (true) {}",
		"host calls":     "\nfor (;;) sqrt(2);",
	} {
		// The depth limit is out of the way: fuel alone must stop these.
		in, _, err := runBoth(t, src, Options{Fuel: 5000, MaxCallDepth: 1 << 20})
		var rt *RuntimeError
		if !errors.Is(err, ErrFuelExhausted) || !errors.As(err, &rt) || rt.Pos.Line < 2 {
			t.Errorf("%s: not stopped by fuel with a position: %v", name, err)
			continue
		}
		if x, ok := in.Lookup("x"); ok && x.(float64) > 5001 {
			t.Errorf("%s: ran %v iterations on 5000 units of fuel", name, x)
		}
	}
}

// plainObject is a HostObject without Get: the evaluator must fall back
// to Member and a call of what it returns.
type plainObject struct{ calls int }

func (o *plainObject) TypeName() string { return "plain" }

func (o *plainObject) Member(name string) (Value, bool) {
	switch name {
	case "calls":
		return float64(o.calls), true
	case "bump":
		return HostFunc(func(args []Value) (Value, error) {
			o.calls += len(args)
			return float64(o.calls), nil
		}), true
	}
	return nil, false
}

func (o *plainObject) SetMember(name string, v Value) error {
	if name != "calls" {
		return errors.New("read-only member " + name)
	}
	f, err := Number(v)
	o.calls = int(f)
	return err
}

// obj.method(args) on a Getter goes through its Method, on a plain
// HostObject through Member and a call. Either way a missing member is
// reported before the arguments run, and a method taken as a value stays
// bound to its object.
func TestMethodCallPaths(t *testing.T) {
	host := func(in *Interp) {
		in.Define("tree", &TreeObject{Tree: aida.NewTree()})
		in.Define("obj", &plainObject{})
	}
	_, out, err := runBoth(t, `
		h = tree.h1d("/m", "h", "", 10, 0, 10);
		h.fill(3); h.fill(5, 2);
		fill = h.fill;
		fill(7);
		println(h.entries(), h.mean());
		obj.bump(1, 2); bump = obj.bump; bump(3);
		obj.calls += 10;
		println(obj.calls, obj.bump());
	`, Options{}, host)
	if err != nil || out != "3 5\n13 13\n" {
		t.Fatalf("output %q, err %v", out, err)
	}
	for src, want := range map[string]string{
		`tree.h1d("/m", "h", "", 10, 0, 10).nosuch(println("evaluated"));`: `script:1:35: histogram1d has no member "nosuch"`,
		`obj.nosuch(println("evaluated"));`:                                `script:1:4: plain has no member "nosuch"`,
		`h = tree.h1d("/m", "h", "", 10, 0, 10); h.fill("x");`:             `script:1:47: fill: expected number, got string`,
		`h = tree.h1d("/m", "h", "", 10, 0, 10); f = h.fill; f();`:         `script:1:54: fill expects (x) or (x, weight)`,
		`tree.h1d("/m", "h", "", 0, 0, 0);`:                                `script:1:9: tree.h1d: invalid axis [0,0) with 0 bins`,
		`tree.p1d("/m", "p", "", 1e9, 0, 1);`:                              `script:1:9: tree.p1d: invalid axis [0,1) with 1e+09 bins`,
		`tree.h2d("/m", "h", "", 2, 0, 1, 2, 1, 1);`:                       `script:1:9: tree.h2d: invalid axis [1,1) with 2 bins`,
		`obj.other = 1;`: `script:1:4: read-only member other`,
		`tree.x = 1;`:    `script:1:5: cannot set member "x" on tree`,
	} {
		_, out, err := runBoth(t, src, Options{}, host)
		if err == nil || err.Error() != want || out != "" {
			t.Errorf("%s\n got  %v (printed %q)\n want %s", src, err, out, want)
		}
	}
}

// testView is a host object with registered members, as a record
// decoder's views have: val, a number, and items, an array of views that
// shares the object's storage.
type testView struct {
	val   float64
	items Array
}

var testViewMembers = map[string]Member[*testView]{
	"val":   {Get: func(v *testView) Val { return NumVal(v.val) }},
	"items": {Get: func(v *testView) Val { return ValOf(&v.items) }, Ref: true},
}

func init() { RegisterMembers(testViewMembers) }

func (*testView) TypeName() string                   { return "view" }
func (v *testView) Member(name string) (Value, bool) { return MemberOf(v, name) }

func (v *testView) Get(name string) (Val, bool) {
	m, ok := testViewMembers[name]
	if !ok {
		return Val{}, false
	}
	return m.Get(v), true
}

// A registered member is read through its accessor, from a local, a
// global or any expression; another type with a member of that name, or
// none, goes the generic way, with the same errors at the same positions.
// A compound assignment to a local, as a statement, reports what the
// generic one does.
func TestRegisteredMembersAndFusedShapes(t *testing.T) {
	host := func(in *Interp) {
		in.Define("v", &testView{val: 2, items: Array{Elems: []Value{&testView{val: 3}}}})
		in.Define("obj", &plainObject{})
	}
	_, out, err := runBoth(t, `
		m = {"val": 5};
		function f(x) { return x.val; }
		function sum(x) { t = 0; for (p : x.items) t += p.val; t *= 2; return t; }
		println(f(v), f(m), v.val + 1, v.items[0].val, sum(v), 10 - v.val, v.val > 1);
	`, Options{}, host)
	if err != nil || out != "2 5 3 3 6 8 true\n" {
		t.Fatalf("output %q, err %v", out, err)
	}
	for src, want := range map[string]string{
		`function f(x) { return x.val; } f(obj);`:                  `script:1:25: plain has no member "val"`,
		`function f(x) { return x.val; } f(1);`:                    `script:1:25: number has no members`,
		`function g() { if (false) y = 1; return y.val; } g();`:    `script:1:41: undefined variable "y"`,
		`function g() { if (false) t = 1; t += v.val; } g();`:      `script:1:34: undefined variable "t"`,
		`function g() { t = "s"; t -= v.val; } g();`:               `script:1:27: operator '-' not defined for string and number`,
		`function g() { t = 1; t /= 0; } g();`:                     `script:1:25: division by zero`,
		`function g() { t = 1; t /= v.val - 2; println(t); } g();`: `script:1:25: division by zero`,
		`function g() { x = v; return x.nosuch; } g();`:            `script:1:31: view has no member "nosuch"`,
	} {
		_, out, err := runBoth(t, src, Options{}, host)
		if err == nil || err.Error() != want || out != "" {
			t.Errorf("%s\n got  %v (printed %q)\n want %s", src, err, out, want)
		}
	}
}

// compile marks the top-level functions that cannot keep their first
// argument, and names the for-each variables that hold what they borrow.
func TestBorrowMarking(t *testing.T) {
	for src, want := range map[string]string{
		`function process(ev) { x = ev.val; for (p : ev.items) x += p.val; }`:                  "p",
		`function process(ev) { for (p : ev.items) for (q : p.items) x = q.val; }`:             "p q",
		`function process(ev) { return ev.val; }`:                                              "",
		`function process(ev) { for (i : ev.val) keep(i); }`:                                   "no", // bound from any member, i is borrowed
		`function process(ev) { keep(ev); }`:                                                   "no",
		`function process(ev) { a = ev.items; }`:                                               "no",
		`function process(ev) { ev.items[0]; }`:                                                "no",
		`function process(ev) { ev.nosuch; }`:                                                  "no",
		`function process(ev) { ev.val = 1; }`:                                                 "no",
		`function process(ev) { ev = 1; }`:                                                     "no",
		`function process(ev) { for (p : ev.items) return p; }`:                                "no",
		`function process(ev) { for (p : ev.items) x = [p]; }`:                                 "no",
		`function process(ev) { for (p : ev.items) for (q : p.items) keep(q); }`:               "no",
		`function process(ev) { for (p : ev.items) p.val += 1; }`:                              "no",
		`function process(ev) { f = function() { return 1; }; }`:                               "no",
		`process = nil; function outer() { process = function(ev) { x = ev.val; }; } outer();`: "no",
	} {
		prog, err := Compile(src)
		if err != nil {
			t.Fatal(err)
		}
		in := New(Options{})
		if err := in.Run(prog); err != nil {
			t.Fatal(err)
		}
		fn, _ := in.Lookup("process")
		proto := fn.(*Closure).fn
		got := "no"
		if proto.borrows {
			got = strings.Join(proto.borrowed, " ")
		}
		if got != want {
			t.Errorf("%s: borrows %q, want %q", src, got, want)
		}
	}
}

// A condition, an effect and an in-place for-each report what the
// generic forms report: the same error at the same position when a
// comparison's operands are not numbers, and truthiness for a condition
// that is not a comparison.
func TestConditionAndEffectForms(t *testing.T) {
	host := func(in *Interp) { in.Define("v", &testView{val: 2}) }
	for src, want := range map[string]string{
		"function f(p) { if (p.val >= \"x\") return 1; }\nf(v);":           `script:1:27: operator '>=' not defined for number and string`,
		"s = 1;\nwhile (s < nil) s += 1;":                                  `script:2:10: operator '<' not defined for number and nil`,
		"function f() { t = \"s\"; for (i : 3) t -= i; }\nf();":            `script:1:39: operator '-' not defined for string and number`,
		"function f() { for (i : 3) { if (false) u = 1; u += i; } }\nf();": `script:1:48: undefined variable "u"`,
		"x = 1 ? v.nosuch : 0;":                                            `script:1:10: view has no member "nosuch"`,
		"if (!(v.val > 1 && v.nosuch)) {}":                                 `script:1:21: view has no member "nosuch"`,
	} {
		_, out, err := runBoth(t, src, Options{}, host)
		if err == nil || err.Error() != want || out != "" {
			t.Errorf("%s\n got  %v (printed %q)\n want %s", src, err, out, want)
		}
	}
	// A failed assignment stores nothing, not even to a global.
	in, _, err := runBoth(t, "g = 1; h = 2;\nfunction f() { g = v.nosuch; }\nfunction k() { h += v.nosuch; }\nf();", Options{}, host)
	if err == nil {
		t.Fatal("assigning a missing member succeeded")
	}
	if _, err := in.Call("k"); err == nil {
		t.Fatal("adding a missing member succeeded")
	}
	if g, _ := in.Lookup("g"); g != 1.0 {
		t.Fatalf("a failed assignment stored %v", g)
	}
	if h, _ := in.Lookup("h"); h != 2.0 {
		t.Fatalf("a failed compound assignment stored %v", h)
	}
	_, out, err := runBoth(t, `
		n = 3; while (n) n -= 1;
		k = 0; for (s = "ab"; s; s = "") k += 1;
		for (; nil;) k += 100;
		while ("") k += 1000;
		m = 0; for (x = 0; x < 2.5; x += 1) m += 10;
		println(n, k, m, 1 < 2 ? "yes" : "no", !(2 <= 1), 1 != 1 || nil == nil);
	`, Options{}, host)
	if err != nil || out != "0 1 30 yes true true\n" {
		t.Fatalf("output %q, err %v", out, err)
	}
}

// && and || leave their right side alone, uncharged, once the left side
// decides.
func TestShortCircuitChargesNothing(t *testing.T) {
	run := func(src string) (int64, string) {
		in, out, err := runBoth(t, src, Options{Fuel: 1000})
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		return in.RemainingFuel(), out
	}
	const bump = "calls = 0;\nfunction bump() { calls += 1; return true; }\n"
	want, _ := run(bump + `if (false) {} if (true) {} x = false; y = true; println(calls);`)
	got, out := run(bump + `if (false && bump()) {} if (true || bump()) {} x = false && bump(); y = true || bump(); println(calls);`)
	if got != want || out != "0\n" {
		t.Fatalf("short-circuited operands: %d fuel left against %d, printed %q", got, want, out)
	}
}

// An in-place for-each is charged per iteration at its own position, as
// the tree-walker charges it; and a loop variable named like a bound
// global writes the global.
func TestInPlaceForEach(t *testing.T) {
	const src = "function f() {\n\tn = 0;\n\tfor (i : 1e9) n += i;\n}\nf();"
	in := New(Options{Fuel: 50})
	prog, err := Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	err = in.Run(prog)
	if err == nil || err.Error() != "script:3:2: "+ErrFuelExhausted.Error() {
		t.Fatalf("compiled: %v", err)
	}
	walker := map[string]bool{}
	for fuel := int64(1); fuel < 60; fuel++ {
		if err := newOracle(New(Options{Fuel: fuel})).run(src); err != nil {
			walker[err.Error()] = true
		}
	}
	if !walker[err.Error()] {
		t.Fatalf("the tree-walker never runs out at %v: %v", err, walker)
	}
	_, out, err := runBoth(t, `
		q = nil;
		function f(a) { for (q : a) last = q; return last; }
		function g(m) { for (len : m) {} }
		function h() { s = 0; for (k : {"b": 2, "a": 1}) if (k == "a") s += 1; for (j : 3) { if (j == 1) continue; s += j; } return s; }
		println(f([1, 2, 3]), q);
		g({"x": 1});
		println(len, h());
	`, Options{})
	if err != nil || out != "3 3\nx 3\n" {
		t.Fatalf("output %q, err %v", out, err)
	}
}

// One call site h.fill(x) calls an H1D's registered method directly,
// falls back to the member of another receiver, and fails on a value
// without members; a wrong number of arguments keeps the method's error.
func TestMethodCallSite(t *testing.T) {
	host := func(in *Interp) { in.Define("tree", &TreeObject{Tree: aida.NewTree()}) }
	const src = `
		h1 = tree.h1d("/t", "h", "", 10, 0, 10);
		m = {"fill": function(x) { println("map", x); }};
		function fill(h, x) { h.fill(x); }
		fill(h1, 3); fill(m, 4); fill(h1, 5);
		println(h1.entries(), h1.mean());
		fill(5, 6);
	`
	_, out, err := runBoth(t, src, Options{}, host)
	if err == nil || err.Error() != `script:4:26: number has no members` || out != "map 4\n2 4\n" {
		t.Fatalf("output %q, err %v", out, err)
	}
	fill := memberAccess("fill").call
	if fill(&H1DObject{}) == nil || fill(NewMap()) != nil || fill(1.0) != nil {
		t.Fatal("fill resolves to a method on the wrong receivers")
	}
	for src, want := range map[string]string{
		`h = tree.h1d("/t", "h", "", 10, 0, 10); h.fill();`:            `script:1:47: fill expects (x) or (x, weight)`,
		`h = tree.h1d("/t", "h", "", 10, 0, 10); h.fill(1, 2, 3);`:     `script:1:47: fill expects (x) or (x, weight)`,
		`h = tree.h1d("/t", "h", "", 10, 0, 10); x = h.fill(1, 2, 3);`: `script:1:51: fill expects (x) or (x, weight)`,
	} {
		_, out, err := runBoth(t, src, Options{}, host)
		if err == nil || err.Error() != want || out != "" {
			t.Errorf("%s\n got  %v (printed %q)\n want %s", src, err, out, want)
		}
	}
}
