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
