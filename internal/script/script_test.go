package script

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"testing/quick"
)

// evalExpr compiles and runs "result = <expr>" and returns the value.
func evalExpr(t *testing.T, expr string) Value {
	t.Helper()
	in := New(Options{})
	prog, err := Compile("result = " + expr + ";")
	if err != nil {
		t.Fatalf("compile %q: %v", expr, err)
	}
	if err := in.Run(prog); err != nil {
		t.Fatalf("run %q: %v", expr, err)
	}
	v, _ := in.Lookup("result")
	return v
}

func runSrc(t *testing.T, src string) *Interp {
	t.Helper()
	in := New(Options{})
	prog, err := Compile(src)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	if err := in.Run(prog); err != nil {
		t.Fatalf("run: %v", err)
	}
	return in
}

func TestArithmetic(t *testing.T) {
	cases := []struct {
		expr string
		want float64
	}{
		{"1 + 2 * 3", 7},
		{"(1 + 2) * 3", 9},
		{"10 / 4", 2.5},
		{"7 % 3", 1},
		{"-3 + 5", 2},
		{"2 * 3 + 4 * 5", 26},
		{"1e3 + 0.5", 1000.5},
		{"10 - 2 - 3", 5}, // left associative
	}
	for _, c := range cases {
		got := evalExpr(t, c.expr)
		if f, ok := got.(float64); !ok || f != c.want {
			t.Errorf("%q = %v, want %v", c.expr, got, c.want)
		}
	}
}

func TestComparisonAndLogic(t *testing.T) {
	cases := []struct {
		expr string
		want bool
	}{
		{"1 < 2", true},
		{"2 <= 2", true},
		{"3 > 4", false},
		{"1 == 1", true},
		{"1 != 1", false},
		{`"a" < "b"`, true},
		{`"x" == "x"`, true},
		{"true && false", false},
		{"true || false", true},
		{"!false", true},
		{"nil == nil", true},
		{"1 == \"1\"", false}, // no cross-type equality
	}
	for _, c := range cases {
		got := evalExpr(t, c.expr)
		if b, ok := got.(bool); !ok || b != c.want {
			t.Errorf("%q = %v, want %v", c.expr, got, c.want)
		}
	}
}

func TestShortCircuit(t *testing.T) {
	// The right side would error (division by zero) if evaluated.
	in := runSrc(t, `
		x = 0;
		ok1 = false && (1/x > 0);
		ok2 = true || (1/x > 0);
	`)
	v1, _ := in.Lookup("ok1")
	v2, _ := in.Lookup("ok2")
	if v1 != false || v2 != true {
		t.Fatalf("short circuit failed: %v %v", v1, v2)
	}
}

func TestStrings(t *testing.T) {
	got := evalExpr(t, `"mass = " + 125.5`)
	if got != "mass = 125.5" {
		t.Fatalf("concat = %q", got)
	}
	if evalExpr(t, `len("hello")`) != 5.0 {
		t.Fatal("len failed")
	}
	if evalExpr(t, `format("%.2f GeV", 120.123)`) != "120.12 GeV" {
		t.Fatal("format failed")
	}
	if evalExpr(t, `upper("abc")`) != "ABC" {
		t.Fatal("upper failed")
	}
	if evalExpr(t, `"abc"[1]`) != "b" {
		t.Fatal("string index failed")
	}
}

func TestArraysAndMaps(t *testing.T) {
	in := runSrc(t, `
		a = [1, 2, 3];
		push(a, 10);
		a[0] = 99;
		total = 0;
		for (x : a) { total += x; }
		m = {"x": 1, "y": 2};
		m["z"] = 3;
		m.w = 4;
		sum = m.x + m["y"] + m.z + m.w;
		ks = keys(m);
		sorted = sort([3, 1, 2]);
	`)
	if v, _ := in.Lookup("total"); v != 114.0 {
		t.Fatalf("array sum = %v", v)
	}
	if v, _ := in.Lookup("sum"); v != 10.0 {
		t.Fatalf("map sum = %v", v)
	}
	ks, _ := in.Lookup("ks")
	if ToString(ks) != "[w, x, y, z]" {
		t.Fatalf("keys = %v", ToString(ks))
	}
	sorted, _ := in.Lookup("sorted")
	if ToString(sorted) != "[1, 2, 3]" {
		t.Fatalf("sort = %v", ToString(sorted))
	}
}

func TestControlFlow(t *testing.T) {
	in := runSrc(t, `
		// while with break/continue
		i = 0; evens = 0;
		while (true) {
			i += 1;
			if (i > 10) break;
			if (i % 2 == 1) continue;
			evens += 1;
		}
		// C-style for
		fact = 1;
		for (k = 1; k <= 5; k += 1) fact *= k;
		// ternary
		sign = -5 < 0 ? "neg" : "pos";
		// range iteration over a number
		cnt = 0;
		for (j : 4) cnt += 1;
	`)
	if v, _ := in.Lookup("evens"); v != 5.0 {
		t.Fatalf("evens = %v", v)
	}
	if v, _ := in.Lookup("fact"); v != 120.0 {
		t.Fatalf("fact = %v", v)
	}
	if v, _ := in.Lookup("sign"); v != "neg" {
		t.Fatalf("sign = %v", v)
	}
	if v, _ := in.Lookup("cnt"); v != 4.0 {
		t.Fatalf("cnt = %v", v)
	}
}

func TestFunctionsAndClosures(t *testing.T) {
	in := runSrc(t, `
		function add(a, b) { return a + b; }
		function makeCounter() {
			n = 0;
			return function() { n += 1; return n; };
		}
		c1 = makeCounter();
		c2 = makeCounter();
		c1(); c1();
		x = c1();   // 3
		y = c2();   // 1 — independent closure state
		s = add(2, 3);
		function fib(n) { if (n < 2) return n; return fib(n-1) + fib(n-2); }
		f10 = fib(10);
	`)
	if v, _ := in.Lookup("x"); v != 3.0 {
		t.Fatalf("closure count = %v", v)
	}
	if v, _ := in.Lookup("y"); v != 1.0 {
		t.Fatalf("closure isolation broken: %v", v)
	}
	if v, _ := in.Lookup("s"); v != 5.0 {
		t.Fatalf("add = %v", v)
	}
	if v, _ := in.Lookup("f10"); v != 55.0 {
		t.Fatalf("fib(10) = %v", v)
	}
}

func TestRecursionDepthLimited(t *testing.T) {
	in := New(Options{MaxCallDepth: 32})
	prog, err := Compile(`function f(n) { return f(n+1); } f(0);`)
	if err != nil {
		t.Fatal(err)
	}
	err = in.Run(prog)
	if err == nil || !strings.Contains(err.Error(), "depth") {
		t.Fatalf("unbounded recursion not stopped: %v", err)
	}
}

func TestFuelStopsInfiniteLoop(t *testing.T) {
	in := New(Options{Fuel: 10000})
	prog, err := Compile(`while (true) { x = 1; }`)
	if err != nil {
		t.Fatal(err)
	}
	err = in.Run(prog)
	if err == nil || !strings.Contains(err.Error(), "budget") {
		t.Fatalf("infinite loop not stopped: %v", err)
	}
}

func TestRuntimeErrorsCarryPositions(t *testing.T) {
	in := New(Options{})
	prog, err := Compile("x = 1;\ny = x / 0;")
	if err != nil {
		t.Fatal(err)
	}
	err = in.Run(prog)
	if err == nil || !strings.Contains(err.Error(), "2:") {
		t.Fatalf("error lacks line info: %v", err)
	}
	for _, src := range []string{
		"undefinedVariable + 1;",
		"a = [1]; a[5];",
		"a = [1]; a[\"x\"];",
		"f = 5; f();",
		"m = {\"a\": 1}; m[3];",
		"x = -\"str\";",
		`x = 1 < "a";`,
		`x = "abc"[1.5];`, // strings index like arrays: no silent truncation
		`x = "abc"[3];`,
		`x = "abc"["a"];`,
	} {
		prog, err := Compile(src)
		if err != nil {
			t.Fatalf("compile %q: %v", src, err)
		}
		if err := New(Options{}).Run(prog); err == nil {
			t.Errorf("%q ran without error", src)
		}
	}
}

func TestSyntaxErrors(t *testing.T) {
	for _, src := range []string{
		"x = ;",
		"if true {}",
		"function (",
		"a = [1, 2",
		`s = "unterminated`,
		"x = 1 & 2;",
		"function f(a, a) {}",
		"/* unclosed",
		"5 = x;",
		"x = 08abc;",
	} {
		if _, err := Compile(src); err == nil {
			t.Errorf("%q compiled", src)
		}
	}
}

func TestCompoundAssignment(t *testing.T) {
	in := runSrc(t, `
		x = 10; x += 5; x -= 3; x *= 2; x /= 4;
		a = [1]; a[0] += 10;
		m = {"k": 2}; m.k *= 5;
	`)
	if v, _ := in.Lookup("x"); v != 6.0 {
		t.Fatalf("x = %v", v)
	}
	a, _ := in.Lookup("a")
	if a.(*Array).Elems[0] != 11.0 {
		t.Fatal("array compound assign failed")
	}
	m, _ := in.Lookup("m")
	if m.(*Map).Items["k"] != 10.0 {
		t.Fatal("map compound assign failed")
	}
}

func TestPrintCapture(t *testing.T) {
	var buf bytes.Buffer
	in := New(Options{Output: &buf})
	prog, err := Compile(`println("found peak at", 120.5); print("done");`)
	if err != nil {
		t.Fatal(err)
	}
	if err := in.Run(prog); err != nil {
		t.Fatal(err)
	}
	if buf.String() != "found peak at 120.5\ndone" {
		t.Fatalf("output %q", buf.String())
	}
}

func TestErrorBuiltin(t *testing.T) {
	in := New(Options{})
	prog, _ := Compile(`error("bad event format");`)
	err := in.Run(prog)
	if err == nil || !strings.Contains(err.Error(), "bad event format") {
		t.Fatalf("error() = %v", err)
	}
}

// Property: script arithmetic matches Go arithmetic for random inputs.
func TestQuickArithmeticMatchesGo(t *testing.T) {
	f := func(a, b float64) bool {
		if math.IsNaN(a) || math.IsNaN(b) || math.IsInf(a, 0) || math.IsInf(b, 0) {
			return true
		}
		// Constrain magnitude to avoid formatting precision issues.
		a = math.Mod(a, 1e6)
		b = math.Mod(b, 1e6)
		in := New(Options{})
		in.Define("a", a)
		in.Define("b", b)
		prog, err := Compile("s = a + b; d = a - b; p = a * b; lt = a < b;")
		if err != nil {
			return false
		}
		if err := in.Run(prog); err != nil {
			return false
		}
		s, _ := in.Lookup("s")
		d, _ := in.Lookup("d")
		p, _ := in.Lookup("p")
		lt, _ := in.Lookup("lt")
		return s == a+b && d == a-b && p == a*b && lt == (a < b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestMathBuiltins(t *testing.T) {
	if v := evalExpr(t, "sqrt(16)"); v != 4.0 {
		t.Fatalf("sqrt = %v", v)
	}
	if v := evalExpr(t, "pow(2, 10)"); v != 1024.0 {
		t.Fatalf("pow = %v", v)
	}
	if v := evalExpr(t, "abs(-3.5)"); v != 3.5 {
		t.Fatalf("abs = %v", v)
	}
	if v := evalExpr(t, "min(2, 1) + max(5, 9)"); v != 10.0 {
		t.Fatalf("minmax = %v", v)
	}
	if v := evalExpr(t, "floor(2.9) + ceil(2.1)"); v != 5.0 {
		t.Fatalf("floorceil = %v", v)
	}
	if v := evalExpr(t, "num(\"42.5\")"); v != 42.5 {
		t.Fatalf("num = %v", v)
	}
}

func TestNamedFunctionDeclaration(t *testing.T) {
	in := runSrc(t, `function square(x) { return x * x; } r = square(7);`)
	if v, _ := in.Lookup("r"); v != 49.0 {
		t.Fatalf("square = %v", v)
	}
}

func TestForEachOverMapIsSortedKeys(t *testing.T) {
	in := runSrc(t, `
		m = {"b": 1, "a": 2, "c": 3};
		order = "";
		for (k : m) order += k;
	`)
	if v, _ := in.Lookup("order"); v != "abc" {
		t.Fatalf("map iteration order = %v", v)
	}
}
