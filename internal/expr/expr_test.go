package expr

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func evalOK(t *testing.T, src string, env Env) float64 {
	t.Helper()
	e, err := Compile(src)
	if err != nil {
		t.Fatalf("Compile(%q): %v", src, err)
	}
	v, err := e.Eval(env)
	if err != nil {
		t.Fatalf("Eval(%q): %v", src, err)
	}
	return v
}

func TestArithmetic(t *testing.T) {
	cases := []struct {
		src  string
		want float64
	}{
		{"1+2", 3},
		{"2*3+4", 10},
		{"2+3*4", 14},
		{"(2+3)*4", 20},
		{"10-4-3", 3},   // left associative
		{"100/10/2", 5}, // left associative
		{"2^10", 1024},  //
		{"2^3^2", 512},  // right associative
		{"-2^2", -4},    // unary binds looser than ^
		{"7 % 3", 1},
		{"-5 + 10", 5},
		{"--5", 5},
		{"3.5 * 2", 7},
		{"1e3 + 1", 1001},
		{"2.5e-1", 0.25},
		{"1k", 1000},
		{"4M", 4e6},
		{"2G", 2e9},
		{"1T", 1e12},
		{"3P", 3e15},
		{"1 < 2", 1},
		{"2 <= 2", 1},
		{"3 > 4", 0},
		{"3 >= 3", 1},
		{"5 == 5", 1},
		{"5 != 5", 0},
		{"1 && 0", 0},
		{"1 || 0", 1},
		{"!1", 0},
		{"!0", 1},
		{"1 < 2 && 3 < 4", 1},
		{"1 > 2 || 3 < 4", 1},
		{"1 ? 10 : 20", 10},
		{"0 ? 10 : 20", 20},
		{"1 ? 2 : 0 ? 3 : 4", 2}, // right associative ternary
		{"min(3, 1, 2)", 1},
		{"max(3, 1, 2)", 3},
		{"abs(-4)", 4},
		{"ceil(1.2)", 2},
		{"floor(1.8)", 1},
		{"round(2.5)", 3},
		{"sqrt(16)", 4},
		{"log2(8)", 3},
		{"log10(1000)", 3},
		{"pow(3, 4)", 81},
		{"clamp(15, 0, 10)", 10},
		{"clamp(-5, 0, 10)", 0},
		{"clamp(5, 0, 10)", 5},
		{"if(2 > 1, 7, 9)", 7},
		{"exp(0)", 1},
		{"cbrt(27)", 3},
	}
	for _, tc := range cases {
		if got := evalOK(t, tc.src, Vars{}); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("%q = %v, want %v", tc.src, got, tc.want)
		}
	}
}

func TestVariables(t *testing.T) {
	env := Vars{"num_nodes": 8, "flops": 1e12}
	if got := evalOK(t, "flops / num_nodes", env); got != 1.25e11 {
		t.Errorf("got %v", got)
	}
	if got := evalOK(t, "flops / num_nodes * (0.7 + 0.3/num_nodes)", env); math.Abs(got-1.25e11*0.7375) > 1 {
		t.Errorf("got %v", got)
	}
}

func TestAmdahl(t *testing.T) {
	// amdahl(0, n) == n (perfect scaling), amdahl(1, n) == 1 (serial).
	if got := evalOK(t, "amdahl(0, 16)", Vars{}); math.Abs(got-16) > 1e-9 {
		t.Errorf("amdahl(0,16) = %v", got)
	}
	if got := evalOK(t, "amdahl(1, 16)", Vars{}); math.Abs(got-1) > 1e-9 {
		t.Errorf("amdahl(1,16) = %v", got)
	}
	// 10% serial fraction on 8 nodes.
	want := 1 / (0.1 + 0.9/8)
	if got := evalOK(t, "amdahl(0.1, 8)", Vars{}); math.Abs(got-want) > 1e-9 {
		t.Errorf("amdahl(0.1,8) = %v, want %v", got, want)
	}
}

func TestUndefinedVariable(t *testing.T) {
	e := MustCompile("a + b")
	_, err := e.Eval(Vars{"a": 1})
	var uv *UndefinedVarError
	if err == nil {
		t.Fatal("expected error for undefined variable")
	}
	uv, ok := err.(*UndefinedVarError)
	if !ok {
		t.Fatalf("error type %T, want *UndefinedVarError", err)
	}
	if uv.Name != "b" {
		t.Errorf("missing var %q, want b", uv.Name)
	}
}

func TestShortCircuitAvoidsUndefined(t *testing.T) {
	// && and || must short-circuit so guarded variables are legal.
	if got := evalOK(t, "0 && undefined_var", Vars{}); got != 0 {
		t.Errorf("got %v", got)
	}
	if got := evalOK(t, "1 || undefined_var", Vars{}); got != 1 {
		t.Errorf("got %v", got)
	}
}

func TestTernaryLazy(t *testing.T) {
	if got := evalOK(t, "1 ? 5 : undefined_var", Vars{}); got != 5 {
		t.Errorf("got %v", got)
	}
}

func TestSyntaxErrors(t *testing.T) {
	bad := []string{
		"",
		"1 +",
		"(1",
		"1)",
		"* 2",
		"foo(",
		"nosuchfn(1)",
		"min()",
		"pow(1)",
		"pow(1,2,3)",
		"clamp(1,2)",
		"1 @ 2",
		"1..2",
		"1 ? 2",
		"a b",
	}
	for _, src := range bad {
		if _, err := Compile(src); err == nil {
			t.Errorf("Compile(%q) succeeded, want error", src)
		}
	}
}

func TestSyntaxErrorPosition(t *testing.T) {
	_, err := Compile("1 + @")
	se, ok := err.(*SyntaxError)
	if !ok {
		t.Fatalf("error type %T, want *SyntaxError", err)
	}
	if se.Pos != 4 {
		t.Errorf("error position %d, want 4", se.Pos)
	}
	if !strings.Contains(se.Error(), "offset 4") {
		t.Errorf("error message %q lacks position", se.Error())
	}
}

func TestVarsListing(t *testing.T) {
	e := MustCompile("flops/num_nodes + min(a, b) + a")
	got := e.Vars()
	want := []string{"a", "b", "flops", "num_nodes"}
	if len(got) != len(want) {
		t.Fatalf("Vars() = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Vars() = %v, want %v", got, want)
		}
	}
}

func TestValidate(t *testing.T) {
	e := MustCompile("num_nodes * x")
	err := e.Validate(func(name string) bool { return name == "num_nodes" })
	if err == nil {
		t.Fatal("Validate passed with missing variable")
	}
	if err.(*UndefinedVarError).Name != "x" {
		t.Errorf("missing var %v", err)
	}
	if err := e.Validate(func(string) bool { return true }); err != nil {
		t.Errorf("Validate failed: %v", err)
	}
	// Several missing: the first in sorted order is named.
	err = MustCompile("zz + num_nodes * yy + zz").Validate(func(name string) bool { return name == "num_nodes" })
	if uv, ok := err.(*UndefinedVarError); !ok || uv.Name != "yy" {
		t.Errorf("Validate = %v, want yy undefined", err)
	}
}

// TestVarsIsACopy: Vars hands out a copy, so a caller that edits it cannot
// change what a later Validate or IsConstant sees.
func TestVarsIsACopy(t *testing.T) {
	e := MustCompile("b * a")
	onlyA := func(name string) bool { return name == "a" }
	vs := e.Vars()
	vs[0], vs[1] = "a", "a"
	if err := e.Validate(onlyA); err == nil || err.(*UndefinedVarError).Name != "b" {
		t.Errorf("Validate after editing Vars() = %v, want b undefined", err)
	}
	_ = append(vs[:0], "a")
	if got := e.Vars(); len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Errorf("Vars() = %q after editing an earlier copy", got)
	}
	if c := MustCompile("7"); len(c.Vars()) != 0 || !c.IsConstant() {
		t.Errorf("constant: Vars() = %q, IsConstant %v", c.Vars(), c.IsConstant())
	}
}

func TestIsConstant(t *testing.T) {
	if !MustCompile("1 + 2*3").IsConstant() {
		t.Error("constant expression reported non-constant")
	}
	if MustCompile("1 + n").IsConstant() {
		t.Error("variable expression reported constant")
	}
}

func TestConstant(t *testing.T) {
	e := Constant(42.5)
	v, err := e.Eval(nil)
	if err != nil || v != 42.5 {
		t.Errorf("Constant = %v, %v", v, err)
	}
}

func TestChainEnv(t *testing.T) {
	inner := Vars{"a": 1, "b": 2}
	outer := Vars{"b": 20, "c": 30}
	env := ChainEnv{outer, inner}
	if got := evalOK(t, "a + b + c", env); got != 1+20+30 {
		t.Errorf("chain lookup got %v", got)
	}
}

func TestSuffixNotConfusedWithIdent(t *testing.T) {
	// "5M" is 5e6, but "5Max" must be a syntax error (number then ident).
	if got := evalOK(t, "5M", Vars{}); got != 5e6 {
		t.Errorf("5M = %v", got)
	}
	if _, err := Compile("5Max"); err == nil {
		t.Error("5Max compiled, want error")
	}
}

func TestDivisionByZeroIsInf(t *testing.T) {
	// The fluid model tolerates Inf costs (they mean "never finishes"), so
	// the language follows IEEE semantics instead of erroring.
	if got := evalOK(t, "1/0", Vars{}); !math.IsInf(got, 1) {
		t.Errorf("1/0 = %v, want +Inf", got)
	}
}

func TestWhitespaceInsensitive(t *testing.T) {
	a := evalOK(t, " 1+2 * 3 ", Vars{})
	b := evalOK(t, "1+2*3", Vars{})
	if a != b {
		t.Errorf("whitespace changed result: %v vs %v", a, b)
	}
}

// Property: compiled expressions are pure — evaluating twice with the same
// env yields identical results.
func TestEvalPure(t *testing.T) {
	e := MustCompile("amdahl(f, n) * x + min(x, n) - x^2 % 7")
	f := func(fv, nv, xv float64) bool {
		if math.IsNaN(fv) || math.IsNaN(nv) || math.IsNaN(xv) {
			return true
		}
		env := Vars{"f": fv, "n": nv, "x": xv}
		a, err1 := e.Eval(env)
		b, err2 := e.Eval(env)
		if (err1 == nil) != (err2 == nil) {
			return false
		}
		return a == b || (math.IsNaN(a) && math.IsNaN(b))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: x + y evaluates to the float sum for any finite inputs.
func TestAdditionMatchesGo(t *testing.T) {
	e := MustCompile("x + y")
	f := func(x, y float64) bool {
		got, err := e.Eval(Vars{"x": x, "y": y})
		if err != nil {
			return false
		}
		want := x + y
		return got == want || (math.IsNaN(got) && math.IsNaN(want))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// tokenize lexes src to its end, for tests that inspect the token stream.
func tokenize(src string) ([]token, error) {
	l := &lexer{src: src}
	var out []token
	for {
		tok, err := l.next()
		if err != nil {
			return nil, err
		}
		out = append(out, tok)
		if tok.kind == tokEOF {
			return out, nil
		}
	}
}

func TestTokenizeBasics(t *testing.T) {
	toks, err := tokenize("a + 1.5 * (b)")
	if err != nil {
		t.Fatal(err)
	}
	kinds := []tokenKind{tokIdent, tokPlus, tokNumber, tokStar, tokLParen, tokIdent, tokRParen, tokEOF}
	if len(toks) != len(kinds) {
		t.Fatalf("got %d tokens, want %d", len(toks), len(kinds))
	}
	for i, k := range kinds {
		if toks[i].kind != k {
			t.Errorf("token %d kind %d, want %d", i, toks[i].kind, k)
		}
	}
}

func BenchmarkEvalPerfModel(b *testing.B) {
	e := MustCompile("flops / num_nodes * (0.7 + 0.3/num_nodes)")
	env := Vars{"flops": 1e12, "num_nodes": 16}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := e.Eval(env); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCompile(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := Compile("flops / num_nodes * (0.7 + 0.3/num_nodes) + min(a, b, 3)"); err != nil {
			b.Fatal(err)
		}
	}
}
