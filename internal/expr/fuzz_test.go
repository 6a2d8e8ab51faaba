package expr

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"testing"
)

// refVars lists an expression's free variables the way Vars did before
// Compile kept the list: a walk of the whole tree into a set, then a sort.
func refVars(e *Expr) []string {
	set := map[string]bool{}
	refWalk(e.root, set)
	out := make([]string, 0, len(set))
	for name := range set {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// refWalk adds the free variables of the subtree at n to dst.
func refWalk(n node, dst map[string]bool) {
	switch n := n.(type) {
	case numNode:
	case varNode:
		dst[string(n)] = true
	case *unaryNode:
		refWalk(n.child, dst)
	case *binaryNode:
		refWalk(n.left, dst)
		refWalk(n.right, dst)
	case *condNode:
		refWalk(n.cond, dst)
		refWalk(n.then, dst)
		refWalk(n.els, dst)
	case *callNode:
		for _, a := range n.args {
			refWalk(a, dst)
		}
	default:
		panic(fmt.Sprintf("refWalk: unknown node %T", n))
	}
}

// FuzzParse feeds arbitrary strings to the compiler. Compile must never
// panic — malformed input has to surface as an error — and any expression
// that does compile must round-trip: recompiling its Source() yields an
// expression that evaluates to the same value (NaN-aware) under a fixed
// environment. The free-variable list Compile records must be the one a
// walk of the tree finds (refVars), and IsConstant must agree with it.
func FuzzParse(f *testing.F) {
	for _, seed := range []string{
		"1 + 2 * 3",
		"flops / num_nodes",
		"amdahl(0.05, num_nodes) * base",
		"x > 3 ? y : -y",
		"min(a, b, c) % 2 ^ -3",
		"clamp(n, 1, 64) + if(n > 8, 1, 0)",
		"!((x))",
		"((((((((((1))))))))))",
		"100G",
		"-",
		"1 ? 2",
		"unknownfn(1)",
		"\x00\xff",
		"b + a * b - a + c ? a : if(z, y, x)",
		"min(-x, -x, max(y, -(-y)))",
	} {
		f.Add(seed)
	}
	env := Vars{
		"x": 3.5, "y": -2, "a": 1, "b": 2, "c": 3, "n": 17,
		"base": 100, "flops": 1e12, "num_nodes": 16,
	}
	f.Fuzz(func(t *testing.T, src string) {
		e, err := Compile(src) // must not panic, however hostile src is
		if err != nil {
			return
		}
		want := refVars(e)
		if got := e.Vars(); !slices.Equal(got, want) {
			t.Fatalf("%q: Vars() = %q, tree walk finds %q", src, got, want)
		}
		if e.IsConstant() != (len(want) == 0) {
			t.Fatalf("%q: IsConstant() = %v with free variables %q", src, e.IsConstant(), want)
		}
		v1, err1 := e.Eval(env)
		e2, err := Compile(e.Source())
		if err != nil {
			t.Fatalf("round-trip: Source() %q of valid input %q does not recompile: %v",
				e.Source(), src, err)
		}
		v2, err2 := e2.Eval(env)
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("round-trip: eval errors diverge for %q: %v vs %v", src, err1, err2)
		}
		if err1 == nil && v1 != v2 && !(math.IsNaN(v1) && math.IsNaN(v2)) {
			t.Fatalf("round-trip: %q evaluates to %v, recompiled to %v", src, v1, v2)
		}
	})
}

// TestParseDepthLimit pins the recursion guard: pathologically nested input
// is rejected with a SyntaxError rather than a stack overflow.
func TestParseDepthLimit(t *testing.T) {
	deep := ""
	for i := 0; i < 10000; i++ {
		deep += "("
	}
	deep += "1"
	for i := 0; i < 10000; i++ {
		deep += ")"
	}
	if _, err := Compile(deep); err == nil {
		t.Fatal("deeply nested parens compiled")
	}
	if _, err := Compile(string(make([]byte, 0, 1)) + repeat("-", 10000) + "x"); err == nil {
		t.Fatal("long unary chain compiled")
	}
	// A reasonable depth still parses.
	ok := repeat("(", 50) + "1" + repeat(")", 50)
	if _, err := Compile(ok); err != nil {
		t.Fatalf("50-deep parens rejected: %v", err)
	}
}

func repeat(s string, n int) string {
	out := ""
	for i := 0; i < n; i++ {
		out += s
	}
	return out
}
