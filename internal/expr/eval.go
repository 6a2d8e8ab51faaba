package expr

import (
	"fmt"
	"math"
	"slices"
)

// Env supplies variable values during evaluation.
type Env interface {
	Lookup(name string) (float64, bool)
}

// Vars is the simplest Env: a plain map.
type Vars map[string]float64

// Lookup implements Env.
func (v Vars) Lookup(name string) (float64, bool) {
	val, ok := v[name]
	return val, ok
}

// ChainEnv looks up a name in each environment in order. It lets job
// arguments shadow engine-provided variables.
type ChainEnv []Env

// Lookup implements Env.
func (c ChainEnv) Lookup(name string) (float64, bool) {
	for _, e := range c {
		if e == nil {
			continue
		}
		if v, ok := e.Lookup(name); ok {
			return v, true
		}
	}
	return 0, false
}

// UndefinedVarError reports evaluation of an expression whose environment is
// missing a variable.
type UndefinedVarError struct {
	Name string
}

func (e *UndefinedVarError) Error() string {
	return fmt.Sprintf("expr: undefined variable %q", e.Name)
}

// Expr is a compiled expression. Compile once, evaluate many times; an Expr
// is immutable and safe for concurrent use.
type Expr struct {
	src  string
	root node
	// vars is the sorted, duplicate-free list of free variables, fixed at
	// compile time so that validating an expression walks no tree.
	vars []string
}

// Compile parses src into an evaluable expression.
func Compile(src string) (*Expr, error) {
	root, vars, err := parse(src)
	if err != nil {
		return nil, err
	}
	slices.Sort(vars)
	return &Expr{src: src, root: root, vars: slices.Compact(vars)}, nil
}

// Constant returns an expression that always evaluates to v.
func Constant(v float64) *Expr {
	return &Expr{src: fmt.Sprintf("%g", v), root: numNode(v)}
}

// Source returns the original expression text.
func (e *Expr) Source() string { return e.src }

// Eval evaluates the expression. It returns an *UndefinedVarError if env is
// missing a variable the expression references.
func (e *Expr) Eval(env Env) (val float64, err error) {
	defer func() {
		if r := recover(); r != nil {
			if uv, ok := r.(*UndefinedVarError); ok {
				err = uv
				return
			}
			panic(r)
		}
	}()
	return e.root.eval(env), nil
}

// Validate checks that allowed accepts every free variable; it returns the
// error of the first, in sorted order, that it rejects.
func (e *Expr) Validate(allowed func(name string) bool) error {
	for _, v := range e.vars {
		if !allowed(v) {
			return &UndefinedVarError{Name: v}
		}
	}
	return nil
}

// IsConstant reports whether the expression references no variables.
func (e *Expr) IsConstant() bool { return len(e.vars) == 0 }

func (e *Expr) String() string { return e.src }

// builtin is the implementation of a callable function.
type builtin func(args []float64) float64

type builtinSpec struct {
	impl     builtin
	minArity int
	maxArity int // -1 for variadic
}

func (s builtinSpec) checkArity(n int) string {
	if n < s.minArity {
		return fmt.Sprintf("expected at least %d argument(s), got %d", s.minArity, n)
	}
	if s.maxArity >= 0 && n > s.maxArity {
		return fmt.Sprintf("expected at most %d argument(s), got %d", s.maxArity, n)
	}
	return ""
}

var builtins = map[string]builtinSpec{
	"abs":   {func(a []float64) float64 { return math.Abs(a[0]) }, 1, 1},
	"ceil":  {func(a []float64) float64 { return math.Ceil(a[0]) }, 1, 1},
	"floor": {func(a []float64) float64 { return math.Floor(a[0]) }, 1, 1},
	"round": {func(a []float64) float64 { return math.Round(a[0]) }, 1, 1},
	"sqrt":  {func(a []float64) float64 { return math.Sqrt(a[0]) }, 1, 1},
	"cbrt":  {func(a []float64) float64 { return math.Cbrt(a[0]) }, 1, 1},
	"exp":   {func(a []float64) float64 { return math.Exp(a[0]) }, 1, 1},
	"log":   {func(a []float64) float64 { return math.Log(a[0]) }, 1, 1},
	"log2":  {func(a []float64) float64 { return math.Log2(a[0]) }, 1, 1},
	"log10": {func(a []float64) float64 { return math.Log10(a[0]) }, 1, 1},
	"pow":   {func(a []float64) float64 { return math.Pow(a[0], a[1]) }, 2, 2},
	"min":   {reduce(math.Min), 1, -1},
	"max":   {reduce(math.Max), 1, -1},
	"clamp": {func(a []float64) float64 { return math.Min(math.Max(a[0], a[1]), a[2]) }, 3, 3},
	// if(cond, then, else) — alternative to the ?: operator, convenient in
	// JSON files where ':' reads poorly.
	"if": {func(a []float64) float64 {
		if a[0] != 0 {
			return a[1]
		}
		return a[2]
	}, 3, 3},
	// amdahl(serialFraction, n): classic speedup-limited scaling factor;
	// total work divided by amdahl(...) yields per-node time.
	"amdahl": {func(a []float64) float64 {
		f, n := a[0], a[1]
		if n <= 0 {
			return 1
		}
		return 1 / (f + (1-f)/n)
	}, 2, 2},
}

func reduce(f func(a, b float64) float64) builtin {
	return func(args []float64) float64 {
		acc := args[0]
		for _, v := range args[1:] {
			acc = f(acc, v)
		}
		return acc
	}
}

// fmod and pow are referenced from the parser's binary evaluator.
func fmod(a, b float64) float64 { return math.Mod(a, b) }
func pow(a, b float64) float64  { return math.Pow(a, b) }
