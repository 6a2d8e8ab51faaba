package expr

import "fmt"

// node is a compiled expression tree node.
type node interface {
	eval(env Env) float64
}

type numNode float64

func (n numNode) eval(Env) float64 { return float64(n) }

type varNode string

func (n varNode) eval(env Env) float64 {
	v, ok := env.Lookup(string(n))
	if !ok {
		panic(&UndefinedVarError{Name: string(n)})
	}
	return v
}

type unaryNode struct {
	op    tokenKind
	child node
}

func (n *unaryNode) eval(env Env) float64 {
	v := n.child.eval(env)
	switch n.op {
	case tokMinus:
		return -v
	case tokNot:
		if v == 0 {
			return 1
		}
		return 0
	}
	panic(fmt.Sprintf("expr: bad unary op %d", n.op))
}

type binaryNode struct {
	op          tokenKind
	left, right node
}

func boolToFloat(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

func (n *binaryNode) eval(env Env) float64 {
	// Short-circuit logical operators.
	switch n.op {
	case tokAnd:
		if n.left.eval(env) == 0 {
			return 0
		}
		return boolToFloat(n.right.eval(env) != 0)
	case tokOr:
		if n.left.eval(env) != 0 {
			return 1
		}
		return boolToFloat(n.right.eval(env) != 0)
	}
	l, r := n.left.eval(env), n.right.eval(env)
	switch n.op {
	case tokPlus:
		return l + r
	case tokMinus:
		return l - r
	case tokStar:
		return l * r
	case tokSlash:
		return l / r
	case tokPercent:
		return fmod(l, r)
	case tokCaret:
		return pow(l, r)
	case tokLT:
		return boolToFloat(l < r)
	case tokLE:
		return boolToFloat(l <= r)
	case tokGT:
		return boolToFloat(l > r)
	case tokGE:
		return boolToFloat(l >= r)
	case tokEQ:
		return boolToFloat(l == r)
	case tokNE:
		return boolToFloat(l != r)
	}
	panic(fmt.Sprintf("expr: bad binary op %d", n.op))
}

type condNode struct {
	cond, then, els node
}

func (n *condNode) eval(env Env) float64 {
	if n.cond.eval(env) != 0 {
		return n.then.eval(env)
	}
	return n.els.eval(env)
}

type callNode struct {
	fn   builtin
	args []node
}

func (n *callNode) eval(env Env) float64 {
	vals := make([]float64, len(n.args))
	for i, a := range n.args {
		vals[i] = a.eval(env)
	}
	return n.fn(vals)
}

// maxParseDepth bounds parser recursion so pathological inputs (deeply
// nested parentheses, long unary chains) fail with a SyntaxError instead
// of exhausting the goroutine stack.
const maxParseDepth = 200

type parser struct {
	lex   lexer
	tok   token
	src   string
	depth int
	// vars collects every variable reference in source order, duplicates
	// included.
	vars []string
}

// enter guards each recursive production against unbounded nesting; every
// successful enter is paired with a deferred leave.
func (p *parser) enter() error {
	p.depth++
	if p.depth > maxParseDepth {
		return p.errorf(p.tok.pos, "expression nested deeper than %d levels", maxParseDepth)
	}
	return nil
}

func (p *parser) leave() { p.depth-- }

func (p *parser) errorf(pos int, format string, args ...any) error {
	return &SyntaxError{Expr: p.src, Pos: pos, Msg: fmt.Sprintf(format, args...)}
}

func (p *parser) advance() error {
	tok, err := p.lex.next()
	if err != nil {
		return err
	}
	p.tok = tok
	return nil
}

func (p *parser) expect(kind tokenKind, what string) error {
	if p.tok.kind != kind {
		return p.errorf(p.tok.pos, "expected %s, found %q", what, p.tok.String())
	}
	return p.advance()
}

// parse compiles src into a tree and also returns the variable names it
// references, in source order and with repeats.
func parse(src string) (node, []string, error) {
	p := &parser{lex: lexer{src: src}, src: src}
	if err := p.advance(); err != nil {
		return nil, nil, err
	}
	n, err := p.parseTernary()
	if err != nil {
		return nil, nil, err
	}
	if p.tok.kind != tokEOF {
		return nil, nil, p.errorf(p.tok.pos, "unexpected %q after expression", p.tok.String())
	}
	return n, p.vars, nil
}

func (p *parser) parseTernary() (node, error) {
	if err := p.enter(); err != nil {
		return nil, err
	}
	defer p.leave()
	cond, err := p.parseOr()
	if err != nil {
		return nil, err
	}
	if p.tok.kind != tokQuestion {
		return cond, nil
	}
	if err := p.advance(); err != nil {
		return nil, err
	}
	then, err := p.parseTernary()
	if err != nil {
		return nil, err
	}
	if err := p.expect(tokColon, "':'"); err != nil {
		return nil, err
	}
	els, err := p.parseTernary()
	if err != nil {
		return nil, err
	}
	return &condNode{cond: cond, then: then, els: els}, nil
}

func (p *parser) parseOr() (node, error) {
	return p.parseBinaryLevel(
		p.parseAnd,
		tokOr,
	)
}

func (p *parser) parseAnd() (node, error) {
	return p.parseBinaryLevel(
		p.parseCompare,
		tokAnd,
	)
}

func (p *parser) parseBinaryLevel(sub func() (node, error), ops ...tokenKind) (node, error) {
	left, err := sub()
	if err != nil {
		return nil, err
	}
	for {
		matched := false
		for _, op := range ops {
			if p.tok.kind == op {
				matched = true
				break
			}
		}
		if !matched {
			return left, nil
		}
		op := p.tok.kind
		if err := p.advance(); err != nil {
			return nil, err
		}
		right, err := sub()
		if err != nil {
			return nil, err
		}
		left = &binaryNode{op: op, left: left, right: right}
	}
}

func (p *parser) parseCompare() (node, error) {
	left, err := p.parseSum()
	if err != nil {
		return nil, err
	}
	switch p.tok.kind {
	case tokLT, tokLE, tokGT, tokGE, tokEQ, tokNE:
		op := p.tok.kind
		if err := p.advance(); err != nil {
			return nil, err
		}
		right, err := p.parseSum()
		if err != nil {
			return nil, err
		}
		return &binaryNode{op: op, left: left, right: right}, nil
	}
	return left, nil
}

func (p *parser) parseSum() (node, error) {
	return p.parseBinaryLevel(p.parseProduct, tokPlus, tokMinus)
}

func (p *parser) parseProduct() (node, error) {
	return p.parseBinaryLevel(p.parseUnary, tokStar, tokSlash, tokPercent)
}

func (p *parser) parseUnary() (node, error) {
	if err := p.enter(); err != nil {
		return nil, err
	}
	defer p.leave()
	switch p.tok.kind {
	case tokMinus, tokNot:
		op := p.tok.kind
		if err := p.advance(); err != nil {
			return nil, err
		}
		child, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		// Constant-fold negated literals so "-5" is a single node.
		if op == tokMinus {
			if num, ok := child.(numNode); ok {
				return numNode(-float64(num)), nil
			}
		}
		return &unaryNode{op: op, child: child}, nil
	}
	return p.parsePower()
}

func (p *parser) parsePower() (node, error) {
	base, err := p.parseAtom()
	if err != nil {
		return nil, err
	}
	if p.tok.kind != tokCaret {
		return base, nil
	}
	if err := p.advance(); err != nil {
		return nil, err
	}
	// Right associative: 2^3^2 == 2^(3^2).
	exp, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	return &binaryNode{op: tokCaret, left: base, right: exp}, nil
}

func (p *parser) parseAtom() (node, error) {
	switch p.tok.kind {
	case tokNumber:
		n := numNode(p.tok.num)
		if err := p.advance(); err != nil {
			return nil, err
		}
		return n, nil
	case tokLParen:
		if err := p.advance(); err != nil {
			return nil, err
		}
		inner, err := p.parseTernary()
		if err != nil {
			return nil, err
		}
		if err := p.expect(tokRParen, "')'"); err != nil {
			return nil, err
		}
		return inner, nil
	case tokIdent:
		name := p.tok.text
		pos := p.tok.pos
		if err := p.advance(); err != nil {
			return nil, err
		}
		if p.tok.kind != tokLParen {
			if p.vars == nil {
				p.vars = make([]string, 0, 4) // one allocation for most models
			}
			p.vars = append(p.vars, name)
			return varNode(name), nil
		}
		// Function call.
		if err := p.advance(); err != nil {
			return nil, err
		}
		var args []node
		if p.tok.kind != tokRParen {
			for {
				arg, err := p.parseTernary()
				if err != nil {
					return nil, err
				}
				args = append(args, arg)
				if p.tok.kind != tokComma {
					break
				}
				if err := p.advance(); err != nil {
					return nil, err
				}
			}
		}
		if err := p.expect(tokRParen, "')'"); err != nil {
			return nil, err
		}
		fn, ok := builtins[name]
		if !ok {
			return nil, p.errorf(pos, "unknown function %q", name)
		}
		if err := fn.checkArity(len(args)); err != "" {
			return nil, p.errorf(pos, "%s: %s", name, err)
		}
		return &callNode{fn: fn.impl, args: args}, nil
	}
	return nil, p.errorf(p.tok.pos, "expected value, found %q", p.tok.String())
}
