// Package expr implements the arithmetic expression language used by
// performance models in workload descriptions.
//
// Task costs in a workload file are not plain numbers: they are expressions
// over simulation-time variables such as num_nodes (the current allocation
// size of a malleable job), iteration, or user-defined job arguments. A
// typical compute model looks like
//
//	flops / num_nodes * (0.7 + 0.3/num_nodes)
//
// expressing a payload with a serial fraction. Expressions are compiled once
// when the workload is loaded and evaluated many times during simulation.
//
// Grammar (precedence climbing, loosest to tightest):
//
//	expr   := or
//	or     := and   ( '||' and )*
//	and    := cmp   ( '&&' cmp )*
//	cmp    := sum   ( ('<'|'<='|'>'|'>='|'=='|'!=') sum )?
//	sum    := prod  ( ('+'|'-') prod )*
//	prod   := unary ( ('*'|'/'|'%') unary )*
//	unary  := ('-'|'!') unary | power
//	power  := atom  ( '^' unary )?          // right associative
//	atom   := number | ident | ident '(' args ')' | '(' expr ')'
//
// Booleans are represented as 0 and 1, as in C.
package expr

import (
	"fmt"
	"strconv"
	"unicode"
)

type tokenKind int

const (
	tokEOF tokenKind = iota
	tokNumber
	tokIdent
	tokPlus
	tokMinus
	tokStar
	tokSlash
	tokPercent
	tokCaret
	tokLParen
	tokRParen
	tokComma
	tokLT
	tokLE
	tokGT
	tokGE
	tokEQ
	tokNE
	tokAnd
	tokOr
	tokNot
	tokQuestion
	tokColon
)

type token struct {
	kind tokenKind
	pos  int
	num  float64
	text string
}

func (t token) String() string {
	switch t.kind {
	case tokEOF:
		return "end of expression"
	case tokNumber:
		return strconv.FormatFloat(t.num, 'g', -1, 64)
	case tokIdent:
		return t.text
	default:
		return t.text
	}
}

// SyntaxError describes a lexing or parsing failure with its position.
type SyntaxError struct {
	Expr string // the full source expression
	Pos  int    // byte offset of the failure
	Msg  string
}

func (e *SyntaxError) Error() string {
	return fmt.Sprintf("expr: %s at offset %d in %q", e.Msg, e.Pos, e.Expr)
}

type lexer struct {
	src string
	pos int
}

func (l *lexer) errorf(pos int, format string, args ...any) error {
	return &SyntaxError{Expr: l.src, Pos: pos, Msg: fmt.Sprintf(format, args...)}
}

func (l *lexer) next() (token, error) {
	for l.pos < len(l.src) && unicode.IsSpace(rune(l.src[l.pos])) {
		l.pos++
	}
	if l.pos >= len(l.src) {
		return token{kind: tokEOF, pos: l.pos}, nil
	}
	start := l.pos
	c := l.src[l.pos]
	switch {
	case c >= '0' && c <= '9' || c == '.':
		return l.lexNumber()
	case c == '_' || unicode.IsLetter(rune(c)):
		for l.pos < len(l.src) {
			r := rune(l.src[l.pos])
			if r == '_' || unicode.IsLetter(r) || unicode.IsDigit(r) {
				l.pos++
			} else {
				break
			}
		}
		return token{kind: tokIdent, pos: start, text: l.src[start:l.pos]}, nil
	}
	two := ""
	if l.pos+1 < len(l.src) {
		two = l.src[l.pos : l.pos+2]
	}
	switch two {
	case "<=":
		l.pos += 2
		return token{kind: tokLE, pos: start, text: two}, nil
	case ">=":
		l.pos += 2
		return token{kind: tokGE, pos: start, text: two}, nil
	case "==":
		l.pos += 2
		return token{kind: tokEQ, pos: start, text: two}, nil
	case "!=":
		l.pos += 2
		return token{kind: tokNE, pos: start, text: two}, nil
	case "&&":
		l.pos += 2
		return token{kind: tokAnd, pos: start, text: two}, nil
	case "||":
		l.pos += 2
		return token{kind: tokOr, pos: start, text: two}, nil
	}
	l.pos++
	one := l.src[start:l.pos] // a slice of the source: no allocation
	switch c {
	case '+':
		return token{kind: tokPlus, pos: start, text: one}, nil
	case '-':
		return token{kind: tokMinus, pos: start, text: one}, nil
	case '*':
		return token{kind: tokStar, pos: start, text: one}, nil
	case '/':
		return token{kind: tokSlash, pos: start, text: one}, nil
	case '%':
		return token{kind: tokPercent, pos: start, text: one}, nil
	case '^':
		return token{kind: tokCaret, pos: start, text: one}, nil
	case '(':
		return token{kind: tokLParen, pos: start, text: one}, nil
	case ')':
		return token{kind: tokRParen, pos: start, text: one}, nil
	case ',':
		return token{kind: tokComma, pos: start, text: one}, nil
	case '<':
		return token{kind: tokLT, pos: start, text: one}, nil
	case '>':
		return token{kind: tokGT, pos: start, text: one}, nil
	case '!':
		return token{kind: tokNot, pos: start, text: one}, nil
	case '?':
		return token{kind: tokQuestion, pos: start, text: one}, nil
	case ':':
		return token{kind: tokColon, pos: start, text: one}, nil
	}
	return token{}, l.errorf(start, "unexpected character %q", c)
}

func (l *lexer) lexNumber() (token, error) {
	start := l.pos
	seenDot, seenExp := false, false
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		switch {
		case c >= '0' && c <= '9':
			l.pos++
		case c == '.' && !seenDot && !seenExp:
			seenDot = true
			l.pos++
		case (c == 'e' || c == 'E') && !seenExp && l.pos > start:
			seenExp = true
			l.pos++
			if l.pos < len(l.src) && (l.src[l.pos] == '+' || l.src[l.pos] == '-') {
				l.pos++
			}
		default:
			goto done
		}
	}
done:
	text := l.src[start:l.pos]
	// Allow engineering suffixes common in workload files: k, M, G, T, P
	// (decimal) for flops and byte counts.
	mult := 1.0
	if l.pos < len(l.src) {
		if m, ok := suffixMultiplier(l.src[l.pos]); ok {
			// Only treat it as a suffix when not followed by more letters
			// (so "5m" parses but "5max" is a syntax error downstream).
			if l.pos+1 >= len(l.src) || !isIdentChar(l.src[l.pos+1]) {
				mult = m
				l.pos++
			}
		}
	}
	v, err := strconv.ParseFloat(text, 64)
	if err != nil {
		return token{}, l.errorf(start, "malformed number %q", text)
	}
	return token{kind: tokNumber, pos: start, num: v * mult}, nil
}

func suffixMultiplier(c byte) (float64, bool) {
	switch c {
	case 'k', 'K':
		return 1e3, true
	case 'M':
		return 1e6, true
	case 'G':
		return 1e9, true
	case 'T':
		return 1e12, true
	case 'P':
		return 1e15, true
	}
	return 0, false
}

func isIdentChar(c byte) bool {
	return c == '_' || unicode.IsLetter(rune(c)) || unicode.IsDigit(rune(c))
}
