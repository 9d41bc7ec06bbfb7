package lang

import (
	"strings"

	"repro/internal/algebra"
	"repro/internal/value"
)

// ParseScalar parses a standalone scalar expression over an input tuple:
// attribute names or positional #N references, constants, arithmetic,
// comparisons and and/or/not. Used for selection predicates, projection
// columns and update clauses.
func ParseScalar(src string) (algebra.Scalar, error) {
	p, err := newParser(src)
	if err != nil {
		return nil, err
	}
	s, err := p.parseScalar()
	if err != nil {
		return nil, err
	}
	if err := p.expectEOF(); err != nil {
		return nil, err
	}
	return s, nil
}

// parseScalar := or-level boolean expression.
func (p *parser) parseScalar() (algebra.Scalar, error) {
	l, err := p.parseScalarAnd()
	if err != nil {
		return nil, err
	}
	for p.acceptKeyword("or") {
		r, err := p.parseScalarAnd()
		if err != nil {
			return nil, err
		}
		l = &algebra.Or{L: l, R: r}
	}
	return l, nil
}

func (p *parser) parseScalarAnd() (algebra.Scalar, error) {
	l, err := p.parseScalarUnary()
	if err != nil {
		return nil, err
	}
	for p.acceptKeyword("and") {
		r, err := p.parseScalarUnary()
		if err != nil {
			return nil, err
		}
		l = &algebra.And{L: l, R: r}
	}
	return l, nil
}

func (p *parser) parseScalarUnary() (algebra.Scalar, error) {
	if p.acceptKeyword("not") {
		if err := p.enter(); err != nil {
			return nil, err
		}
		defer p.leave()
		x, err := p.parseScalarUnary()
		if err != nil {
			return nil, err
		}
		return &algebra.Not{X: x}, nil
	}
	return p.parseScalarCmp()
}

func (p *parser) parseScalarCmp() (algebra.Scalar, error) {
	l, err := p.parseScalarAdd()
	if err != nil {
		return nil, err
	}
	if op, ok := p.parseCmpOp(); ok {
		r, err := p.parseScalarAdd()
		if err != nil {
			return nil, err
		}
		return &algebra.Cmp{Op: op, L: l, R: r}, nil
	}
	return l, nil
}

func (p *parser) parseScalarAdd() (algebra.Scalar, error) {
	l, err := p.parseScalarMul()
	if err != nil {
		return nil, err
	}
	for {
		var op value.ArithOp
		switch {
		case p.atPunct("+"):
			op = value.OpAdd
		case p.atPunct("-"):
			op = value.OpSub
		default:
			return l, nil
		}
		p.next()
		r, err := p.parseScalarMul()
		if err != nil {
			return nil, err
		}
		l = &algebra.Arith{Op: op, L: l, R: r}
	}
}

func (p *parser) parseScalarMul() (algebra.Scalar, error) {
	l, err := p.parseScalarAtom()
	if err != nil {
		return nil, err
	}
	for {
		var op value.ArithOp
		switch {
		case p.atPunct("*"):
			op = value.OpMul
		case p.atPunct("/"):
			op = value.OpDiv
		default:
			return l, nil
		}
		p.next()
		r, err := p.parseScalarAtom()
		if err != nil {
			return nil, err
		}
		l = &algebra.Arith{Op: op, L: l, R: r}
	}
}

func (p *parser) parseScalarAtom() (algebra.Scalar, error) {
	t := p.peek()
	switch t.kind {
	case tokInt:
		p.next()
		v, err := parseIntText(t.text)
		if err != nil {
			return nil, p.errf("bad integer %q", t.text)
		}
		return &algebra.Const{V: value.Int(v)}, nil
	case tokFloat:
		p.next()
		v, err := parseFloatText(t.text)
		if err != nil {
			return nil, p.errf("bad float %q", t.text)
		}
		return &algebra.Const{V: value.Float(v)}, nil
	case tokString:
		p.next()
		return &algebra.Const{V: value.String(t.text)}, nil
	case tokIdent:
		switch {
		case strings.EqualFold(t.text, "null"):
			p.next()
			return &algebra.Const{V: value.Null()}, nil
		case strings.EqualFold(t.text, "true"):
			p.next()
			return &algebra.Const{V: value.Bool(true)}, nil
		case strings.EqualFold(t.text, "false"):
			p.next()
			return &algebra.Const{V: value.Bool(false)}, nil
		}
		p.next()
		return algebra.AttrByName(t.text), nil
	case tokPunct:
		switch t.text {
		case "#":
			p.next()
			numTok := p.next()
			if numTok.kind != tokInt {
				return nil, p.errf("expected attribute number after #")
			}
			n, err := parseIntText(numTok.text)
			if err != nil || n < 1 {
				return nil, p.errf("bad attribute number %q", numTok.text)
			}
			return algebra.AttrByIndex(int(n - 1)), nil
		case "(":
			p.next()
			if err := p.enter(); err != nil {
				return nil, err
			}
			defer p.leave()
			inner, err := p.parseScalar()
			if err != nil {
				return nil, err
			}
			if err := p.expectPunct(")"); err != nil {
				return nil, err
			}
			return inner, nil
		case "-":
			p.next()
			if err := p.enter(); err != nil {
				return nil, err
			}
			defer p.leave()
			x, err := p.parseScalarAtom()
			if err != nil {
				return nil, err
			}
			return &algebra.Arith{Op: value.OpSub, L: &algebra.Const{V: value.Int(0)}, R: x}, nil
		}
	}
	return nil, p.errf("expected scalar expression")
}
