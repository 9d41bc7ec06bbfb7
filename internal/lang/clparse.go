package lang

import (
	"errors"
	"strings"

	"repro/internal/algebra"
	"repro/internal/calculus"
	"repro/internal/value"
)

// ParseConstraint parses a CL well-formed formula from its textual syntax:
//
//	forall x (x in beer implies x.alcohol >= 0)
//	forall x (x in beer implies exists y (y in brewery and x.brewery = y.name))
//	SUM(accounts, balance) <= 1000000
//	forall x (x in emp implies forall y (y in old(emp) implies
//	          (x.id <> y.id or x.salary >= y.salary)))
//
// Operators: and, or, not, implies; comparisons < <= = <> >= >; arithmetic
// + - * /; attribute selection x.name or x.#2; aggregates SUM/AVG/MIN/MAX
// (rel, attr) and CNT(rel); auxiliary relations old(R), ins(R), del(R);
// tuple equality x == y; quantifier sugar "forall x, y (...)". Validation
// and name resolution happen separately (calculus.Validate).
func ParseConstraint(src string) (calculus.WFF, error) {
	p, err := newParser(src)
	if err != nil {
		return nil, err
	}
	w, err := p.parseFormula()
	if err != nil {
		return nil, err
	}
	if err := p.expectEOF(); err != nil {
		return nil, err
	}
	return w, nil
}

// parseFormula := quantified | implication.
func (p *parser) parseFormula() (calculus.WFF, error) {
	if err := p.enter(); err != nil {
		return nil, err
	}
	defer p.leave()
	if p.atKeyword("forall") || p.atKeyword("exists") {
		return p.parseQuantified()
	}
	if w, ok, err := p.tryParenQuantified(); ok || err != nil {
		return w, err
	}
	return p.parseImplies()
}

// tryParenQuantified accepts the paper-style rendering "(forall x)(body)"
// (which calculus.WQuant.String emits), backtracking when the parentheses enclose
// something else.
func (p *parser) tryParenQuantified() (calculus.WFF, bool, error) {
	if !p.atPunct("(") {
		return nil, false, nil
	}
	mark := p.save()
	p.next()
	if !p.atKeyword("forall") && !p.atKeyword("exists") {
		p.restore(mark)
		return nil, false, nil
	}
	q := calculus.Forall
	if p.acceptKeyword("exists") {
		q = calculus.Exists
	} else {
		p.next() // forall
	}
	var vars []string
	for {
		v, err := p.expectIdent()
		if err != nil {
			p.restore(mark)
			return nil, false, nil
		}
		vars = append(vars, v)
		if !p.acceptPunct(",") {
			break
		}
	}
	if !p.acceptPunct(")") {
		p.restore(mark)
		return nil, false, nil
	}
	if err := p.expectPunct("("); err != nil {
		return nil, true, err
	}
	body, err := p.parseFormula()
	if err != nil {
		return nil, true, err
	}
	if err := p.expectPunct(")"); err != nil {
		return nil, true, err
	}
	for i := len(vars) - 1; i >= 0; i-- {
		body = &calculus.WQuant{Q: q, Var: vars[i], Body: body}
	}
	return body, true, nil
}

func (p *parser) parseQuantified() (calculus.WFF, error) {
	q := calculus.Forall
	if p.acceptKeyword("exists") {
		q = calculus.Exists
	} else if err := p.expectKeyword("forall"); err != nil {
		return nil, err
	}
	var vars []string
	for {
		v, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		vars = append(vars, v)
		if !p.acceptPunct(",") {
			break
		}
	}
	if err := p.expectPunct("("); err != nil {
		return nil, err
	}
	body, err := p.parseFormula()
	if err != nil {
		return nil, err
	}
	if err := p.expectPunct(")"); err != nil {
		return nil, err
	}
	for i := len(vars) - 1; i >= 0; i-- {
		body = &calculus.WQuant{Q: q, Var: vars[i], Body: body}
	}
	return body, nil
}

// parseImplies := or ('implies' or)*, right-associative.
func (p *parser) parseImplies() (calculus.WFF, error) {
	l, err := p.parseOr()
	if err != nil {
		return nil, err
	}
	if p.acceptKeyword("implies") || p.acceptPunct("=>") {
		if err := p.enter(); err != nil {
			return nil, err
		}
		defer p.leave()
		r, err := p.parseImplies()
		if err != nil {
			return nil, err
		}
		return &calculus.WImplies{L: l, R: r}, nil
	}
	return l, nil
}

func (p *parser) parseOr() (calculus.WFF, error) {
	l, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.acceptKeyword("or") {
		r, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		l = &calculus.WOr{L: l, R: r}
	}
	return l, nil
}

func (p *parser) parseAnd() (calculus.WFF, error) {
	l, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for p.acceptKeyword("and") {
		r, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		l = &calculus.WAnd{L: l, R: r}
	}
	return l, nil
}

func (p *parser) parseUnary() (calculus.WFF, error) {
	if p.acceptKeyword("not") {
		if err := p.enter(); err != nil {
			return nil, err
		}
		defer p.leave()
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return &calculus.WNot{X: x}, nil
	}
	return p.parsePrimaryFormula()
}

// parsePrimaryFormula handles parenthesized formulas, nested quantifiers and
// atoms. Parentheses are ambiguous between formulas and arithmetic terms;
// the parser first tries a formula and backtracks to a comparison when that
// fails or when the parenthesized unit is followed by an operator.
func (p *parser) parsePrimaryFormula() (calculus.WFF, error) {
	if p.atKeyword("forall") || p.atKeyword("exists") {
		return p.parseQuantified()
	}
	if w, ok, err := p.tryParenQuantified(); ok || err != nil {
		return w, err
	}
	if p.atPunct("(") {
		mark := p.save()
		p.next()
		w, err := p.parseFormula()
		if errors.Is(err, ErrTooDeep) {
			return nil, err // a term through the same parentheses nests as deep
		}
		if err == nil {
			if err2 := p.expectPunct(")"); err2 == nil && !p.atArithOrCmp() {
				return w, nil
			}
		}
		p.restore(mark)
		return p.parseComparison()
	}
	return p.parseAtom()
}

// atArithOrCmp reports whether the current token continues an arithmetic or
// comparison expression, indicating the parenthesized unit was a term.
func (p *parser) atArithOrCmp() bool {
	t := p.peek()
	if t.kind != tokPunct {
		return false
	}
	switch t.text {
	case "+", "-", "*", "/", "<", "<=", "=", "<>", ">=", ">":
		return true
	}
	return false
}

// parseAtom handles membership, tuple equality and comparisons.
func (p *parser) parseAtom() (calculus.WFF, error) {
	t := p.peek()
	if t.kind == tokIdent {
		mark := p.save()
		name := t.text
		p.next()
		// x in R
		if p.acceptKeyword("in") {
			rel, err := p.parseRelRef()
			if err != nil {
				return nil, err
			}
			return &calculus.WAtom{A: &calculus.AMember{Var: name, Rel: rel}}, nil
		}
		// x == y (tuple equality)
		if p.acceptPunct("==") {
			y, err := p.expectIdent()
			if err != nil {
				return nil, err
			}
			return &calculus.WAtom{A: &calculus.ATupleEq{X: name, Y: y}}, nil
		}
		p.restore(mark)
	}
	return p.parseComparison()
}

func (p *parser) parseComparison() (calculus.WFF, error) {
	l, err := p.parseTerm()
	if err != nil {
		return nil, err
	}
	op, ok := p.parseCmpOp()
	if !ok {
		return nil, p.errf("expected comparison operator")
	}
	r, err := p.parseTerm()
	if err != nil {
		return nil, err
	}
	return &calculus.WAtom{A: &calculus.ACompare{Op: op, L: l, R: r}}, nil
}

func (p *parser) parseCmpOp() (algebra.CmpOp, bool) {
	t := p.peek()
	if t.kind != tokPunct {
		return 0, false
	}
	var op algebra.CmpOp
	switch t.text {
	case "<":
		op = algebra.CmpLT
	case "<=":
		op = algebra.CmpLE
	case "=":
		op = algebra.CmpEQ
	case "<>":
		op = algebra.CmpNE
	case ">=":
		op = algebra.CmpGE
	case ">":
		op = algebra.CmpGT
	default:
		return 0, false
	}
	p.next()
	return op, true
}

// parseTerm := factor (('+'|'-') factor)*.
func (p *parser) parseTerm() (calculus.Term, error) {
	l, err := p.parseFactor()
	if err != nil {
		return nil, err
	}
	for {
		var op value.ArithOp
		switch {
		case p.acceptPunct("+"):
			op = value.OpAdd
		case p.acceptPunct("-"):
			op = value.OpSub
		default:
			return l, nil
		}
		r, err := p.parseFactor()
		if err != nil {
			return nil, err
		}
		l = &calculus.TArith{Op: op, L: l, R: r}
	}
}

// parseFactor := unary (('*'|'/') unary)*.
func (p *parser) parseFactor() (calculus.Term, error) {
	l, err := p.parseUnaryTerm()
	if err != nil {
		return nil, err
	}
	for {
		var op value.ArithOp
		switch {
		case p.acceptPunct("*"):
			op = value.OpMul
		case p.acceptPunct("/"):
			op = value.OpDiv
		default:
			return l, nil
		}
		r, err := p.parseUnaryTerm()
		if err != nil {
			return nil, err
		}
		l = &calculus.TArith{Op: op, L: l, R: r}
	}
}

func (p *parser) parseUnaryTerm() (calculus.Term, error) {
	if p.acceptPunct("-") {
		if err := p.enter(); err != nil {
			return nil, err
		}
		defer p.leave()
		t, err := p.parseUnaryTerm()
		if err != nil {
			return nil, err
		}
		return &calculus.TArith{Op: value.OpSub, L: &calculus.TConst{V: value.Int(0)}, R: t}, nil
	}
	return p.parsePrimaryTerm()
}

func (p *parser) parsePrimaryTerm() (calculus.Term, error) {
	t := p.peek()
	switch t.kind {
	case tokInt:
		p.next()
		v, err := parseIntText(t.text)
		if err != nil {
			return nil, p.errf("bad integer %q", t.text)
		}
		return &calculus.TConst{V: value.Int(v)}, nil
	case tokFloat:
		p.next()
		v, err := parseFloatText(t.text)
		if err != nil {
			return nil, p.errf("bad float %q", t.text)
		}
		return &calculus.TConst{V: value.Float(v)}, nil
	case tokString:
		p.next()
		return &calculus.TConst{V: value.String(t.text)}, nil
	case tokIdent:
		switch {
		case strings.EqualFold(t.text, "null"):
			p.next()
			return &calculus.TConst{V: value.Null()}, nil
		case strings.EqualFold(t.text, "true"):
			p.next()
			return &calculus.TConst{V: value.Bool(true)}, nil
		case strings.EqualFold(t.text, "false"):
			p.next()
			return &calculus.TConst{V: value.Bool(false)}, nil
		}
		if f, isAgg := algebra.ParseAggFunc(t.text); isAgg && p.lx.tokens[p.pos+1].text == "(" {
			return p.parseAggTerm(f)
		}
		// attribute selection: x.name or x.#2
		name := t.text
		p.next()
		if err := p.expectPunct("."); err != nil {
			return nil, err
		}
		if p.acceptPunct("#") {
			numTok := p.next()
			if numTok.kind != tokInt {
				return nil, p.errf("expected attribute number after #")
			}
			n, err := parseIntText(numTok.text)
			if err != nil || n < 1 {
				return nil, p.errf("bad attribute number %q", numTok.text)
			}
			return &calculus.TAttr{Var: name, Index: int(n - 1)}, nil
		}
		attr, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		return &calculus.TAttr{Var: name, Name: attr, Index: -1}, nil
	case tokPunct:
		if t.text == "(" {
			p.next()
			if err := p.enter(); err != nil {
				return nil, err
			}
			defer p.leave()
			inner, err := p.parseTerm()
			if err != nil {
				return nil, err
			}
			if err := p.expectPunct(")"); err != nil {
				return nil, err
			}
			return inner, nil
		}
	}
	return nil, p.errf("expected term")
}

func (p *parser) parseAggTerm(f algebra.AggFunc) (calculus.Term, error) {
	p.next() // function name
	if err := p.expectPunct("("); err != nil {
		return nil, err
	}
	rel, err := p.parseRelRef()
	if err != nil {
		return nil, err
	}
	out := &calculus.TAggr{Func: f, Rel: rel, Index: -1}
	if f != algebra.AggCnt {
		if err := p.expectPunct(","); err != nil {
			return nil, err
		}
		if p.acceptPunct("#") {
			numTok := p.next()
			if numTok.kind != tokInt {
				return nil, p.errf("expected attribute number after #")
			}
			n, err := parseIntText(numTok.text)
			if err != nil || n < 1 {
				return nil, p.errf("bad attribute number %q", numTok.text)
			}
			out.Index = int(n - 1)
		} else {
			attr, err := p.expectIdent()
			if err != nil {
				return nil, err
			}
			out.Name = attr
		}
	}
	if err := p.expectPunct(")"); err != nil {
		return nil, err
	}
	return out, nil
}

// parseRelRef := IDENT | ('old'|'ins'|'del') '(' IDENT ')'.
func (p *parser) parseRelRef() (calculus.RelRef, error) {
	name, err := p.expectIdent()
	if err != nil {
		return calculus.RelRef{}, err
	}
	aux := algebra.AuxCur
	switch strings.ToLower(name) {
	case "old":
		aux = algebra.AuxOld
	case "ins":
		aux = algebra.AuxIns
	case "del":
		aux = algebra.AuxDel
	}
	if aux != algebra.AuxCur && p.atPunct("(") {
		p.next()
		inner, err := p.expectIdent()
		if err != nil {
			return calculus.RelRef{}, err
		}
		if err := p.expectPunct(")"); err != nil {
			return calculus.RelRef{}, err
		}
		return calculus.RelRef{Name: inner, Aux: aux}, nil
	}
	return calculus.RelRef{Name: name}, nil
}
