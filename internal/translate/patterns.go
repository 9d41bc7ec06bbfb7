package translate

import (
	"fmt"

	"repro/internal/algebra"
	"repro/internal/calculus"
	"repro/internal/value"
)

// canonicalizeImplication rewrites the body of a universal quantifier into
// guard conjuncts plus a consequent: Implies(L,R), Or(¬L,R), Or(L,¬R) and
// ¬(L∧R) are all accepted as guarded forms.
func canonicalizeImplication(body calculus.WFF) (guards []calculus.WFF, consequent calculus.WFF, err error) {
	switch x := body.(type) {
	case *calculus.WImplies:
		return flattenAnd(x.L), x.R, nil
	case *calculus.WOr:
		if n, ok := x.L.(*calculus.WNot); ok {
			return flattenAnd(n.X), x.R, nil
		}
		if n, ok := x.R.(*calculus.WNot); ok {
			return flattenAnd(n.X), x.L, nil
		}
		return nil, nil, fmt.Errorf("universal quantifier body must be guarded (R ⇒ ...); got a disjunction without a negated guard")
	case *calculus.WNot:
		if a, ok := x.X.(*calculus.WAnd); ok {
			return flattenAnd(a.L), &calculus.WNot{X: a.R}, nil
		}
		return nil, nil, fmt.Errorf("universal quantifier body must be guarded (R ⇒ ...)")
	case *calculus.WAtom:
		// (∀x)(x ∈ R): trivially true under typed semantics, but accept it as
		// an empty check.
		if m, ok := x.A.(*calculus.AMember); ok {
			return []calculus.WFF{body}, &calculus.WAtom{A: m}, nil
		}
		return nil, nil, fmt.Errorf("universal quantifier body must be guarded (R ⇒ ...)")
	default:
		return nil, nil, fmt.Errorf("universal quantifier body must be guarded (R ⇒ ...); got %T", body)
	}
}

// absorbGuards grows the guard list by rewriting consequent shapes that are
// logically guarded forms:
//
//   - A ⇒ C with quantifier-free A becomes guards ∪ {A} with consequent C;
//   - D1 ∨ ... ∨ Dn ∨ Q with quantifier-free Di and exactly one quantified
//     disjunct Q becomes guards ∪ {¬D1, ..., ¬Dn} with consequent Q.
//
// This lets conditions like (∀x)(x∈R ⇒ (γ(x) ∨ (∃y)(...))) reach the
// referential pattern.
func absorbGuards(guards []calculus.WFF, consequent calculus.WFF) ([]calculus.WFF, calculus.WFF) {
	for {
		switch c := consequent.(type) {
		case *calculus.WImplies:
			if !isQuantifierFree(c.L) {
				return guards, consequent
			}
			guards = append(guards, flattenAnd(c.L)...)
			consequent = c.R
		case *calculus.WOr:
			disjuncts := flattenOr(consequent)
			var quantified calculus.WFF
			var free []calculus.WFF
			for _, d := range disjuncts {
				if isQuantifierFree(d) {
					free = append(free, d)
				} else if quantified == nil {
					quantified = d
				} else {
					return guards, consequent // two quantified disjuncts: give up
				}
			}
			if quantified == nil || len(free) == 0 {
				return guards, consequent
			}
			for _, d := range free {
				guards = append(guards, &calculus.WNot{X: d})
			}
			consequent = quantified
		default:
			return guards, consequent
		}
	}
}

// flattenOr splits nested disjunctions into a flat list.
func flattenOr(w calculus.WFF) []calculus.WFF {
	if o, ok := w.(*calculus.WOr); ok {
		return append(flattenOr(o.L), flattenOr(o.R)...)
	}
	return []calculus.WFF{w}
}

// findMember extracts the membership atom typing var from a guard list,
// returning the remaining guards.
func findMember(guards []calculus.WFF, varName string) (*calculus.AMember, []calculus.WFF, error) {
	var member *calculus.AMember
	var rest []calculus.WFF
	for _, g := range guards {
		if at, ok := g.(*calculus.WAtom); ok {
			if m, ok := at.A.(*calculus.AMember); ok && m.Var == varName && member == nil {
				member = m
				continue
			}
		}
		rest = append(rest, g)
	}
	if member == nil {
		return nil, nil, fmt.Errorf("no membership guard for variable %q", varName)
	}
	return member, rest, nil
}

// guardScalar translates a guard conjunct list over a single variable into
// one scalar (nil when the list is empty).
func (t *translator) guardScalar(guards []calculus.WFF, ctx *scalarCtx) (algebra.Scalar, error) {
	var parts []algebra.Scalar
	for _, g := range guards {
		s, err := translateScalar(g, ctx)
		if err != nil {
			return nil, err
		}
		parts = append(parts, s)
	}
	return algebra.AndAll(parts...), nil
}

// translateForall handles all universally quantified patterns: domain
// constraints, referential constraints, and the two pair forms of Table 1.
func (t *translator) translateForall(q *calculus.WQuant) (*Part, error) {
	x := q.Var
	xi, ok := t.info.Vars[x]
	if !ok {
		return nil, fmt.Errorf("untyped variable %q", x)
	}

	// Two-variable prefix form (Table 1 row 4):
	// (∀x)(∀y)((x∈R ∧ y∈S ∧ c1) ⇒ c2).
	if inner, isQ := q.Body.(*calculus.WQuant); isQ && inner.Q == calculus.Forall {
		guards, consequent, err := canonicalizeImplication(inner.Body)
		if err != nil {
			return nil, err
		}
		return t.pairPart(x, inner.Var, guards, consequent)
	}

	guards, consequent, err := canonicalizeImplication(q.Body)
	if err != nil {
		return nil, err
	}
	member, extra, err := findMember(guards, x)
	if err != nil {
		return nil, err
	}
	extra, consequent = absorbGuards(extra, consequent)

	_ = xi
	switch c := consequent.(type) {
	case *calculus.WQuant:
		if c.Q == calculus.Exists {
			return t.referentialPart(x, member, extra, c)
		}
		// Nested universal (Table 1 row 3): fold into the pair handler.
		innerGuards, innerConsequent, err := canonicalizeImplication(c.Body)
		if err != nil {
			return nil, err
		}
		all := append([]calculus.WFF{&calculus.WAtom{A: member}}, extra...)
		all = append(all, innerGuards...)
		return t.pairPart(x, c.Var, all, innerConsequent)
	default:
		if !isQuantifierFree(consequent) {
			return nil, fmt.Errorf("consequent nests quantifiers deeper than the supported two levels")
		}
		return t.domainPart(x, member, extra, consequent)
	}
}

// domainPart emits alarm(select(R_γ, ¬c')) — Table 1 row 1 — optionally
// extended with aggregate joins when the per-tuple condition reads
// aggregates (which demotes the class to mixed).
func (t *translator) domainPart(x string, member *calculus.AMember, extraGuards []calculus.WFF, consequent calculus.WFF) (*Part, error) {
	xi := t.info.Vars[x]
	ctx := newScalarCtx()
	ctx.bindVar(x, 0, member.Rel, xi.Schema)

	whole := consequent
	for _, g := range extraGuards {
		whole = &calculus.WAnd{L: whole, R: g}
	}
	mixed := hasAggs(whole)

	var base algebra.Expr = algebra.NewAuxRel(member.Rel.Name, member.Rel.Aux)
	base, err := appendAggJoins(base, whole, xi.Schema.Arity(), ctx)
	if err != nil {
		return nil, err
	}
	guard, err := t.guardScalar(extraGuards, ctx)
	if err != nil {
		return nil, err
	}
	cond, err := translateScalar(consequent, ctx)
	if err != nil {
		return nil, err
	}

	expr := base
	if guard != nil {
		expr = algebra.NewSelect(expr, algebra.CloneScalar(guard))
	}
	expr = algebra.NewSelect(expr, &algebra.Not{X: algebra.CloneScalar(cond)})
	prog, err := t.alarm(expr)
	if err != nil {
		return nil, err
	}
	class := ClassDomain
	if mixed {
		class = ClassMixed
	}
	return &Part{
		Class:   class,
		Rel:     member.Rel,
		Guard:   guard,
		Cond:    cond,
		HasAggs: mixed,
		Program: prog,
	}, nil
}

// referentialPart emits alarm(antijoin(R_γ, S_δ, ψ)) — Table 1 row 2. The
// stored JoinPred is the *match* predicate ψ: left tuples with no matching
// right tuple are violations.
func (t *translator) referentialPart(x string, xMember *calculus.AMember, xExtra []calculus.WFF, ex *calculus.WQuant) (*Part, error) {
	y := ex.Var
	yi, ok := t.info.Vars[y]
	if !ok {
		return nil, fmt.Errorf("untyped variable %q", y)
	}
	xi := t.info.Vars[x]
	conj := flattenAnd(ex.Body)
	yMember, rest, err := findMember(conj, y)
	if err != nil {
		return nil, err
	}

	onlyY := map[string]bool{y: true}
	var yGuards, joinConds []calculus.WFF
	for _, c := range rest {
		if !isQuantifierFree(c) {
			return nil, fmt.Errorf("existential witness condition nests quantifiers deeper than the supported two levels")
		}
		if hasAggs(c) {
			return nil, fmt.Errorf("aggregate terms inside quantified pair conditions are not supported")
		}
		if usesOnlyVars(c, onlyY) {
			yGuards = append(yGuards, c)
		} else {
			joinConds = append(joinConds, c)
		}
	}

	// Guards on x restrict the left input.
	xCtx := newScalarCtx()
	xCtx.bindVar(x, 0, xMember.Rel, xi.Schema)
	for _, g := range xExtra {
		if hasAggs(g) {
			return nil, fmt.Errorf("aggregate terms inside quantified pair conditions are not supported")
		}
	}
	xGuard, err := t.guardScalar(xExtra, xCtx)
	if err != nil {
		return nil, err
	}

	yCtx := newScalarCtx()
	yCtx.bindVar(y, 0, yMember.Rel, yi.Schema)
	yGuard, err := t.guardScalar(yGuards, yCtx)
	if err != nil {
		return nil, err
	}

	pairCtx := newScalarCtx()
	pairCtx.bindVar(x, 0, xMember.Rel, xi.Schema)
	pairCtx.bindVar(y, xi.Schema.Arity(), yMember.Rel, yi.Schema)
	match, err := t.guardScalar(joinConds, pairCtx)
	if err != nil {
		return nil, err
	}

	left := relExpr(xMember.Rel, xGuard)
	right := relExpr(yMember.Rel, yGuard)
	expr := algebra.NewAntiJoin(left, right, algebra.CloneScalar(match))
	prog, err := t.alarm(expr)
	if err != nil {
		return nil, err
	}
	return &Part{
		Class:      ClassReferential,
		Rel:        xMember.Rel,
		Other:      yMember.Rel,
		Guard:      xGuard,
		OtherGuard: yGuard,
		JoinPred:   match,
		Program:    prog,
	}, nil
}

// pairPart emits alarm(semijoin(R_γ, S_δ, c1 ∧ ¬c2)) — equivalent in
// alarm-emptiness to Table 1 rows 3-4. The stored JoinPred is the
// *violation* predicate c1 ∧ ¬c2: any matching pair is a violation.
func (t *translator) pairPart(x, y string, guards []calculus.WFF, consequent calculus.WFF) (*Part, error) {
	xi, ok := t.info.Vars[x]
	if !ok {
		return nil, fmt.Errorf("untyped variable %q", x)
	}
	yi, ok := t.info.Vars[y]
	if !ok {
		return nil, fmt.Errorf("untyped variable %q", y)
	}
	xMember, rest, err := findMember(guards, x)
	if err != nil {
		return nil, err
	}
	yMember, rest, err := findMember(rest, y)
	if err != nil {
		return nil, err
	}
	if !isQuantifierFree(consequent) {
		return nil, fmt.Errorf("pair consequent nests quantifiers deeper than the supported two levels")
	}

	onlyX := map[string]bool{x: true}
	onlyY := map[string]bool{y: true}
	var xGuards, yGuards, mixed []calculus.WFF
	for _, c := range rest {
		switch {
		case !isQuantifierFree(c):
			return nil, fmt.Errorf("pair guard nests quantifiers deeper than the supported two levels")
		case hasAggs(c):
			return nil, fmt.Errorf("aggregate terms inside quantified pair conditions are not supported")
		case usesOnlyVars(c, onlyX):
			xGuards = append(xGuards, c)
		case usesOnlyVars(c, onlyY):
			yGuards = append(yGuards, c)
		default:
			mixed = append(mixed, c)
		}
	}
	if hasAggs(consequent) {
		return nil, fmt.Errorf("aggregate terms inside quantified pair conditions are not supported")
	}

	xCtx := newScalarCtx()
	xCtx.bindVar(x, 0, xMember.Rel, xi.Schema)
	xGuard, err := t.guardScalar(xGuards, xCtx)
	if err != nil {
		return nil, err
	}
	yCtx := newScalarCtx()
	yCtx.bindVar(y, 0, yMember.Rel, yi.Schema)
	yGuard, err := t.guardScalar(yGuards, yCtx)
	if err != nil {
		return nil, err
	}

	pairCtx := newScalarCtx()
	pairCtx.bindVar(x, 0, xMember.Rel, xi.Schema)
	pairCtx.bindVar(y, xi.Schema.Arity(), yMember.Rel, yi.Schema)
	c1, err := t.guardScalar(mixed, pairCtx)
	if err != nil {
		return nil, err
	}
	c2, err := translateScalar(consequent, pairCtx)
	if err != nil {
		return nil, err
	}
	violation := algebra.AndAll(c1, &algebra.Not{X: c2})

	left := relExpr(xMember.Rel, xGuard)
	right := relExpr(yMember.Rel, yGuard)
	expr := algebra.NewSemiJoin(left, right, algebra.CloneScalar(violation))
	prog, err := t.alarm(expr)
	if err != nil {
		return nil, err
	}
	return &Part{
		Class:      ClassPair,
		Rel:        xMember.Rel,
		Other:      yMember.Rel,
		Guard:      xGuard,
		OtherGuard: yGuard,
		JoinPred:   violation,
		Program:    prog,
	}, nil
}

// translateExists emits alarm(σ_{CNT=0}(CNT(σ_c'(R)))) — Table 1 row 5: the
// alarm fires when no witness exists.
func (t *translator) translateExists(q *calculus.WQuant) (*Part, error) {
	x := q.Var
	xi, ok := t.info.Vars[x]
	if !ok {
		return nil, fmt.Errorf("untyped variable %q", x)
	}
	conj := flattenAnd(q.Body)
	member, rest, err := findMember(conj, x)
	if err != nil {
		return nil, err
	}
	ctx := newScalarCtx()
	ctx.bindVar(x, 0, member.Rel, xi.Schema)

	whole := calculus.WFF(&calculus.WAtom{A: member})
	for _, c := range rest {
		if !isQuantifierFree(c) {
			return nil, fmt.Errorf("existential body nests quantifiers deeper than the supported two levels")
		}
		whole = &calculus.WAnd{L: whole, R: c}
	}

	var base algebra.Expr = algebra.NewAuxRel(member.Rel.Name, member.Rel.Aux)
	base, err = appendAggJoins(base, whole, xi.Schema.Arity(), ctx)
	if err != nil {
		return nil, err
	}
	cond, err := t.guardScalar(rest, ctx)
	if err != nil {
		return nil, err
	}

	inner := base
	if cond != nil {
		inner = algebra.NewSelect(base, algebra.CloneScalar(cond))
	}
	expr := algebra.NewSelect(
		algebra.NewCount(inner),
		&algebra.Cmp{Op: algebra.CmpEQ, L: algebra.AttrByIndex(0), R: &algebra.Const{V: value.Int(0)}},
	)
	prog, err := t.alarm(expr)
	if err != nil {
		return nil, err
	}
	return &Part{
		Class:   ClassExistential,
		Rel:     member.Rel,
		Cond:    cond,
		HasAggs: hasAggs(whole),
		Program: prog,
	}, nil
}

// translateAggregate emits alarm(σ_{¬c'}(AGG1 × AGG2 × ...)) — Table 1 rows
// 6-7, generalized to boolean combinations of several aggregate terms.
func (t *translator) translateAggregate(w calculus.WFF) (*Part, error) {
	ctx := newScalarCtx()
	base, err := appendAggJoins(nil, w, 0, ctx)
	if err != nil {
		return nil, err
	}
	if base == nil {
		return nil, fmt.Errorf("quantifier-free condition without aggregate terms is constant; refusing to translate")
	}
	cond, err := translateScalar(w, ctx)
	if err != nil {
		return nil, err
	}
	expr := algebra.NewSelect(base, &algebra.Not{X: algebra.CloneScalar(cond)})
	prog, err := t.alarm(expr)
	if err != nil {
		return nil, err
	}
	return &Part{Class: ClassAggregate, HasAggs: true, Program: prog}, nil
}

// relExpr builds R or σ_guard(R) for an auxiliary relation reference.
func relExpr(r calculus.RelRef, guard algebra.Scalar) algebra.Expr {
	var e algebra.Expr = algebra.NewAuxRel(r.Name, r.Aux)
	if guard != nil {
		e = algebra.NewSelect(e, algebra.CloneScalar(guard))
	}
	return e
}
