// Package optimize implements integrity rule optimization — the paper's
// OptR/OptC hooks (Algorithm 5.4). What fills OptR is the differential-
// relation technique the paper cites ([18, 5, 7]): a translated part's
// alarm over E is replaced by one alarm per term of Δ⁺E
// (algebra.AlarmDelta), each reading one of the transaction's net deltas
// instead of a full relation. The rewrite is sound because the committed
// state satisfies the constraint, so E(old) is empty and E(new) is empty iff
// every term is. Parts whose expression has no Δ form — aggregates,
// existentials, transition constraints reading old() — keep their
// full-state check.
package optimize

import (
	"repro/internal/algebra"
	"repro/internal/calculus"
	"repro/internal/schema"
	"repro/internal/translate"
	"repro/internal/value"
)

// PartPlan pairs one translated constraint part with its compiled check
// programs: the full-state check and, when the part's alarm has a Δ form,
// one check per Δ term. The static safety analyzer
// (translate.AnalyzeSafety) selects among the terms per transaction shape;
// a safe verdict runs nothing.
type PartPlan struct {
	Part *translate.Part
	// Full is a clone of the part's full-state check program.
	Full algebra.Program
	// Terms are the Δ terms of the part's alarm expression; nil when it has
	// no Δ form.
	Terms []algebra.DeltaTerm
	// Checks holds one alarm per term, in term order.
	Checks algebra.Program
}

// Differential returns the plan's best unconditional program: every term
// check when the part has a Δ form, the full check otherwise.
func (pl *PartPlan) Differential() algebra.Program {
	if len(pl.Terms) == 0 {
		return pl.Full
	}
	return pl.Checks
}

// ProgramFor assembles the check program a given safety verdict requires.
// The second result is the number of compiled checks the verdict elided.
func (pl *PartPlan) ProgramFor(need translate.Need) (algebra.Program, int) {
	if len(pl.Terms) == 0 {
		if need.Full {
			return pl.Full, 0
		}
		return nil, 1
	}
	var prog algebra.Program
	elided := 0
	for i, check := range pl.Checks {
		if need.Term(i) {
			prog = append(prog, check)
		} else {
			elided++
		}
	}
	return prog, elided
}

// CompileParts builds a PartPlan per translated part. The bool reports
// whether any part gained a Δ form.
func CompileParts(parts []*translate.Part, db *schema.Database, constraint string) ([]*PartPlan, bool) {
	plans := make([]*PartPlan, 0, len(parts))
	improved := false
	for _, p := range parts {
		pl := &PartPlan{Part: p, Full: algebra.CloneProgram(p.Program)}
		pl.Terms, pl.Checks = deltaChecks(p.Program, db, constraint)
		improved = improved || len(pl.Terms) > 0
		plans = append(plans, pl)
	}
	return plans, improved
}

// deltaChecks derives the Δ terms of a one-alarm program and type-checks an
// alarm per term. It returns nil when the alarm has no Δ form, more terms
// than a translate.Need can select among, or a term that does not
// type-check.
func deltaChecks(prog algebra.Program, db *schema.Database, constraint string) ([]algebra.DeltaTerm, algebra.Program) {
	if len(prog) != 1 {
		return nil, nil
	}
	al, ok := prog[0].(*algebra.Alarm)
	if !ok {
		return nil, nil
	}
	terms, ok := algebra.AlarmDelta(al.Expr)
	if !ok || len(terms) == 0 || len(terms) > translate.MaxTerms {
		return nil, nil
	}
	checks := make(algebra.Program, len(terms))
	tenv := algebra.NewTypeEnv(db)
	for i, t := range terms {
		if _, err := t.Expr.TypeCheck(tenv); err != nil {
			return nil, nil
		}
		checks[i] = &algebra.Alarm{Expr: t.Expr, Constraint: constraint}
	}
	return terms, checks
}

// SimplifyCondition applies cheap semantics-preserving rewrites to a CL
// condition before translation — the syntactic-manipulation slot of OptC
// ([14, 11]): double-negation elimination and constant folding of
// comparisons between constants.
func SimplifyCondition(w calculus.WFF) calculus.WFF {
	switch x := w.(type) {
	case *calculus.WNot:
		inner := SimplifyCondition(x.X)
		if n, ok := inner.(*calculus.WNot); ok {
			return n.X
		}
		return &calculus.WNot{X: inner}
	case *calculus.WAnd:
		return &calculus.WAnd{L: SimplifyCondition(x.L), R: SimplifyCondition(x.R)}
	case *calculus.WOr:
		return &calculus.WOr{L: SimplifyCondition(x.L), R: SimplifyCondition(x.R)}
	case *calculus.WImplies:
		return &calculus.WImplies{L: SimplifyCondition(x.L), R: SimplifyCondition(x.R)}
	case *calculus.WQuant:
		return &calculus.WQuant{Q: x.Q, Var: x.Var, Body: SimplifyCondition(x.Body)}
	case *calculus.WAtom:
		if c, ok := x.A.(*calculus.ACompare); ok {
			if folded, ok := foldConstCompare(c); ok {
				return folded
			}
		}
		return x
	default:
		return w
	}
}

// foldConstCompare folds comparisons between two constants into a canonical
// always-true/false atom (expressed as 0=0 or 0=1 so the AST stays within
// CL).
func foldConstCompare(c *calculus.ACompare) (calculus.WFF, bool) {
	lc, lok := c.L.(*calculus.TConst)
	rc, rok := c.R.(*calculus.TConst)
	if !lok || !rok {
		return nil, false
	}
	var truth bool
	switch c.Op {
	case algebra.CmpEQ:
		truth = lc.V.Equal(rc.V)
	case algebra.CmpNE:
		truth = !lc.V.Equal(rc.V)
	default:
		cmp, err := lc.V.Compare(rc.V)
		if err != nil {
			return nil, false
		}
		switch c.Op {
		case algebra.CmpLT:
			truth = cmp < 0
		case algebra.CmpLE:
			truth = cmp <= 0
		case algebra.CmpGE:
			truth = cmp >= 0
		case algebra.CmpGT:
			truth = cmp > 0
		}
	}
	rhs := int64(1)
	if truth {
		rhs = 0
	}
	return &calculus.WAtom{A: &calculus.ACompare{
		Op: algebra.CmpEQ,
		L:  &calculus.TConst{V: value.Int(0)},
		R:  &calculus.TConst{V: value.Int(rhs)},
	}}, true
}
