// Package translate implements the translation of CL constraint conditions
// into extended relational algebra programs guarded by alarm statements —
// the paper's functions TransC and CalcToAlg (Algorithms 5.5-5.6) and the
// construct patterns of Table 1.
//
// The supported fragment is the range-restricted, uniquely-typed-variable
// fragment accepted by calculus.Validate. Within it the translator
// recognizes the constraint classes below. The optimizer (package optimize)
// derives differential checks from the produced alarm expressions
// themselves; the class and the structural pieces of a Part serve the
// static safety analysis and the repair compiler.
package translate

import (
	"fmt"

	"repro/internal/algebra"
	"repro/internal/calculus"
	"repro/internal/schema"
)

// Class identifies the structural class of a translated constraint
// conjunct (Table 1).
type Class uint8

// Constraint classes.
const (
	// ClassDomain is (∀x)(x∈R [∧ γ(x)] ⇒ c(x)) with c quantifier-free and
	// per-tuple (Table 1 row 1).
	ClassDomain Class = iota
	// ClassReferential is (∀x)(x∈R [∧ γ(x)] ⇒ (∃y)(y∈S ∧ ψ(x,y)))
	// (Table 1 row 2), which covers referential integrity and subset
	// constraints.
	ClassReferential
	// ClassPair is (∀x)(x∈R ⇒ (∀y)(y∈S ⇒ ψ(x,y))) and the flattened
	// (∀x,y)((x∈R ∧ y∈S ∧ c1(x,y)) ⇒ c2(x,y)) (Table 1 rows 3-4).
	ClassPair
	// ClassExistential is (∃x)(x∈R ∧ c(x)) (Table 1 row 5).
	ClassExistential
	// ClassAggregate is a quantifier-free condition over aggregate and
	// counting terms (Table 1 rows 6-7).
	ClassAggregate
	// ClassMixed is a per-tuple condition that also reads aggregates, or any
	// other recognized-but-not-incrementalizable shape; it always gets a
	// full-state check.
	ClassMixed
)

// String names the class.
func (c Class) String() string {
	switch c {
	case ClassDomain:
		return "domain"
	case ClassReferential:
		return "referential"
	case ClassPair:
		return "pair"
	case ClassExistential:
		return "existential"
	case ClassAggregate:
		return "aggregate"
	case ClassMixed:
		return "mixed"
	default:
		return fmt.Sprintf("class(%d)", uint8(c))
	}
}

// Part describes one translated conjunct: the alarm program fragment plus
// the structural pieces the safety analysis and the repair compiler read.
// Rel is the leaf the alarm expression reads first and Other the second.
// Scalars stored here are over the schemas indicated by the class:
//
//   - ClassDomain: Guard and Cond over Rel's schema;
//   - ClassReferential / ClassPair: Guard over Rel, OtherGuard over Other,
//     JoinPred over concat(Rel, Other); Cond unused;
//   - ClassExistential: Cond over Rel;
//   - ClassAggregate / ClassMixed: no reusable pieces (full recheck only).
type Part struct {
	Class      Class
	Rel        calculus.RelRef
	Other      calculus.RelRef
	Guard      algebra.Scalar
	OtherGuard algebra.Scalar
	JoinPred   algebra.Scalar
	Cond       algebra.Scalar
	HasAggs    bool
	Program    algebra.Program
}

// Result is the outcome of translating a full condition: the concatenated
// aborting program and the per-conjunct parts.
type Result struct {
	Program algebra.Program
	Parts   []*Part
}

// Condition translates the (validated) negated-condition check of an
// aborting integrity rule: the produced program raises a ViolationError
// naming constraint iff the condition is false in the state it runs in.
// This is TransC of Algorithm 5.6 extended to conjunctions.
func Condition(w calculus.WFF, info *calculus.Info, db *schema.Database, constraint string) (*Result, error) {
	tr := &translator{info: info, db: db, constraint: constraint}
	conjuncts := splitConjuncts(normalize(w))
	res := &Result{}
	for _, c := range conjuncts {
		part, err := tr.translateConjunct(c)
		if err != nil {
			return nil, fmt.Errorf("translate: constraint %q: %w", constraint, err)
		}
		res.Parts = append(res.Parts, part)
		res.Program = res.Program.Concat(part.Program)
	}
	if len(res.Parts) == 0 {
		return nil, fmt.Errorf("translate: constraint %q: empty condition", constraint)
	}
	return res, nil
}

type translator struct {
	info       *calculus.Info
	db         *schema.Database
	constraint string
}

// normalize applies semantics-preserving rewrites that put formulas into the
// shapes the pattern matcher recognizes: double negation elimination and
// pushing negation through quantifiers.
func normalize(w calculus.WFF) calculus.WFF {
	switch x := w.(type) {
	case *calculus.WNot:
		switch inner := x.X.(type) {
		case *calculus.WNot:
			return normalize(inner.X)
		case *calculus.WQuant:
			// ¬(∀x)B ≡ (∃x)¬B ; ¬(∃x)B ≡ (∀x)¬B
			q := calculus.Exists
			if inner.Q == calculus.Exists {
				q = calculus.Forall
			}
			return normalize(&calculus.WQuant{Q: q, Var: inner.Var, Body: &calculus.WNot{X: inner.Body}})
		case *calculus.WImplies:
			// ¬(A ⇒ B) ≡ A ∧ ¬B
			return normalize(&calculus.WAnd{L: inner.L, R: &calculus.WNot{X: inner.R}})
		case *calculus.WOr:
			// ¬(A ∨ B) ≡ ¬A ∧ ¬B
			return normalize(&calculus.WAnd{
				L: &calculus.WNot{X: inner.L},
				R: &calculus.WNot{X: inner.R},
			})
		default:
			return &calculus.WNot{X: normalize(x.X)}
		}
	case *calculus.WQuant:
		body := normalize(x.Body)
		// ¬(A ∧ B) under a ∀ becomes A ⇒ ¬B when A can serve as a guard.
		if n, ok := body.(*calculus.WNot); ok && x.Q == calculus.Forall {
			if a, ok := n.X.(*calculus.WAnd); ok {
				body = &calculus.WImplies{L: a.L, R: normalize(&calculus.WNot{X: a.R})}
			}
		}
		return &calculus.WQuant{Q: x.Q, Var: x.Var, Body: body}
	case *calculus.WAnd:
		return &calculus.WAnd{L: normalize(x.L), R: normalize(x.R)}
	case *calculus.WOr:
		return &calculus.WOr{L: normalize(x.L), R: normalize(x.R)}
	case *calculus.WImplies:
		return &calculus.WImplies{L: normalize(x.L), R: normalize(x.R)}
	default:
		return w
	}
}

// splitConjuncts splits a top-level conjunction into independently
// translatable constraints, distributing a shared universal prefix:
// (∀x)(A ⇒ (C1 ∧ C2)) becomes (∀x)(A ⇒ C1) and (∀x)(A ⇒ C2).
func splitConjuncts(w calculus.WFF) []calculus.WFF {
	if a, ok := w.(*calculus.WAnd); ok {
		return append(splitConjuncts(a.L), splitConjuncts(a.R)...)
	}
	if q, ok := w.(*calculus.WQuant); ok && q.Q == calculus.Forall {
		if imp, ok := q.Body.(*calculus.WImplies); ok {
			if c, ok := imp.R.(*calculus.WAnd); ok {
				left := &calculus.WQuant{Q: q.Q, Var: q.Var, Body: &calculus.WImplies{L: imp.L, R: c.L}}
				right := &calculus.WQuant{Q: q.Q, Var: q.Var, Body: &calculus.WImplies{L: imp.L, R: c.R}}
				return append(splitConjuncts(left), splitConjuncts(right)...)
			}
		}
	}
	return []calculus.WFF{w}
}

// translateConjunct dispatches one conjunct to the pattern that matches it.
func (t *translator) translateConjunct(w calculus.WFF) (*Part, error) {
	switch x := w.(type) {
	case *calculus.WQuant:
		if x.Q == calculus.Forall {
			return t.translateForall(x)
		}
		return t.translateExists(x)
	default:
		if isQuantifierFree(w) {
			return t.translateAggregate(w)
		}
		return nil, fmt.Errorf("unsupported condition shape %T; see docs/ARCHITECTURE.md for the supported fragment", w)
	}
}

func isQuantifierFree(w calculus.WFF) bool {
	free := true
	calculus.Walk(w, func(n calculus.WFF) bool {
		if _, ok := n.(*calculus.WQuant); ok {
			free = false
			return false
		}
		return true
	})
	return free
}

// alarm wraps an expression into an alarm statement program after type
// checking it.
func (t *translator) alarm(e algebra.Expr) (algebra.Program, error) {
	tenv := algebra.NewTypeEnv(t.db)
	if _, err := e.TypeCheck(tenv); err != nil {
		return nil, err
	}
	return algebra.Program{&algebra.Alarm{Expr: e, Constraint: t.constraint}}, nil
}
