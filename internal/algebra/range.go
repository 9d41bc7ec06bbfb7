package algebra

import (
	"math"
	"slices"

	"repro/internal/relation"
	"repro/internal/schema"
	"repro/internal/value"
)

// RangeBound bounds the column a probe reaches after its equality prefix:
// the interval the predicate's ordering conjuncts on that column pin down.
// A nil endpoint is limited to Kind's ordered-rank band. IncludeNull admits
// null (a negated comparison holds on null) and IncludeNaN admits NaN (an
// inclusive numeric comparison holds on NaN: value.Compare answers 0 for NaN
// against any number, so NaN data satisfies <= and >= whatever the bound).
// Candidates are always re-verified with the full predicate, so a bound only
// has to admit a superset of the matching tuples.
type RangeBound struct {
	Lo, Hi                  *value.Value
	LoIncl, HiIncl          bool
	Kind                    value.Kind // kind of the bounding constants (int/float unify)
	IncludeNull, IncludeNaN bool
}

// rangePlan is the bound a predicate puts on one column, found at TypeCheck
// time.
type rangePlan struct {
	col   int
	bound RangeBound
	bad   bool // contradictory or incomparable bounds: never probe
}

// extractConstBounds walks a predicate collecting "attr op const" ordering
// comparisons (in either operand order) from its top-level conjunction,
// pushing negation through Not, And and Or — enforcement guards reach the
// evaluator as not(cond), so ¬(qty >= 0) must plan as qty < 0. Because
// ordering against null is false whatever the operator, a negated
// comparison is satisfied by null, which the plan records in IncludeNull;
// the probe then widens its intervals to cover the null encoding.
//
// Conjuncts on one column intersect (the tightest bound wins). Conjuncts
// the extractor cannot use — null or NaN constants, non-constant operands,
// disjunctions — are simply not used for narrowing, which is sound: the
// probe interval stays a superset of the tuples the full predicate accepts.
// Bounds of incomparable constant kinds mark the column bad (no value
// satisfies both, but Compare would error rather than answer false, so the
// scan path must keep the error semantics). The returned plans are ordered
// by column for deterministic index selection.
func extractConstBounds(pred Scalar) []rangePlan {
	if !ProbeSafe(pred) {
		return nil
	}
	byCol := make(map[int]*rangePlan)
	var walk func(p Scalar, neg bool)
	walk = func(p Scalar, neg bool) {
		switch x := p.(type) {
		case *And:
			if !neg {
				walk(x.L, false)
				walk(x.R, false)
			}
		case *Or:
			if neg { // ¬(a ∨ b) ≡ ¬a ∧ ¬b
				walk(x.L, true)
				walk(x.R, true)
			}
		case *Not:
			walk(x.X, !neg)
		case *Cmp:
			op := x.Op
			attr, aok := x.L.(*Attr)
			lit, lok := x.R.(*Const)
			if !aok || !lok {
				attr, aok = x.R.(*Attr)
				lit, lok = x.L.(*Const)
				op = flipCmp(op) // C op attr  ≡  attr flip(op) C
			}
			if !aok || !lok || attr.Index < 0 {
				return
			}
			if neg {
				op = op.Negate()
			}
			if op == CmpEQ || op == CmpNE {
				return // equality conjuncts are the hash-probe planner's
			}
			v := lit.V
			if v.IsNull() || (v.Kind() == value.KindFloat && math.IsNaN(v.AsFloat())) {
				return // ordering against null/NaN never holds; unusable as a bound
			}
			pl := byCol[attr.Index]
			if pl == nil {
				pl = &rangePlan{col: attr.Index, bound: RangeBound{Kind: v.Kind(), IncludeNull: true, IncludeNaN: true}}
				byCol[attr.Index] = pl
			}
			b := &pl.bound
			// A bound whose kind cannot be ordered against the column's data
			// poisons the plan rather than narrowing it: the scan path raises
			// a comparison error for every non-null value, and an index probe
			// over the bound's (empty) kind band would turn that error into a
			// silent empty result.
			if value.OrderedRank(v.Kind()) != value.OrderedRank(b.Kind) ||
				value.OrderedRank(v.Kind()) != value.OrderedRank(attr.kind) {
				pl.bad = true // incomparable kinds: keep scan semantics
				return
			}
			incl := op == CmpLE || op == CmpGE
			switch op {
			case CmpLT, CmpLE:
				b.Hi, b.HiIncl = tightenBound(b.Hi, b.HiIncl, v, incl, false, pl)
			case CmpGT, CmpGE:
				b.Lo, b.LoIncl = tightenBound(b.Lo, b.LoIncl, v, incl, true, pl)
			}
			// Null satisfies the conjunct only in its negated form; NaN data
			// satisfies it only when the effective operator admits equality
			// (Compare answers 0 for NaN against any number, so NaN <= c and
			// NaN >= c hold while NaN < c and NaN > c do not — negation
			// already folded into op above). There is no exemption for
			// int-declared columns: TypesCompatible admits floats into them,
			// so NaN data is legal there too.
			b.IncludeNull = b.IncludeNull && neg
			b.IncludeNaN = b.IncludeNaN && incl
		}
	}
	walk(pred, false)
	// A poisoned column poisons the whole predicate, not just its own
	// plans: the scan path raises its comparison error on every tuple the
	// bad conjunct reaches, and a probe planned on a *different* column
	// whose interval holds no candidates would never run the re-verifier
	// that surfaces it — the query would silently succeed empty.
	for _, pl := range byCol {
		if pl.bad {
			return nil
		}
	}
	plans := make([]rangePlan, 0, len(byCol))
	for _, pl := range byCol {
		if pl.bound.Lo == nil && pl.bound.Hi == nil {
			continue
		}
		plans = append(plans, *pl)
	}
	for i := 1; i < len(plans); i++ { // insertion sort by column
		for j := i; j > 0 && plans[j-1].col > plans[j].col; j-- {
			plans[j-1], plans[j] = plans[j], plans[j-1]
		}
	}
	return plans
}

// ProbeSafe reports whether evaluating the bound predicate is statically
// guaranteed not to raise an error on any tuple. A probe — hash or range —
// evaluates the predicate only on the candidates its keys or intervals
// admit, while the scan path evaluates it on every tuple; a predicate that
// can error (an incomparable ordering pair like "name < 3" over a string
// column or "name < id", or a division that may hit zero) must therefore
// keep the scan path, or index presence would silently turn the statement's
// error into an empty result. Equality operators never error (Equal accepts
// any kinds), null operands short-circuit to false before Compare runs, and
// Bind has already fixed every operand's static kind, so the check is a
// rank comparison per ordering node plus a division scan.
func ProbeSafe(pred Scalar) bool {
	if pred == nil {
		return true
	}
	switch x := pred.(type) {
	case *Const, *Attr:
		return true
	case *Arith:
		// Division is the one arithmetic that errors at evaluation
		// (operand kinds are Bind-checked, null propagates null).
		return x.Op != value.OpDiv && ProbeSafe(x.L) && ProbeSafe(x.R)
	case *And:
		return ProbeSafe(x.L) && ProbeSafe(x.R)
	case *Or:
		return ProbeSafe(x.L) && ProbeSafe(x.R)
	case *Not:
		return ProbeSafe(x.X)
	case *Cmp:
		if !ProbeSafe(x.L) || !ProbeSafe(x.R) {
			return false
		}
		if x.Op == CmpEQ || x.Op == CmpNE {
			return true
		}
		lr, lok, lnull := staticRank(x.L)
		rr, rok, rnull := staticRank(x.R)
		if lnull || rnull {
			return true // ordering against null evaluates to false, not error
		}
		return lok && rok && lr == rr
	default:
		return false // unknown scalar shapes: assume they may error
	}
}

// staticRank resolves the ordered-rank band of a scalar's statically known
// result kind. isNull marks a literal null (comparable to anything: Cmp
// short-circuits it to false). ok is false when the kind cannot be pinned
// down — the caller must then assume the comparison may error.
func staticRank(p Scalar) (rank byte, ok, isNull bool) {
	switch x := p.(type) {
	case *Const:
		if x.V.IsNull() {
			return 0, true, true
		}
		return value.OrderedRank(x.V.Kind()), true, false
	case *Attr:
		if x.kind == value.KindNull {
			return 0, false, false
		}
		// Column values are of the declared kind or null; null
		// short-circuits, so the declared rank is authoritative.
		return value.OrderedRank(x.kind), true, false
	case *Arith:
		return value.OrderedRankNumber, true, false // Bind enforces numeric operands
	case *Cmp, *And, *Or, *Not:
		return value.OrderedRank(value.KindBool), true, false
	default:
		return 0, false, false
	}
}

// flipCmp mirrors a comparison across its operands: C op attr ≡ attr
// flipCmp(op) C. Equality operators are symmetric.
func flipCmp(op CmpOp) CmpOp {
	switch op {
	case CmpLT:
		return CmpGT
	case CmpLE:
		return CmpGE
	case CmpGT:
		return CmpLT
	case CmpGE:
		return CmpLE
	default:
		return op
	}
}

// tightenBound intersects the endpoint (cur, curIncl) with a new constant v:
// for a lower bound the greater constant wins, for an upper bound the
// smaller; equal constants keep the stricter (exclusive) form. Incomparable
// constants mark the plan bad.
func tightenBound(cur *value.Value, curIncl bool, v value.Value, incl, lower bool, pl *rangePlan) (*value.Value, bool) {
	if cur == nil {
		return &v, incl
	}
	c, err := cur.Compare(v)
	if err != nil {
		pl.bad = true
		return cur, curIncl
	}
	switch {
	case c == 0:
		return cur, curIncl && incl
	case (lower && c < 0) || (!lower && c > 0):
		return &v, incl
	default:
		return cur, curIncl
	}
}

// probePlan is one planned index access: the index columns, the length of
// their equality-bound prefix, the bound on the column after it (nil for
// none), and the size of the probed incarnation.
type probePlan struct {
	pe     ProbeEnv
	name   string
	aux    AuxKind
	idx    []int
	prefix int
	bound  *RangeBound
	size   int
}

// planProbe is the access-path step shared by Select.Eval, Update.Exec and
// Join.probeDriven: it asks the environment for the index serving the
// equalities on eqCols and a bound from plans, trying each plan's column in
// column order (one ask with no bound when there are none), and keeps the
// longest equality prefix, preferring a bounded one among equals. ok=false
// — the environment has no indexes or none serves — falls back to the scan
// path.
func planProbe(env Env, name string, aux AuxKind, eqCols []int, plans []rangePlan) (p probePlan, ok bool) {
	pe, isProbe := env.(ProbeEnv)
	if !isProbe || (len(eqCols) == 0 && len(plans) == 0) {
		return p, false
	}
	try := func(boundCol int, b *RangeBound) {
		idx, prefix, size, found := pe.IndexFor(name, aux, eqCols, boundCol)
		if !found {
			return
		}
		if prefix == len(idx) || idx[prefix] != boundCol {
			b = nil
		}
		if !ok || prefix > p.prefix || (prefix == p.prefix && b != nil && p.bound == nil) {
			p, ok = probePlan{pe: pe, name: name, aux: aux, idx: idx, prefix: prefix, bound: b, size: size}, true
		}
	}
	if len(plans) == 0 {
		try(-1, nil)
	}
	for i := range plans {
		try(plans[i].col, &plans[i].bound)
	}
	return p, ok
}

// candidates probes the planned index once, with the equality value
// valOf(c) for each prefix column c. The candidates are a superset of the
// matching tuples: the caller re-verifies them with its full predicate.
func (p *probePlan) candidates(vals []value.Value, valOf func(col int) value.Value) ([]relation.Tuple, error) {
	for i, c := range p.idx[:p.prefix] {
		vals[i] = valOf(c)
	}
	return p.pe.Probe(p.name, p.aux, p.idx, vals[:p.prefix], p.bound)
}

// constCandidates is the candidate step of a selection or an update over a
// base relation, whose probe values are the constants of its equality
// conjuncts (parallel eqCols and eqVals). probed=false falls back to the
// scan path.
func constCandidates(env Env, name string, aux AuxKind, eqCols []int, eqVals []value.Value, plans []rangePlan) ([]relation.Tuple, bool, error) {
	p, ok := planProbe(env, name, aux, eqCols, plans)
	if !ok {
		return nil, false, nil
	}
	out, err := p.candidates(make([]value.Value, p.prefix), func(c int) value.Value {
		return eqVals[slices.Index(eqCols, c)]
	})
	return out, err == nil, err
}

// filterCandidates re-verifies probed candidates with the full selection
// predicate: a probe yields a superset of the matching tuples.
func (s *Select) filterCandidates(candidates []relation.Tuple) (*relation.Relation, error) {
	out := relation.New(s.out)
	for _, t := range candidates {
		keep, err := evalBool(s.Pred, t)
		if err != nil {
			return nil, err
		}
		if keep {
			out.InsertUnchecked(t)
		}
	}
	return out, nil
}

// RangeCompareColumns reports the columns of schema s that pred compares
// against constants with an ordering operator (including under negation),
// deduplicated and ascending. The predicate is cloned and re-bound, so
// unbound (or differently bound) scalars are accepted. It is how the
// translator derives which attributes a comparison-guarded constraint's
// enforcement selections would range-probe, feeding range index hints.
func RangeCompareColumns(pred Scalar, s *schema.Relation) ([]int, error) {
	if pred == nil {
		return nil, nil
	}
	p := CloneScalar(pred)
	if _, err := p.Bind(s); err != nil {
		return nil, err
	}
	var cols []int
	for _, pl := range extractConstBounds(p) {
		cols = append(cols, pl.col)
	}
	return cols, nil
}
