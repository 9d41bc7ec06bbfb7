// Repair actions — the Active Integrity Constraints extension: a constraint
// may declare how to restore consistency instead of (only) alarming. The
// enforcement program then becomes repair ⊕ checks: the compiled repair
// statements are appended to the transaction first, the usual checks after
// them, so the checks verify the post-repair state and still abort when the
// repair was insufficient. The optimistic validator commits or retries the
// repaired transaction as one unit, which gives repair atomicity for free.
//
// A repair program is compiled from the constraint's single translated part
// and is a no-op on consistent states (the paper's TransCA requirement):
// cascade delete removes exactly the violating tuples, default fill inserts
// exactly the missing referenced tuples, clamp rewrites exactly the
// out-of-bound attribute values.
package rules

import (
	"fmt"
	"math"

	"repro/internal/algebra"
	"repro/internal/schema"
	"repro/internal/translate"
	"repro/internal/value"
)

// RepairKind selects a declarative repair strategy.
type RepairKind int

const (
	// RepairNone aborts on violation (the default).
	RepairNone RepairKind = iota
	// RepairCascadeDelete deletes the violating tuples: out-of-domain
	// tuples for domain constraints, dangling referents for referential
	// constraints (the classic ON DELETE CASCADE).
	RepairCascadeDelete
	// RepairDefaultFill inserts the missing referenced tuple for a
	// referential constraint, carrying the join columns over and filling
	// the rest with nulls.
	RepairDefaultFill
	// RepairClamp rewrites a threshold-violating attribute to the nearest
	// legal value for a domain constraint with a comparison condition.
	RepairClamp
)

func (k RepairKind) String() string {
	switch k {
	case RepairNone:
		return "none"
	case RepairCascadeDelete:
		return "cascade delete"
	case RepairDefaultFill:
		return "default fill"
	case RepairClamp:
		return "clamp"
	default:
		return fmt.Sprintf("RepairKind(%d)", int(k))
	}
}

// Repair is a compiled repair action.
type Repair struct {
	Kind RepairKind
	// Program restores consistency for the rule's constraint; it is a
	// no-op when the constraint already holds.
	Program algebra.Program
}

// compileRepair builds the repair program for a rule from its translated
// parts. Repairs are restricted to single-part constraints — a repair for
// one conjunct could invalidate another, and proving convergence across
// parts is out of scope.
func compileRepair(kind RepairKind, ruleName string, parts []*translate.Part, db *schema.Database) (*Repair, error) {
	if len(parts) != 1 {
		return nil, fmt.Errorf("rules: rule %s: repair requires a single-conjunct constraint (got %d parts)", ruleName, len(parts))
	}
	p := parts[0]
	if p.Rel.Aux != algebra.AuxCur || (p.Other.Name != "" && p.Other.Aux != algebra.AuxCur) {
		return nil, fmt.Errorf("rules: rule %s: repair cannot target transition (old-state) constraints", ruleName)
	}
	var prog algebra.Program
	var err error
	switch kind {
	case RepairCascadeDelete:
		prog, err = compileCascadeDelete(p, ruleName)
	case RepairDefaultFill:
		prog, err = compileDefaultFill(p, ruleName, db)
	case RepairClamp:
		prog, err = compileClamp(p, ruleName, db)
	default:
		return nil, fmt.Errorf("rules: rule %s: unknown repair kind %v", ruleName, kind)
	}
	if err != nil {
		return nil, err
	}
	if err := prog.TypeCheck(algebra.NewTypeEnv(db)); err != nil {
		return nil, fmt.Errorf("rules: rule %s: repair program: %w", ruleName, err)
	}
	return &Repair{Kind: kind, Program: prog}, nil
}

// compileCascadeDelete emits
//
//	domain:      delete(R, σ_{γ∧¬c}(R))
//	referential: delete(R, antijoin(σ_γ(R), σ_δ(S), ψ))
func compileCascadeDelete(p *translate.Part, ruleName string) (algebra.Program, error) {
	switch p.Class {
	case translate.ClassDomain:
		pred := violationPred(p.Guard, p.Cond)
		if pred == nil {
			return nil, fmt.Errorf("rules: rule %s: cascade delete needs a per-tuple condition", ruleName)
		}
		src := algebra.NewSelect(algebra.NewRel(p.Rel.Name), pred)
		return algebra.Program{&algebra.Delete{Rel: p.Rel.Name, Src: src}}, nil
	case translate.ClassReferential:
		if p.Rel.Name == p.Other.Name {
			// Deleting dangling referents of a self-referential constraint
			// can create new dangling referents: the single delete is not a
			// complete repair, so the post-repair check would abort anyway.
			return nil, fmt.Errorf("rules: rule %s: cascade delete on a self-referential constraint does not converge", ruleName)
		}
		left := guardedRel(p.Rel.Name, p.Guard)
		right := guardedRel(p.Other.Name, p.OtherGuard)
		src := algebra.NewAntiJoin(left, right, algebra.CloneScalar(p.JoinPred))
		return algebra.Program{&algebra.Delete{Rel: p.Rel.Name, Src: src}}, nil
	default:
		return nil, fmt.Errorf("rules: rule %s: cascade delete supports domain and referential constraints (class %v)", ruleName, p.Class)
	}
}

// compileDefaultFill emits, for a referential part with an equi-join ψ and
// no right-side guard,
//
//	insert(S, project(antijoin(σ_γ(R), S, ψ), fill-row))
//
// where the fill row carries each equality-bound S column over from the
// violating R tuple and fills every other S column with null.
func compileDefaultFill(p *translate.Part, ruleName string, db *schema.Database) (algebra.Program, error) {
	if p.Class != translate.ClassReferential {
		return nil, fmt.Errorf("rules: rule %s: default fill supports referential constraints (class %v)", ruleName, p.Class)
	}
	if p.Rel.Name == p.Other.Name {
		return nil, fmt.Errorf("rules: rule %s: default fill on a self-referential constraint does not converge", ruleName)
	}
	if p.OtherGuard != nil {
		return nil, fmt.Errorf("rules: rule %s: default fill requires an unguarded referenced side (a filled tuple cannot be proven to satisfy the guard)", ruleName)
	}
	leftSch, lok := db.Relation(p.Rel.Name)
	rightSch, rok := db.Relation(p.Other.Name)
	if !lok || !rok {
		return nil, fmt.Errorf("rules: rule %s: unknown relation in constraint", ruleName)
	}
	bind, err := equiJoinBindings(p.JoinPred, leftSch.Arity(), rightSch.Arity())
	if err != nil {
		return nil, fmt.Errorf("rules: rule %s: default fill: %w", ruleName, err)
	}
	if len(bind) == 0 {
		return nil, fmt.Errorf("rules: rule %s: default fill requires at least one equality join column", ruleName)
	}
	// The violating R tuples: σ_γ(R) with no ψ-match in S.
	missing := algebra.NewAntiJoin(guardedRel(p.Rel.Name, p.Guard), algebra.NewRel(p.Other.Name), algebra.CloneScalar(p.JoinPred))
	cols := make([]algebra.Scalar, rightSch.Arity())
	names := make([]string, rightSch.Arity())
	for j := 0; j < rightSch.Arity(); j++ {
		names[j] = rightSch.Attrs[j].Name
		if l, ok := bind[j]; ok {
			cols[j] = algebra.AttrByIndex(l)
		} else {
			cols[j] = &algebra.Const{V: value.Null()}
		}
	}
	src := algebra.NewProject(missing, cols, names)
	return algebra.Program{&algebra.Insert{Rel: p.Other.Name, Src: src}}, nil
}

// compileClamp emits, for a domain part whose condition is a single
// threshold comparison "attr op bound",
//
//	update(R, γ∧¬c, attr = clamp)
//
// where clamp is the nearest value satisfying the comparison: the bound for
// ≥/≤/=, bound±1 for the strict integer comparisons.
func compileClamp(p *translate.Part, ruleName string, db *schema.Database) (algebra.Program, error) {
	if p.Class != translate.ClassDomain {
		return nil, fmt.Errorf("rules: rule %s: clamp supports domain constraints (class %v)", ruleName, p.Class)
	}
	sch, ok := db.Relation(p.Rel.Name)
	if !ok {
		return nil, fmt.Errorf("rules: rule %s: unknown relation %s", ruleName, p.Rel.Name)
	}
	col, op, bound, ok := translate.Threshold(p.Cond)
	if !ok {
		return nil, fmt.Errorf("rules: rule %s: clamp requires a single attribute-vs-constant comparison condition", ruleName)
	}
	if col < 0 || col >= sch.Arity() {
		return nil, fmt.Errorf("rules: rule %s: clamp column out of range", ruleName)
	}
	if guardCols := guardColumnSet(p.Guard); guardCols == nil || guardCols[col] {
		return nil, fmt.Errorf("rules: rule %s: clamp column may not appear in the constraint guard", ruleName)
	}
	var clamp value.Value
	switch op {
	case algebra.CmpGE, algebra.CmpLE, algebra.CmpEQ:
		clamp = bound
	case algebra.CmpGT:
		if bound.Kind() != value.KindInt || bound.AsInt() == math.MaxInt64 {
			return nil, fmt.Errorf("rules: rule %s: strict clamp bounds must be integers with a representable neighbor", ruleName)
		}
		clamp = value.Int(bound.AsInt() + 1)
	case algebra.CmpLT:
		if bound.Kind() != value.KindInt || bound.AsInt() == math.MinInt64 {
			return nil, fmt.Errorf("rules: rule %s: strict clamp bounds must be integers with a representable neighbor", ruleName)
		}
		clamp = value.Int(bound.AsInt() - 1)
	default:
		return nil, fmt.Errorf("rules: rule %s: clamp cannot repair a %v condition", ruleName, op)
	}
	if clamp.IsNull() {
		return nil, fmt.Errorf("rules: rule %s: clamp bound must be non-null", ruleName)
	}
	where := violationPred(p.Guard, p.Cond)
	if where == nil {
		return nil, fmt.Errorf("rules: rule %s: clamp needs a per-tuple condition", ruleName)
	}
	upd := &algebra.Update{
		Rel:   p.Rel.Name,
		Where: where,
		Sets:  []algebra.SetClause{{Attr: sch.Attrs[col].Name, Expr: &algebra.Const{V: clamp}}},
	}
	return algebra.Program{upd}, nil
}

// violationPred builds γ ∧ ¬c (nil when the part has no condition).
func violationPred(guard, cond algebra.Scalar) algebra.Scalar {
	if cond == nil {
		return nil
	}
	notC := &algebra.Not{X: algebra.CloneScalar(cond)}
	if guard == nil {
		return notC
	}
	return &algebra.And{L: algebra.CloneScalar(guard), R: notC}
}

// guardedRel builds σ_guard(R) (bare R when guard is nil).
func guardedRel(name string, guard algebra.Scalar) algebra.Expr {
	if guard == nil {
		return algebra.NewRel(name)
	}
	return algebra.NewSelect(algebra.NewRel(name), algebra.CloneScalar(guard))
}

// guardColumnSet returns the columns a guard reads; nil when unresolvable.
func guardColumnSet(guard algebra.Scalar) map[int]bool {
	if guard == nil {
		return map[int]bool{}
	}
	cols, ok := scalarColumns(guard)
	if !ok {
		return nil
	}
	return cols
}

// equiJoinBindings requires pred to be a conjunction of equality comparisons
// between one left attribute and one right attribute, and returns the
// right-column → left-column map (right columns in the right schema's own
// coordinates).
func equiJoinBindings(pred algebra.Scalar, leftArity, rightArity int) (map[int]int, error) {
	bind := make(map[int]int)
	var walk func(s algebra.Scalar) error
	walk = func(s algebra.Scalar) error {
		switch x := s.(type) {
		case *algebra.And:
			if err := walk(x.L); err != nil {
				return err
			}
			return walk(x.R)
		case *algebra.Cmp:
			if x.Op != algebra.CmpEQ {
				return fmt.Errorf("join predicate is not a pure equi-join (%s)", x)
			}
			l, lok := boundAttrIndex(x.L)
			r, rok := boundAttrIndex(x.R)
			if !lok || !rok {
				return fmt.Errorf("join predicate compares non-attributes (%s)", x)
			}
			if l > r {
				l, r = r, l
			}
			if l >= leftArity || r < leftArity || r >= leftArity+rightArity {
				return fmt.Errorf("join equality does not span both sides (%s)", x)
			}
			rightCol := r - leftArity
			if prev, dup := bind[rightCol]; dup && prev != l {
				return fmt.Errorf("join binds right column #%d twice", rightCol+1)
			}
			bind[rightCol] = l
			return nil
		default:
			return fmt.Errorf("join predicate is not a pure equi-join")
		}
	}
	if pred == nil {
		return nil, fmt.Errorf("missing join predicate")
	}
	if err := walk(pred); err != nil {
		return nil, err
	}
	return bind, nil
}

// boundAttrIndex unwraps a bound attribute reference.
func boundAttrIndex(s algebra.Scalar) (int, bool) {
	a, ok := s.(*algebra.Attr)
	if !ok || a.Index < 0 {
		return 0, false
	}
	return a.Index, true
}

// scalarColumns collects the bound attribute positions a scalar reads;
// ok=false on unknown nodes or unbound attributes.
func scalarColumns(s algebra.Scalar) (map[int]bool, bool) {
	out := make(map[int]bool)
	var walk func(s algebra.Scalar) bool
	walk = func(s algebra.Scalar) bool {
		switch x := s.(type) {
		case nil:
			return true
		case *algebra.Const:
			return true
		case *algebra.Attr:
			if x.Index < 0 {
				return false
			}
			out[x.Index] = true
			return true
		case *algebra.Arith:
			return walk(x.L) && walk(x.R)
		case *algebra.Cmp:
			return walk(x.L) && walk(x.R)
		case *algebra.And:
			return walk(x.L) && walk(x.R)
		case *algebra.Or:
			return walk(x.L) && walk(x.R)
		case *algebra.Not:
			return walk(x.X)
		default:
			return false
		}
	}
	if !walk(s) {
		return nil, false
	}
	return out, true
}
