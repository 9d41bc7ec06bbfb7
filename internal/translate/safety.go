// Static safety analysis — the transaction-modification counterpart of the
// weakest-precondition simplification literature the paper cites: given a
// translated constraint part, its Δ terms and the statements of a
// transaction program, decide at modify time which of the part's
// enforcement checks the transaction can possibly make fire. A check proven
// unreachable is elided entirely: no alarm statement is appended, so the
// transaction records no reads for it, issues no probes, and exposes no
// conflict surface.
//
// Soundness contract: every verdict assumes exactly what the Δ rewrite in
// package optimize already assumes — that the committed base state
// satisfies the constraint (which holds inductively when rules are defined
// before data is loaded). Under that invariant, an elided check is one that
// provably evaluates to "no violation" given the statement shapes, so
// removing it cannot change the transaction's outcome. Anything the
// analysis cannot prove keeps the check.
package translate

import (
	"repro/internal/algebra"
	"repro/internal/schema"
	"repro/internal/value"
)

// MaxTerms is the number of Δ terms a Need can select among.
const MaxTerms = 64

// Need states which enforcement checks of one constraint part a transaction
// shape requires. The zero value means "safe": no check at all.
type Need struct {
	// Terms has bit i set when the check of the part's Δ term i must run.
	Terms uint64
	// Full is the full-state check, used by parts without a Δ form
	// (existential, aggregate, mixed, transition).
	Full bool
}

// Safe reports that no check is needed.
func (n Need) Safe() bool { return n.Terms == 0 && !n.Full }

// Term reports whether the check of Δ term i must run.
func (n Need) Term(i int) bool { return n.Terms&(1<<uint(i)) != 0 }

// Union merges two needs.
func (n Need) Union(m Need) Need {
	return Need{Terms: n.Terms | m.Terms, Full: n.Full || m.Full}
}

// ConservativeNeed is the worst-case need of a part with the given Δ terms:
// every term, or the full check when there are none. It is what an
// unanalyzed transaction requires.
func ConservativeNeed(terms []algebra.DeltaTerm) Need {
	if len(terms) == 0 {
		return Need{Full: true}
	}
	return Need{Terms: ^uint64(0) >> uint(MaxTerms-len(terms))}
}

// AnalyzeSafety computes the union of per-statement needs for one part with
// the given Δ terms (nil when the part has no Δ form) over a transaction
// program's statements. Statements must be plain algebra statements
// (callers unwrap any tagging decorators first).
func AnalyzeSafety(p *Part, terms []algebra.DeltaTerm, db *schema.Database, stmts []algebra.Stmt) Need {
	worst := ConservativeNeed(terms)
	var need Need
	for _, st := range stmts {
		need = need.Union(stmtNeed(p, terms, db, st))
		if need == worst {
			return need
		}
	}
	return need
}

// stmtNeed scores one statement against one part.
func stmtNeed(p *Part, terms []algebra.DeltaTerm, db *schema.Database, st algebra.Stmt) Need {
	switch st.(type) {
	case *algebra.Assign, *algebra.Alarm, *algebra.Abort:
		return Need{} // no base-relation writes, no triggers
	}
	if len(terms) == 0 {
		if p.Class == ClassExistential && p.Rel.Aux == algebra.AuxCur && !p.HasAggs {
			return existentialNeed(p, db, st)
		}
		return touchNeed(p, st)
	}
	var need Need
	for i := range terms {
		if termNeeded(p, &terms[i], db, st) {
			need.Terms |= 1 << uint(i)
		}
	}
	return need
}

// termNeeded reports whether a statement can make Δ term t of part p
// non-empty. The default verdict is syntactic on the term's delta leaf:
// ins(R) gains rows only from an insert into or an update of R, del(S) only
// from a delete from or an update of S. Proofs over the part's guards,
// condition and join predicate refine it; they can only elide:
//
//   - literal inserted rows that satisfy guard ⇒ cond (a per-tuple
//     condition), or that fail the leaf's guard, never reach the term;
//   - literal deleted rows that fail the leaf's guard remove no match;
//   - an update whose set clauses preserve guard ⇒ cond (the monotone-move
//     proofs), or write none of the leaf's guard and join columns, leaves
//     the term empty.
func termNeeded(p *Part, t *algebra.DeltaTerm, db *schema.Database, st algebra.Stmt) bool {
	guard, sided := leafGuard(p, t.Leaf)
	switch x := st.(type) {
	case *algebra.Insert:
		if x.Rel != t.Rel || t.Aux != algebra.AuxIns {
			return false
		}
		if !sided {
			return true
		}
		if p.Cond != nil {
			return !litRowsSatisfy(x.Src, guard, p.Cond)
		}
		return !litRowsFail(x.Src, guard)
	case *algebra.Delete:
		if x.Rel != t.Rel || t.Aux != algebra.AuxDel {
			return false
		}
		return !sided || !litRowsFail(x.Src, guard)
	case *algebra.Update:
		if x.Rel != t.Rel {
			return false
		}
		return !sided || !updatePreserves(p, t.Leaf, guard, db, x)
	default:
		return true
	}
}

// leafGuard returns the guard that restricts leaf i of a part's check: the
// constrained relation's guard for leaf 0, the other relation's for leaf 1
// of a two-relation part. ok is false for any other leaf, which no
// refinement covers.
func leafGuard(p *Part, leaf int) (guard algebra.Scalar, ok bool) {
	switch {
	case leaf == 0:
		return p.Guard, true
	case leaf == 1 && p.Other.Name != "":
		return p.OtherGuard, true
	default:
		return nil, false
	}
}

// updatePreserves proves that an update of the relation of leaf i, whose
// guard is given, cannot make a term over that leaf non-empty: for a part
// with a per-tuple condition, its set clauses preserve guard ⇒ cond;
// otherwise they write none of the leaf's guard and join columns.
func updatePreserves(p *Part, leaf int, guard algebra.Scalar, db *schema.Database, u *algebra.Update) bool {
	sch, ok := db.Relation(u.Rel)
	if !ok {
		return false
	}
	if p.Cond != nil {
		return setsPreserve(u, sch, guard, p.Cond)
	}
	leftSch, ok := db.Relation(p.Rel.Name)
	if !ok {
		return false
	}
	join, joinRight, ok := splitJoinCols(p.JoinPred, leftSch.Arity())
	if !ok {
		return false
	}
	if leaf == 1 {
		join = joinRight
	}
	return setsAvoid(u, sch, colsUnion(scalarColSet(guard), join))
}

// touchNeed is relation-footprint disjointness, the coarsest sound test:
// the part needs its full check iff the statement writes a relation the
// part's check program reads.
func touchNeed(p *Part, st algebra.Stmt) Need {
	target, ok := algebra.Written(st)
	if !ok {
		return Need{Full: true}
	}
	if target == "" {
		return Need{}
	}
	reads := make(map[string]bool)
	for _, s := range p.Program {
		if !algebra.ReadRels(s, reads) {
			return Need{Full: true}
		}
	}
	if reads[target] {
		return Need{Full: true}
	}
	return Need{}
}

// existentialNeed: (∃x)(x∈R ∧ c(x)). Inserts only add witnesses; deletes of
// literal rows that provably fail c remove no witness; updates that preserve
// c per tuple keep at least one witness alive.
func existentialNeed(p *Part, db *schema.Database, st algebra.Stmt) Need {
	switch x := st.(type) {
	case *algebra.Insert:
		return Need{}
	case *algebra.Delete:
		if x.Rel != p.Rel.Name {
			return Need{}
		}
		if p.Cond != nil && litRowsFail(x.Src, p.Cond) {
			return Need{}
		}
		return Need{Full: true}
	case *algebra.Update:
		if x.Rel != p.Rel.Name {
			return Need{}
		}
		if sch, ok := db.Relation(p.Rel.Name); ok && setsPreserve(x, sch, nil, p.Cond) {
			return Need{}
		}
		return Need{Full: true}
	default:
		return Need{Full: true}
	}
}

// ---- statement shape helpers ----

// litRowsSatisfy reports whether src is a literal relation all of whose rows
// provably satisfy guard ⇒ cond (nil scalars mean true).
func litRowsSatisfy(src algebra.Expr, guard, cond algebra.Scalar) bool {
	lit, ok := src.(*algebra.Lit)
	if !ok {
		return false
	}
	for _, row := range lit.Rows {
		g, ok := evalPred(guard, row)
		if !ok {
			return false
		}
		if !g {
			continue
		}
		c, ok := evalPred(cond, row)
		if !ok || !c {
			return false
		}
	}
	return true
}

// litRowsFail reports whether src is a literal relation all of whose rows
// provably fail pred — i.e. none of them enters the guarded input. A nil
// pred means true, which no row fails.
func litRowsFail(src algebra.Expr, pred algebra.Scalar) bool {
	if pred == nil {
		return false
	}
	lit, ok := src.(*algebra.Lit)
	if !ok {
		return false
	}
	for _, row := range lit.Rows {
		p, ok := evalPred(pred, row)
		if !ok || p {
			return false
		}
	}
	return true
}

// evalPred evaluates a predicate scalar over one tuple with the engine's
// two-valued semantics (null counts as false); ok=false when evaluation
// errors or yields a non-boolean, which callers treat as "cannot prove".
func evalPred(s algebra.Scalar, row []value.Value) (res, ok bool) {
	if s == nil {
		return true, true
	}
	v, err := s.Eval(row)
	if err != nil {
		return false, false
	}
	if v.IsNull() {
		return false, true
	}
	if v.Kind() != value.KindBool {
		return false, false
	}
	return v.AsBool(), true
}

// scalarColSet returns the attribute positions a scalar reads, or nil when
// the scalar contains unresolvable or unknown nodes (callers must then be
// conservative). A nil scalar reads nothing.
func scalarColSet(s algebra.Scalar) map[int]bool {
	out := make(map[int]bool)
	if !scalarCols(s, nil, out) {
		return nil
	}
	return out
}

// scalarCols walks a scalar collecting attribute positions; attribute
// references that are not yet bound are resolved by name against sch when
// provided. Returns false on unknown nodes or unresolvable attributes.
func scalarCols(s algebra.Scalar, sch *schema.Relation, out map[int]bool) bool {
	switch x := s.(type) {
	case nil:
		return true
	case *algebra.Const:
		return true
	case *algebra.Attr:
		if x.Index >= 0 {
			out[x.Index] = true
			return true
		}
		if sch != nil && x.Name != "" {
			if i := sch.AttrIndex(x.Name); i >= 0 {
				out[i] = true
				return true
			}
		}
		return false
	case *algebra.Arith:
		return scalarCols(x.L, sch, out) && scalarCols(x.R, sch, out)
	case *algebra.Cmp:
		return scalarCols(x.L, sch, out) && scalarCols(x.R, sch, out)
	case *algebra.And:
		return scalarCols(x.L, sch, out) && scalarCols(x.R, sch, out)
	case *algebra.Or:
		return scalarCols(x.L, sch, out) && scalarCols(x.R, sch, out)
	case *algebra.Not:
		return scalarCols(x.X, sch, out)
	default:
		return false
	}
}

// splitJoinCols partitions the columns a join predicate reads into left-side
// and right-side positions (right positions shifted back to the right
// schema's own coordinates).
func splitJoinCols(pred algebra.Scalar, leftArity int) (left, right map[int]bool, ok bool) {
	abs := make(map[int]bool)
	if !scalarCols(pred, nil, abs) {
		return nil, nil, false
	}
	left, right = make(map[int]bool), make(map[int]bool)
	for c := range abs {
		if c < leftArity {
			left[c] = true
		} else {
			right[c-leftArity] = true
		}
	}
	return left, right, true
}

func colsUnion(a, b map[int]bool) map[int]bool {
	if a == nil || b == nil {
		return nil // either side unresolvable: poison the union
	}
	out := make(map[int]bool, len(a)+len(b))
	for c := range a {
		out[c] = true
	}
	for c := range b {
		out[c] = true
	}
	return out
}

// setsAvoid reports whether an update's set clauses provably write none of
// the given columns. cols == nil means "unknown set": always false.
func setsAvoid(u *algebra.Update, sch *schema.Relation, cols map[int]bool) bool {
	if cols == nil {
		return false
	}
	for i := range u.Sets {
		col := sch.AttrIndex(u.Sets[i].Attr)
		if col < 0 || cols[col] {
			return false
		}
	}
	return true
}

// setsPreserve proves that applying the update's set clauses to any tuple
// satisfying guard ⇒ cond yields a tuple that still satisfies guard ⇒ cond:
//
//   - a clause writing a column outside guard and cond changes neither;
//   - writing a guard column is never allowed (a tuple could enter the
//     guard with an unchecked condition);
//   - the identity clause (attr = attr) is trivially safe;
//   - a constant clause is safe when cond reads only that column and the
//     constant satisfies it;
//   - for a single-comparison threshold cond (attr op const), an additive
//     clause attr = attr ± k is safe when it moves values away from (or
//     along) the bound — the monotone-direction analysis. Integer overflow
//     cannot fake this: value.Arith rejects wrapping arithmetic, so an
//     overflowing update aborts the transaction before any check matters.
//
// Each target column may be written at most once; duplicate writes bail out.
func setsPreserve(u *algebra.Update, sch *schema.Relation, guard, cond algebra.Scalar) bool {
	gcols := make(map[int]bool)
	if !scalarCols(guard, nil, gcols) {
		return false
	}
	ccols := make(map[int]bool)
	if !scalarCols(cond, nil, ccols) {
		return false
	}
	th, thOK := condThreshold(cond)
	written := make(map[int]bool)
	for i := range u.Sets {
		sc := &u.Sets[i]
		col := sch.AttrIndex(sc.Attr)
		if col < 0 || written[col] {
			return false
		}
		written[col] = true
		if gcols[col] {
			return false
		}
		if !ccols[col] {
			continue
		}
		if isAttrCol(sc.Expr, sch, col) {
			continue // identity
		}
		if k, isConst := constValue(sc.Expr); isConst && len(ccols) == 1 {
			if condSatisfiedAt(cond, col, k) {
				continue
			}
			return false
		}
		if thOK && th.col == col && monotoneSafe(sc.Expr, sch, col, th.op) {
			continue
		}
		return false
	}
	return true
}

// threshold is a single-comparison condition "attr op bound" (attr
// normalized to the left).
type threshold struct {
	col   int
	op    algebra.CmpOp
	bound value.Value
}

// Threshold recognizes cond as a single comparison between one attribute
// and one constant, normalized to "attr op bound". The repair compiler uses
// it to derive clamp values; the analyzer uses it for monotone-direction
// proofs.
func Threshold(cond algebra.Scalar) (col int, op algebra.CmpOp, bound value.Value, ok bool) {
	th, ok := condThreshold(cond)
	return th.col, th.op, th.bound, ok
}

// condThreshold recognizes cond as a single comparison between one attribute
// and one constant.
func condThreshold(cond algebra.Scalar) (threshold, bool) {
	c, ok := cond.(*algebra.Cmp)
	if !ok {
		return threshold{}, false
	}
	if a, ok := c.L.(*algebra.Attr); ok && a.Index >= 0 {
		if k, ok := constValue(c.R); ok {
			return threshold{col: a.Index, op: c.Op, bound: k}, true
		}
	}
	if a, ok := c.R.(*algebra.Attr); ok && a.Index >= 0 {
		if k, ok := constValue(c.L); ok {
			return threshold{col: a.Index, op: flipCmp(c.Op), bound: k}, true
		}
	}
	return threshold{}, false
}

// flipCmp mirrors a comparison across its operands: const op attr becomes
// attr flip(op) const.
func flipCmp(op algebra.CmpOp) algebra.CmpOp {
	switch op {
	case algebra.CmpLT:
		return algebra.CmpGT
	case algebra.CmpLE:
		return algebra.CmpGE
	case algebra.CmpGT:
		return algebra.CmpLT
	case algebra.CmpGE:
		return algebra.CmpLE
	default:
		return op // EQ and NE are symmetric
	}
}

// condSatisfiedAt evaluates a single-column condition with the column set to
// k (all other positions null, which the condition provably does not read).
func condSatisfiedAt(cond algebra.Scalar, col int, k value.Value) bool {
	row := make([]value.Value, col+1)
	for i := range row {
		row[i] = value.Null()
	}
	row[col] = k
	res, ok := evalPred(cond, row)
	return ok && res
}

// monotoneSafe recognizes "attr = attr + k" / "attr = attr - k" clauses
// whose step direction cannot move a value across the threshold bound:
// non-negative steps preserve >= and >, non-positive steps preserve <= and <.
// IEEE float addition is monotone for finite steps, and integer arithmetic
// errors out on overflow, so a committed update really did move the value in
// the claimed direction.
func monotoneSafe(e algebra.Scalar, sch *schema.Relation, col int, op algebra.CmpOp) bool {
	ar, ok := e.(*algebra.Arith)
	if !ok {
		return false
	}
	var k value.Value
	var stepNonNeg, stepNonPos bool
	switch ar.Op {
	case value.OpAdd:
		switch {
		case isAttrCol(ar.L, sch, col):
			k, ok = constValue(ar.R)
		case isAttrCol(ar.R, sch, col):
			k, ok = constValue(ar.L)
		default:
			return false
		}
		f, fok := numericFloat(k)
		if !ok || !fok {
			return false
		}
		stepNonNeg, stepNonPos = f >= 0, f <= 0
	case value.OpSub:
		if !isAttrCol(ar.L, sch, col) {
			return false
		}
		k, ok = constValue(ar.R)
		f, fok := numericFloat(k)
		if !ok || !fok {
			return false
		}
		stepNonNeg, stepNonPos = f <= 0, f >= 0
	default:
		return false
	}
	switch op {
	case algebra.CmpGE, algebra.CmpGT:
		return stepNonNeg
	case algebra.CmpLE, algebra.CmpLT:
		return stepNonPos
	default:
		return false
	}
}

// numericFloat returns the float image of a numeric value; ok=false for
// null and non-numeric kinds (the analyzer may see ill-typed expressions
// that typechecking has not rejected yet).
func numericFloat(v value.Value) (float64, bool) {
	switch v.Kind() {
	case value.KindInt, value.KindFloat:
		return v.AsFloat(), true
	default:
		return 0, false
	}
}

// isAttrCol reports whether e is a reference to exactly the given column.
func isAttrCol(e algebra.Scalar, sch *schema.Relation, col int) bool {
	a, ok := e.(*algebra.Attr)
	if !ok {
		return false
	}
	if a.Index >= 0 {
		return a.Index == col
	}
	if sch != nil && a.Name != "" {
		return sch.AttrIndex(a.Name) == col
	}
	return false
}

// constValue unwraps a constant scalar of numeric or any other kind.
func constValue(e algebra.Scalar) (value.Value, bool) {
	c, ok := e.(*algebra.Const)
	if !ok {
		return value.Value{}, false
	}
	return c.V, true
}
