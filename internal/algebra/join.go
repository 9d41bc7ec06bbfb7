package algebra

import (
	"fmt"

	"repro/internal/relation"
	"repro/internal/schema"
	"repro/internal/value"
)

// JoinKind distinguishes the three join-shaped operators the translation of
// constraint conditions produces: theta-join, semijoin and antijoin.
type JoinKind uint8

// Join operator kinds.
const (
	JoinInner JoinKind = iota // full theta-join: concatenated matching pairs
	JoinSemi                  // left tuples with at least one match
	JoinAnti                  // left tuples with no match
)

// String returns the operator's textual name.
func (k JoinKind) String() string {
	switch k {
	case JoinInner:
		return "join"
	case JoinSemi:
		return "semijoin"
	case JoinAnti:
		return "antijoin"
	default:
		return fmt.Sprintf("join(%d)", uint8(k))
	}
}

// Join is a theta-join, semijoin or antijoin of two inputs. The predicate is
// evaluated over the concatenation of a left and a right tuple; a nil
// predicate means "always true" (Cartesian product for JoinInner). Equality
// conjuncts between a left and a right attribute are detected at TypeCheck
// time and executed with a hash join; any residual predicate is applied to
// the candidate pairs.
type Join struct {
	base
	Kind JoinKind
	L, R Expr
	Pred Scalar

	lArity    int
	eqL, eqR  []int  // positional equi-join keys detected from Pred
	residual  Scalar // remaining predicate after equi-key extraction
	hashReady bool
	rDelta    bool // R references a transaction-local differential (ins/del)
	lDelta    bool // L references a transaction-local differential (ins/del)
}

// isDeltaRef reports whether an expression is a direct reference to a
// differential incarnation (ins/del) of a base relation — the inputs that
// differential enforcement programs probe and that are usually empty.
func isDeltaRef(e Expr) bool {
	r, ok := e.(*Rel)
	return ok && (r.Aux == AuxIns || r.Aux == AuxDel)
}

// NewJoin builds an inner theta-join.
func NewJoin(l, r Expr, pred Scalar) *Join { return &Join{Kind: JoinInner, L: l, R: r, Pred: pred} }

// NewSemiJoin builds a semijoin (left tuples with a match).
func NewSemiJoin(l, r Expr, pred Scalar) *Join { return &Join{Kind: JoinSemi, L: l, R: r, Pred: pred} }

// NewAntiJoin builds an antijoin (left tuples without a match).
func NewAntiJoin(l, r Expr, pred Scalar) *Join { return &Join{Kind: JoinAnti, L: l, R: r, Pred: pred} }

// TypeCheck implements Expr.
func (j *Join) TypeCheck(env *TypeEnv) (*schema.Relation, error) {
	ls, err := j.L.TypeCheck(env)
	if err != nil {
		return nil, err
	}
	rs, err := j.R.TypeCheck(env)
	if err != nil {
		return nil, err
	}
	j.lArity = ls.Arity()

	concat, err := concatSchema(ls, rs)
	if err != nil {
		return nil, err
	}
	if j.Pred != nil {
		if _, err := j.Pred.Bind(concat); err != nil {
			return nil, err
		}
		j.eqL, j.eqR, j.residual = extractEquiKeys(j.Pred, j.lArity, concat.Arity())
		j.hashReady = len(j.eqL) > 0
	}
	j.lDelta = isDeltaRef(j.L)
	j.rDelta = isDeltaRef(j.R)

	switch j.Kind {
	case JoinInner:
		j.out = concat
	default:
		j.out = ls
	}
	return j.out, nil
}

// concatSchema builds the schema of the concatenated pair, qualifying
// duplicate attribute names with the side's relation name.
func concatSchema(l, r *schema.Relation) (*schema.Relation, error) {
	attrs := make([]schema.Attribute, 0, l.Arity()+r.Arity())
	seen := make(map[string]int)
	add := func(side *schema.Relation, a schema.Attribute) {
		name := a.Name
		if _, dup := seen[name]; dup {
			name = side.Name + "." + name
		}
		for seen[name] > 0 {
			name = "_" + name
		}
		seen[name]++
		seen[a.Name]++
		attrs = append(attrs, schema.Attribute{Name: name, Type: a.Type})
	}
	for _, a := range l.Attrs {
		add(l, a)
	}
	for _, a := range r.Attrs {
		add(r, a)
	}
	return schema.NewRelation("_join", attrs...)
}

// extractEquiKeys walks a conjunction looking for "left attr = right attr"
// comparisons; it returns the positional key columns on each side and the
// conjunction of the remaining predicates (nil if none).
func extractEquiKeys(pred Scalar, lArity, totalArity int) (eqL, eqR []int, residual Scalar) {
	var rest []Scalar
	var walk func(p Scalar)
	walk = func(p Scalar) {
		if a, ok := p.(*And); ok {
			walk(a.L)
			walk(a.R)
			return
		}
		if c, ok := p.(*Cmp); ok && c.Op == CmpEQ {
			la, lok := c.L.(*Attr)
			ra, rok := c.R.(*Attr)
			if lok && rok && la.Index >= 0 && ra.Index >= 0 && la.Index < totalArity && ra.Index < totalArity {
				switch {
				case la.Index < lArity && ra.Index >= lArity:
					eqL = append(eqL, la.Index)
					eqR = append(eqR, ra.Index-lArity)
					return
				case ra.Index < lArity && la.Index >= lArity:
					eqL = append(eqL, ra.Index)
					eqR = append(eqR, la.Index-lArity)
					return
				}
			}
		}
		rest = append(rest, p)
	}
	walk(pred)
	return eqL, eqR, AndAll(rest...)
}

// Probe-versus-scan decision: the non-driving side is probed through its
// index only when the driving side is small outright or small relative to
// the indexed relation; past that, the classic hash join is cheaper than
// per-tuple probing.
const (
	probeMaxDriving = 16
	probeScanRatio  = 4
)

// Eval implements Expr.
//
// An empty input can decide the whole join: with an empty left side every
// kind is empty, and with an empty right side inner and semi joins are
// empty while an antijoin passes the left side through. When one side is a
// transaction-local differential (ins/del) it is therefore evaluated first,
// and if it comes back empty — the common case in differential enforcement
// programs, e.g. semijoin(child, del(parent)) in a transaction that deleted
// no parent — the other side is never evaluated at all. Skipping the
// evaluation keeps the untouched relation out of the transaction's read
// set, which is what lets tuple-granular commit validation ignore
// concurrent writers of it.
//
// When the driving side is small but non-empty and the other side is a
// direct base-relation reference with a secondary index led by equi-join
// columns (ProbeEnv), the other side is never materialized either: it is
// probed once per driving tuple, and only the probed keys enter the read
// set. An antijoin may only probe its right side — its output needs every
// left tuple.
func (j *Join) Eval(env Env) (*relation.Relation, error) {
	out := relation.New(j.out)
	var left, right *relation.Relation
	var err error
	if j.rDelta && !j.lDelta {
		if right, err = j.R.Eval(env); err != nil {
			return nil, err
		}
		if right.IsEmpty() && j.Kind != JoinAnti {
			return out, nil // inner/semi with no right side: nothing matches
		}
		if j.Kind != JoinAnti && !right.IsEmpty() {
			if done, err := j.probeDriven(env, out, right, false); err != nil {
				return nil, err
			} else if done {
				return out, nil
			}
		}
		if left, err = j.L.Eval(env); err != nil {
			return nil, err
		}
	} else {
		if left, err = j.L.Eval(env); err != nil {
			return nil, err
		}
		if left.IsEmpty() {
			return out, nil
		}
		if done, err := j.probeDriven(env, out, left, true); err != nil {
			return nil, err
		} else if done {
			return out, nil
		}
		if right, err = j.R.Eval(env); err != nil {
			return nil, err
		}
	}

	if right.IsEmpty() {
		if j.Kind == JoinAnti {
			// Antijoin with nothing to subtract passes the left side through;
			// sharing its trie avoids an O(left) copy.
			return left.CloneWith(j.out), nil
		}
		return out, nil
	}
	if left.IsEmpty() {
		return out, nil
	}

	// Build the hash table over the smaller side. The classic orientation
	// builds over the right side and streams the left through it, but in
	// differential enforcement programs the left side is usually a tiny
	// ins/del delta joined against a large base relation — building the
	// table over the delta and streaming the base through it (alloc-free per
	// probed tuple) turns an O(right) allocation storm into O(left).
	if j.hashReady && left.Len() < right.Len() {
		return j.scanBuildLeft(out, left, right)
	}

	// matchRight yields the right-side candidates for a left tuple.
	var matchRight func(lt relation.Tuple, visit func(relation.Tuple) error) error
	if j.hashReady {
		index := make(map[string][]relation.Tuple, right.Len())
		if err := right.ForEach(func(rt relation.Tuple) error {
			key := joinKey(rt, j.eqR)
			index[key] = append(index[key], rt)
			return nil
		}); err != nil {
			return nil, err
		}
		// One buffer reused across all probes: index[string(keyBuf)] is the
		// compiler's alloc-free map lookup, so the driving scan performs no
		// per-tuple key allocation.
		var keyBuf []byte
		matchRight = func(lt relation.Tuple, visit func(relation.Tuple) error) error {
			keyBuf = lt.AppendKeyOn(keyBuf[:0], j.eqL)
			for _, rt := range index[string(keyBuf)] {
				if err := visit(rt); err != nil {
					return err
				}
			}
			return nil
		}
	} else {
		matchRight = func(lt relation.Tuple, visit func(relation.Tuple) error) error {
			return right.ForEach(visit)
		}
	}

	pred := j.residual
	if !j.hashReady {
		pred = j.Pred
	}
	err = left.ForEach(func(lt relation.Tuple) error {
		matched := false
		err := matchRight(lt, func(rt relation.Tuple) error {
			if pred != nil {
				pair := lt.Concat(rt)
				ok, err := evalBool(pred, pair)
				if err != nil {
					return err
				}
				if !ok {
					return nil
				}
			}
			matched = true
			if j.Kind == JoinInner {
				out.InsertUnchecked(lt.Concat(rt))
			}
			return nil
		})
		if err != nil {
			return err
		}
		switch j.Kind {
		case JoinSemi:
			if matched {
				out.InsertUnchecked(lt)
			}
		case JoinAnti:
			if !matched {
				out.InsertUnchecked(lt)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// scanBuildLeft answers the hash join with the table built over the left
// side, streaming the (no smaller) right side through it once. The one
// subtlety versus the classic orientation is output bookkeeping: semi and
// anti joins emit left tuples, so each left entry carries a matched flag —
// a semijoin inserts the entry at its first match, an antijoin inserts the
// entries still unmatched after the scan.
func (j *Join) scanBuildLeft(out, left, right *relation.Relation) (*relation.Relation, error) {
	type entry struct {
		t       relation.Tuple
		matched bool
	}
	entries := make([]entry, 0, left.Len())
	table := make(map[string][]int, left.Len())
	if err := left.ForEach(func(lt relation.Tuple) error {
		key := joinKey(lt, j.eqL)
		entries = append(entries, entry{t: lt})
		table[key] = append(table[key], len(entries)-1)
		return nil
	}); err != nil {
		return nil, err
	}
	// One buffer reused across the scan: table[string(keyBuf)] is the
	// compiler's alloc-free map lookup, so the right side is streamed with
	// no per-tuple allocation at all.
	var keyBuf []byte
	if err := right.ForEach(func(rt relation.Tuple) error {
		keyBuf = rt.AppendKeyOn(keyBuf[:0], j.eqR)
		for _, ei := range table[string(keyBuf)] {
			e := &entries[ei]
			if e.matched && j.Kind != JoinInner {
				continue // semi/anti only need the first match per left tuple
			}
			if j.residual != nil {
				ok, err := evalBool(j.residual, e.t.Concat(rt))
				if err != nil {
					return err
				}
				if !ok {
					continue
				}
			}
			e.matched = true
			switch j.Kind {
			case JoinInner:
				out.InsertUnchecked(e.t.Concat(rt))
			case JoinSemi:
				out.InsertUnchecked(e.t)
			}
		}
		return nil
	}); err != nil {
		return nil, err
	}
	if j.Kind == JoinAnti {
		for i := range entries {
			if !entries[i].matched {
				out.InsertUnchecked(entries[i].t)
			}
		}
	}
	return out, nil
}

// probeDriven answers the join by probing the non-driving side's secondary
// index once per driving tuple, instead of materializing it. probeRight
// selects which side is probed: true probes R per left tuple (sound for
// every kind), false probes L per right tuple (sound for inner and semi
// joins, whose output is built from matches alone). It reports done=false —
// falling back to the scan path — when there are no equi-join keys, the
// probed side is not a direct base-relation reference, no index is led by
// equi-join columns (planProbe), or the driving side is too large for
// probing to win.
//
// The index prefix may bind only some of the equi-join columns: the probe
// then yields a candidate superset, and every candidate is re-verified
// against all equi-key pairs and the residual predicate. The point read the
// environment records covers that superset, so validation stays sound.
func (j *Join) probeDriven(env Env, out, driving *relation.Relation, probeRight bool) (bool, error) {
	if !j.hashReady {
		return false, nil
	}
	other := j.R
	probeCols, drivingCols := j.eqR, j.eqL
	if !probeRight {
		other = j.L
		probeCols, drivingCols = j.eqL, j.eqR
	}
	r, ok := other.(*Rel)
	if !ok {
		return false, nil
	}
	p, ok := planProbe(env, r.Name, r.Aux, probeCols, nil)
	if !ok {
		return false, nil
	}
	if dn := driving.Len(); dn > probeMaxDriving && dn*probeScanRatio > p.size {
		return false, nil
	}
	// Pair each index column with the driving-side column it equi-joins
	// against; a column equated to several driving columns keeps the first
	// (all pairs are re-verified per candidate).
	pairOf := make(map[int]int, len(probeCols))
	for i, c := range probeCols {
		if _, dup := pairOf[c]; !dup {
			pairOf[c] = drivingCols[i]
		}
	}
	vals := make([]value.Value, p.prefix)
	err := driving.ForEach(func(dt relation.Tuple) error {
		candidates, err := p.candidates(vals, func(c int) value.Value { return dt[pairOf[c]] })
		if err != nil {
			return err
		}
		matched := false
		for _, ct := range candidates {
			lt, rt := dt, ct
			if !probeRight {
				lt, rt = ct, dt
			}
			ok, err := j.pairMatches(lt, rt)
			if err != nil {
				return err
			}
			if !ok {
				continue
			}
			matched = true
			switch {
			case j.Kind == JoinInner:
				out.InsertUnchecked(lt.Concat(rt))
			case !probeRight:
				// Semijoin probing its left side: the probed candidate is
				// the output tuple (set semantics deduplicate candidates
				// matched by several driving tuples).
				out.InsertUnchecked(ct)
			}
		}
		if probeRight {
			switch j.Kind {
			case JoinSemi:
				if matched {
					out.InsertUnchecked(dt)
				}
			case JoinAnti:
				if !matched {
					out.InsertUnchecked(dt)
				}
			}
		}
		return nil
	})
	if err != nil {
		return false, err
	}
	return true, nil
}

// pairMatches verifies every equi-key pair and the residual predicate over
// one candidate pair. All equi pairs are re-checked because the probing
// index may cover only a subset of them.
func (j *Join) pairMatches(lt, rt relation.Tuple) (bool, error) {
	for i := range j.eqL {
		if !lt[j.eqL[i]].Equal(rt[j.eqR[i]]) {
			return false, nil
		}
	}
	if j.residual == nil {
		return true, nil
	}
	return evalBool(j.residual, lt.Concat(rt))
}

// EquiJoinColumns reports the positional equality-join key columns of a
// join predicate over the concatenation of two relation schemas: eqL are
// positions in l, eqR positions in r. The predicate is cloned and re-bound,
// so unbound (or differently bound) scalars are accepted. It is how the
// translator derives which attributes are worth indexing for a constraint's
// enforcement joins.
func EquiJoinColumns(pred Scalar, l, r *schema.Relation) (eqL, eqR []int, err error) {
	if pred == nil {
		return nil, nil, nil
	}
	concat, err := concatSchema(l, r)
	if err != nil {
		return nil, nil, err
	}
	p := CloneScalar(pred)
	if _, err := p.Bind(concat); err != nil {
		return nil, nil, err
	}
	eqL, eqR, _ = extractEquiKeys(p, l.Arity(), concat.Arity())
	return eqL, eqR, nil
}

// joinKey encodes the selected columns of a tuple as a hash key, sharing
// relation.Tuple.KeyOn so hash joins and index probes can never disagree on
// key identity.
func joinKey(t relation.Tuple, cols []int) string {
	return t.KeyOn(cols)
}

func (j *Join) String() string {
	if j.Pred == nil {
		return fmt.Sprintf("%s(%s, %s)", j.Kind, j.L, j.R)
	}
	return fmt.Sprintf("%s(%s, %s, %s)", j.Kind, j.L, j.R, j.Pred)
}

// SetOp enumerates the binary set operators.
type SetOp uint8

// Set operators.
const (
	SetUnion SetOp = iota
	SetDiff
	SetIntersect
)

// String returns the operator's textual name.
func (op SetOp) String() string {
	switch op {
	case SetUnion:
		return "union"
	case SetDiff:
		return "diff"
	case SetIntersect:
		return "intersect"
	default:
		return fmt.Sprintf("setop(%d)", uint8(op))
	}
}

// SetExpr applies a set operator to two union-compatible inputs.
type SetExpr struct {
	base
	Op   SetOp
	L, R Expr
}

// NewUnion builds L ∪ R.
func NewUnion(l, r Expr) *SetExpr { return &SetExpr{Op: SetUnion, L: l, R: r} }

// NewDiff builds L − R.
func NewDiff(l, r Expr) *SetExpr { return &SetExpr{Op: SetDiff, L: l, R: r} }

// NewIntersect builds L ∩ R.
func NewIntersect(l, r Expr) *SetExpr { return &SetExpr{Op: SetIntersect, L: l, R: r} }

// TypeCheck implements Expr.
func (s *SetExpr) TypeCheck(env *TypeEnv) (*schema.Relation, error) {
	ls, err := s.L.TypeCheck(env)
	if err != nil {
		return nil, err
	}
	rs, err := s.R.TypeCheck(env)
	if err != nil {
		return nil, err
	}
	if !ls.SameType(rs) {
		return nil, fmt.Errorf("algebra: %s of incompatible schemas %s and %s", s.Op, ls, rs)
	}
	s.out = ls
	return ls, nil
}

// Eval implements Expr.
func (s *SetExpr) Eval(env Env) (*relation.Relation, error) {
	l, err := s.L.Eval(env)
	if err != nil {
		return nil, err
	}
	r, err := s.R.Eval(env)
	if err != nil {
		return nil, err
	}
	// Union and difference start from an O(1) structural share of the left
	// input and apply only the right side's tuples, so their cost is
	// O(right), not O(left + right).
	var out *relation.Relation
	switch s.Op {
	case SetUnion:
		out = l.CloneWith(s.out)
		out.UnionInPlace(r)
	case SetDiff:
		out = l.CloneWith(s.out)
		out.DiffInPlace(r)
	case SetIntersect:
		out = relation.New(s.out)
		err := l.ForEach(func(t relation.Tuple) error {
			if r.Contains(t) {
				out.InsertUnchecked(t)
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

func (s *SetExpr) String() string {
	return fmt.Sprintf("%s(%s, %s)", s.Op, s.L, s.R)
}
