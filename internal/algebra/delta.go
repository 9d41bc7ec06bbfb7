package algebra

// Delta derivation — the differential-relation technique the paper cites
// for its optimization hook ([18, 5, 7]), as structural rules over the
// algebra. For an expression E over current base relations, Δ⁺E is a list
// of terms, each a copy of E in which exactly one base-relation leaf reads
// its net delta: ins(R) for an insert term, del(S) for a delete term. The
// terms satisfy
//
//	E(new) − E(old) ⊆ ∪ terms ⊆ E(new),
//
// so when E(old) is empty — an alarm that held before the transaction —
// E(new) is empty iff every term is. Δ⁻E is the mirror image over the
// pre-transaction state: E(old) − E(new) ⊆ ∪ terms ⊆ E(old).
//
// The rules, for a Δ of sign ± whose other inputs read the state on that
// side (current for Δ⁺, old(·) for Δ⁻):
//
//   - σ, rename, and π (alarm mode only) pass the terms of their input
//     through;
//   - a join or semijoin gives one term per input, that input's Δ terms
//     joined with the other input;
//   - an antijoin L ▷ R gives L's Δ terms ▷ R, plus, per term ∇ of R's
//     opposite delta, (L ⋉ ∇) ▷ R: the left tuples whose last match left;
//   - a union gives the terms of both inputs (alarm mode only, and only
//     once type-checked: a right-input term is renamed to the union's
//     schema);
//   - literals give no term.
//
// Aggregates, set difference and intersection, temps, unknown nodes and
// leaves that already read old/ins/del have no Δ form. View maintenance
// (ViewDelta) asks for exact deltas, which set semantics keeps only through
// σ, rename and inner joins: a projection, union or semijoin can map a
// deleted tuple onto one that another witness still produces.

// DeltaTerm is one term of an expression's delta.
type DeltaTerm struct {
	Expr Expr
	// Rel and Aux name the term's delta leaf: ins(Rel) or del(Rel).
	Rel string
	Aux AuxKind
	// Leaf is the position of the differentiated leaf among the
	// expression's base-relation leaves, in the order Rels visits them.
	Leaf int
}

// AlarmDelta derives Δ⁺E for an alarm over E: the terms whose emptiness
// decides E(new)'s emptiness whenever E(old) is empty. ok is false when E
// has no Δ form.
func AlarmDelta(e Expr) ([]DeltaTerm, bool) {
	if !readsCurrentOnly(e) {
		return nil, false
	}
	return (&deriver{}).derive(e, AuxIns)
}

// ViewDelta derives the exact deletes and inserts that carry a
// materialization of E from E(old) to E(new): delete every Δ⁻ term, then
// insert every Δ⁺ term. ok is false unless E is a tree of selections,
// renames and inner joins over current base relations and literals.
func ViewDelta(e Expr) (del, ins []DeltaTerm, ok bool) {
	if !readsCurrentOnly(e) {
		return nil, nil, false
	}
	if del, ok = (&deriver{exact: true}).derive(e, AuxDel); !ok {
		return nil, nil, false
	}
	if ins, ok = (&deriver{exact: true}).derive(e, AuxIns); !ok {
		return nil, nil, false
	}
	return del, ins, true
}

// Rels calls fn on every base-relation leaf of e, left to right, and
// reports whether e consists of known node kinds only. Temps and literals
// read no base relation.
func Rels(e Expr, fn func(*Rel)) bool {
	switch x := e.(type) {
	case nil, *Temp, *Lit:
		return true
	case *Rel:
		fn(x)
		return true
	case *Select:
		return Rels(x.In, fn)
	case *Project:
		return Rels(x.In, fn)
	case *Rename:
		return Rels(x.In, fn)
	case *Aggregate:
		return Rels(x.In, fn)
	case *Join:
		return Rels(x.L, fn) && Rels(x.R, fn)
	case *SetExpr:
		return Rels(x.L, fn) && Rels(x.R, fn)
	default:
		return false
	}
}

// readsCurrentOnly reports whether every base-relation leaf of e reads the
// current state.
func readsCurrentOnly(e Expr) bool {
	cur := true
	known := Rels(e, func(r *Rel) { cur = cur && r.Aux == AuxCur })
	return known && cur
}

// deriver carries one derivation: whether it must be exact, and the
// position of the next base-relation leaf.
type deriver struct {
	exact bool
	leaf  int
}

// derive returns the Δ terms of e with the given sign: AuxIns for Δ⁺,
// AuxDel for Δ⁻. It visits every leaf of e once, left to right.
func (d *deriver) derive(e Expr, sign AuxKind) ([]DeltaTerm, bool) {
	switch x := e.(type) {
	case *Lit:
		return nil, true
	case *Rel:
		t := DeltaTerm{Expr: NewAuxRel(x.Name, sign), Rel: x.Name, Aux: sign, Leaf: d.leaf}
		d.leaf++
		return []DeltaTerm{t}, true
	case *Select:
		return d.wrap(x.In, sign, func(in Expr) Expr { return NewSelect(in, CloneScalar(x.Pred)) })
	case *Rename:
		return d.wrap(x.In, sign, func(in Expr) Expr { return NewRename(in, x.Name, x.Attrs) })
	case *Project:
		if d.exact {
			return nil, false
		}
		return d.wrap(x.In, sign, func(in Expr) Expr {
			cols := make([]Scalar, len(x.Cols))
			for i, c := range x.Cols {
				cols[i] = CloneScalar(c)
			}
			return NewProject(in, cols, x.Names)
		})
	case *Join:
		if x.Kind != JoinInner && d.exact {
			return nil, false
		}
		return d.join(x, sign)
	case *SetExpr:
		out := x.Schema()
		if x.Op != SetUnion || d.exact || out == nil {
			return nil, false
		}
		l, ok := d.derive(x.L, sign)
		if !ok {
			return nil, false
		}
		// A right-input term takes the union's schema, which operators
		// above it were bound against by name.
		names := make([]string, out.Arity())
		for i, a := range out.Attrs {
			names[i] = a.Name
		}
		r, ok := d.wrap(x.R, sign, func(in Expr) Expr { return NewRename(in, out.Name, names) })
		if !ok {
			return nil, false
		}
		return append(l, r...), true
	default:
		return nil, false
	}
}

// wrap derives the terms of a unary node's input and rebuilds the node
// around each.
func (d *deriver) wrap(in Expr, sign AuxKind, node func(Expr) Expr) ([]DeltaTerm, bool) {
	terms, ok := d.derive(in, sign)
	if !ok {
		return nil, false
	}
	for i := range terms {
		terms[i].Expr = node(terms[i].Expr)
	}
	return terms, true
}

// join derives the terms of a join, semijoin or antijoin.
func (d *deriver) join(j *Join, sign AuxKind) ([]DeltaTerm, bool) {
	left, ok := d.derive(j.L, sign)
	if !ok {
		return nil, false
	}
	for i := range left {
		left[i].Expr = &Join{Kind: j.Kind, L: left[i].Expr, R: stateOf(j.R, sign), Pred: CloneScalar(j.Pred)}
	}
	if j.Kind != JoinAnti {
		right, ok := d.derive(j.R, sign)
		if !ok {
			return nil, false
		}
		for i := range right {
			right[i].Expr = &Join{Kind: j.Kind, L: stateOf(j.L, sign), R: right[i].Expr, Pred: CloneScalar(j.Pred)}
		}
		return append(left, right...), true
	}
	// A left tuple enters L ▷ R when its last match leaves R: the opposite
	// delta of R finds the tuples that lost a match.
	opposite := AuxDel
	if sign == AuxDel {
		opposite = AuxIns
	}
	lost, ok := d.derive(j.R, opposite)
	if !ok {
		return nil, false
	}
	for i := range lost {
		affected := NewSemiJoin(stateOf(j.L, sign), lost[i].Expr, CloneScalar(j.Pred))
		lost[i].Expr = NewAntiJoin(affected, stateOf(j.R, sign), CloneScalar(j.Pred))
	}
	return append(left, lost...), true
}

// stateOf copies an unchanged input of a Δ term: it reads the current
// state in a Δ⁺ term and the pre-transaction state in a Δ⁻ term.
func stateOf(e Expr, sign AuxKind) Expr {
	c := CloneExpr(e)
	if sign == AuxDel {
		Rels(c, func(r *Rel) { r.Aux = AuxOld })
	}
	return c
}
