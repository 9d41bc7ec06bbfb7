package algebra

import (
	"hash/fnv"
	"math/rand"
	"testing"

	"repro/internal/relation"
	"repro/internal/schema"
	"repro/internal/value"
)

// deltaRels are the relations of the Δ property test: three binary integer
// relations over a three-value domain, so joins and unions of them match
// often.
var deltaRels = []string{"a", "b", "c"}

func deltaSchema() *schema.Database {
	rels := make([]*schema.Relation, len(deltaRels))
	for i, n := range deltaRels {
		rels[i] = schema.MustRelation(n,
			schema.Attribute{Name: "x", Type: value.KindInt},
			schema.Attribute{Name: "y", Type: value.KindInt})
	}
	return schema.MustDatabase(rels...)
}

// genDeltaExpr builds a random expression of depth ≤ depth over the delta
// relations and returns it with its arity. exact restricts it to the σ/⋈
// trees view maintenance handles.
func genDeltaExpr(rng *rand.Rand, depth int, exact bool) (Expr, int) {
	if depth == 0 || rng.Intn(4) == 0 {
		return NewRel(deltaRels[rng.Intn(len(deltaRels))]), 2
	}
	kinds := 2 // σ, ⋈
	if !exact {
		kinds = 6 // π, ⋉, ▷, ∪
	}
	switch rng.Intn(kinds) {
	case 0:
		in, n := genDeltaExpr(rng, depth-1, exact)
		return NewSelect(in, genDeltaPred(rng, n)), n
	case 1, 2, 3:
		l, ln := genDeltaExpr(rng, depth-1, exact)
		r, rn := genDeltaExpr(rng, depth-1, exact)
		var pred Scalar
		if rng.Intn(5) > 0 {
			pred = &Cmp{Op: CmpEQ, L: AttrByIndex(rng.Intn(ln)), R: AttrByIndex(ln + rng.Intn(rn))}
		}
		switch kind := rng.Intn(3); {
		case exact || kind == 0:
			return NewJoin(l, r, pred), ln + rn
		case kind == 1:
			return NewSemiJoin(l, r, pred), ln
		default:
			return NewAntiJoin(l, r, pred), ln
		}
	case 4:
		in, n := genDeltaExpr(rng, depth-1, exact)
		width := 1 + rng.Intn(2)
		return project(rng, in, n, width), width
	default:
		l, ln := genDeltaExpr(rng, depth-1, exact)
		r, rn := genDeltaExpr(rng, depth-1, exact)
		if rn != ln {
			r = project(rng, r, rn, ln)
		}
		return NewUnion(l, r), ln
	}
}

// project keeps width random columns of an n-ary input, named apart.
func project(rng *rand.Rand, in Expr, n, width int) *Project {
	cols := make([]Scalar, width)
	names := make([]string, width)
	for i := range cols {
		cols[i] = AttrByIndex(rng.Intn(n))
		names[i] = "p" + string(rune('0'+i))
	}
	return NewProject(in, cols, names)
}

func genDeltaPred(rng *rand.Rand, n int) Scalar {
	ops := []CmpOp{CmpEQ, CmpNE, CmpLT, CmpGE}
	var r Scalar = &Const{V: value.Int(int64(rng.Intn(3)))}
	if rng.Intn(3) == 0 {
		r = AttrByIndex(rng.Intn(n))
	}
	return &Cmp{Op: ops[rng.Intn(len(ops))], L: AttrByIndex(rng.Intn(n)), R: r}
}

// genDeltaState draws a random state of every delta relation.
func genDeltaState(rng *rand.Rand, db *schema.Database) map[string]*relation.Relation {
	out := make(map[string]*relation.Relation, len(deltaRels))
	for _, n := range deltaRels {
		s, _ := db.Relation(n)
		r := relation.New(s)
		for i := rng.Intn(5); i > 0; i-- {
			r.InsertUnchecked(relation.Tuple{value.Int(int64(rng.Intn(3))), value.Int(int64(rng.Intn(3)))})
		}
		out[n] = r
	}
	return out
}

// deltaEnv applies a random net change to old and binds every incarnation:
// cur is the new state, ins and del its net difference from old.
func deltaEnv(rng *rand.Rand, old map[string]*relation.Relation) *fakeEnv {
	env := newFakeEnv()
	for _, n := range deltaRels {
		cur := old[n].Clone()
		for i := rng.Intn(4); i > 0; i-- {
			t := relation.Tuple{value.Int(int64(rng.Intn(3))), value.Int(int64(rng.Intn(3)))}
			if rng.Intn(2) == 0 {
				cur.InsertUnchecked(t)
			} else {
				cur.Delete(t)
			}
		}
		ins, del := cur.Clone(), old[n].Clone()
		ins.DiffInPlace(old[n])
		del.DiffInPlace(cur)
		env.add(cur, AuxCur)
		env.add(old[n], AuxOld)
		env.add(ins, AuxIns)
		env.add(del, AuxDel)
	}
	return env
}

// evalAt type-checks and evaluates e, reading the old state when atOld.
func evalAt(t *testing.T, e Expr, db *schema.Database, env *fakeEnv, atOld bool) *relation.Relation {
	t.Helper()
	if atOld {
		e = CloneExpr(e)
		Rels(e, func(r *Rel) { r.Aux = AuxOld })
	}
	if _, err := e.TypeCheck(NewTypeEnv(db)); err != nil {
		t.Fatalf("TypeCheck(%s): %v", e, err)
	}
	r, err := e.Eval(env)
	if err != nil {
		t.Fatalf("Eval(%s): %v", e, err)
	}
	return r
}

// unionOf evaluates the terms and collects their rows.
func unionOf(t *testing.T, terms []DeltaTerm, db *schema.Database, env *fakeEnv, like *relation.Relation) *relation.Relation {
	t.Helper()
	out := relation.New(like.Schema())
	for _, term := range terms {
		r := evalAt(t, term.Expr, db, env, false)
		out.UnionInPlace(r)
	}
	return out
}

// FuzzDeltaRules checks the Δ derivation against evaluation. For a random
// σ/π/⋈/⋉/▷/∪ expression E of depth ≤ 3 over two or three relations, a
// random state where E is empty and a random net delta, Δ⁺E must be
// non-empty iff E(new) is — its terms are exactly E(new) — and each term
// must read its recorded delta leaf. For a σ/⋈ tree and any state,
// deleting Δ⁻E from E(old) and inserting Δ⁺E must give E(new).
func FuzzDeltaRules(f *testing.F) {
	f.Add([]byte("antijoin(semijoin(L, del R), R)"))
	f.Add([]byte("union of projections"))
	f.Add([]byte("self join"))
	f.Add([]byte{0})
	f.Fuzz(func(t *testing.T, data []byte) {
		h := fnv.New64a()
		h.Write(data)
		rng := rand.New(rand.NewSource(int64(h.Sum64())))
		db := deltaSchema()

		e, _ := genDeltaExpr(rng, 3, false)
		if _, err := e.TypeCheck(NewTypeEnv(db)); err != nil {
			t.Fatalf("TypeCheck(%s): %v", e, err)
		}
		terms, ok := AlarmDelta(e)
		if !ok {
			t.Fatalf("no Δ form for %s", e)
		}
		for _, term := range terms {
			leaf := 0
			Rels(term.Expr, func(r *Rel) {
				if r.Aux == AuxIns || r.Aux == AuxDel {
					leaf++
					if r.Name != term.Rel || r.Aux != term.Aux {
						t.Fatalf("term %s records leaf %s(%s), reads %s", term.Expr, term.Aux, term.Rel, r)
					}
				}
			})
			if leaf != 1 {
				t.Fatalf("term %s reads %d delta leaves, want 1", term.Expr, leaf)
			}
		}
		for try := 0; try < 20; try++ {
			old := genDeltaState(rng, db)
			env := deltaEnv(rng, old)
			if !evalAt(t, e, db, env, true).IsEmpty() {
				continue // the alarm must hold before the transaction
			}
			now := evalAt(t, e, db, env, false)
			if got := unionOf(t, terms, db, env, now); !got.Equal(now) {
				t.Fatalf("E = %s\nE(new) = %s\nΔ⁺E = %s", e, now, got)
			}
			break
		}

		v, _ := genDeltaExpr(rng, 3, true)
		del, ins, ok := ViewDelta(v)
		if !ok {
			t.Fatalf("no view delta for %s", v)
		}
		env := deltaEnv(rng, genDeltaState(rng, db))
		was, now := evalAt(t, v, db, env, true), evalAt(t, v, db, env, false)
		kept := was.Clone()
		kept.DiffInPlace(unionOf(t, del, db, env, was))
		kept.UnionInPlace(unionOf(t, ins, db, env, was))
		if !kept.Equal(now) {
			t.Fatalf("V = %s\nV(old) = %s\nmaintained = %s\nV(new) = %s", v, was, kept, now)
		}
	})
}

// TestDeltaRefuses: aggregates, set difference and leaves that do not read
// the current state have no Δ form; projections and unions have no exact
// one.
func TestDeltaRefuses(t *testing.T) {
	db := deltaSchema()
	for _, e := range []Expr{
		NewCount(NewRel("a")),
		NewDiff(NewRel("a"), NewRel("b")),
		NewSelect(NewAuxRel("a", AuxOld), &Cmp{Op: CmpEQ, L: AttrByIndex(0), R: &Const{V: value.Int(1)}}),
		NewJoin(NewRel("a"), NewAuxRel("b", AuxIns), nil),
		NewTemp("t"),
	} {
		if _, ok := AlarmDelta(e); ok {
			t.Errorf("AlarmDelta(%s) derived a Δ form", e)
		}
	}
	for _, e := range []Expr{
		ProjectAttrs(NewRel("a"), "x"),
		NewUnion(NewRel("a"), NewRel("b")),
		NewSemiJoin(NewRel("a"), NewRel("b"), nil),
	} {
		if _, err := e.TypeCheck(NewTypeEnv(db)); err != nil {
			t.Fatal(err)
		}
		if _, ok := AlarmDelta(e); !ok {
			t.Errorf("AlarmDelta(%s) refused", e)
		}
		if _, _, ok := ViewDelta(e); ok {
			t.Errorf("ViewDelta(%s) derived an exact delta", e)
		}
	}
}
