package algebra

import (
	"fmt"
	"testing"

	"repro/internal/index"
	"repro/internal/relation"
	"repro/internal/schema"
	"repro/internal/value"
)

// probeEnv wraps the map-backed fakeEnv with secondary indexes over the
// AuxCur instances, logging every probe so tests can assert which access
// path evaluation took.
type probeEnv struct {
	*fakeEnv
	sets   map[string]*index.Set
	probes []string
}

func newProbeEnv(f *fakeEnv) *probeEnv {
	return &probeEnv{fakeEnv: f, sets: make(map[string]*index.Set)}
}

func (e *probeEnv) index(name string, cols ...int) {
	r, err := e.Rel(name, AuxCur)
	if err != nil {
		panic(err)
	}
	e.sets[name] = e.sets[name].With(index.Build(r, cols))
}

func (e *probeEnv) IndexFor(name string, aux AuxKind, cols []int) ([]int, int, bool) {
	if aux != AuxCur && aux != AuxOld {
		return nil, 0, false
	}
	x := e.sets[name].Covering(cols)
	if x == nil {
		return nil, 0, false
	}
	r, err := e.Rel(name, aux)
	if err != nil {
		return nil, 0, false
	}
	return x.Cols(), r.Len(), true
}

func (e *probeEnv) Probe(name string, aux AuxKind, idx []int, vals []value.Value) ([]relation.Tuple, error) {
	x := e.sets[name].Exact(idx)
	if x == nil {
		return nil, fmt.Errorf("probeEnv: no index %s(%s)", name, index.Sig(idx))
	}
	e.probes = append(e.probes, fmt.Sprintf("%s(%s)", name, index.Sig(idx)))
	return x.Probe(index.KeyVals(vals)), nil
}

// assertSameRelation fails unless the two relations hold the same tuple set.
func assertSameRelation(t *testing.T, got, want *relation.Relation) {
	t.Helper()
	if !got.Equal(want) {
		t.Fatalf("probe path result differs from scan path:\n got  %s\n want %s", got, want)
	}
}

// evalBoth evaluates the expression once against the plain fakeEnv (scan
// path) and once against the indexed probeEnv, asserting identical results,
// and returns the probe log.
func evalBoth(t *testing.T, build func() Expr, pe *probeEnv, tenv *TypeEnv) []string {
	t.Helper()
	scan := evalExpr(t, build(), pe.fakeEnv, tenv.Clone())
	pe.probes = nil
	probed := evalExpr(t, build(), pe, tenv.Clone())
	assertSameRelation(t, probed, scan)
	return pe.probes
}

func TestSelectProbesConstEquality(t *testing.T) {
	env, tenv := fixture(t)
	pe := newProbeEnv(env)
	pe.index("emp", 1) // emp(dept)

	sel := func() Expr {
		return NewSelect(NewRel("emp"), &And{
			L: &Cmp{Op: CmpEQ, L: AttrByName("dept"), R: &Const{V: value.String("eng")}},
			R: &Cmp{Op: CmpGT, L: AttrByName("sal"), R: &Const{V: value.Int(120)}},
		})
	}
	probes := evalBoth(t, sel, pe, tenv)
	if len(probes) != 1 || probes[0] != "emp(1)" {
		t.Errorf("probes = %v, want one emp(1) probe", probes)
	}

	// Constant on the left of the comparison probes too.
	selRev := func() Expr {
		return NewSelect(NewRel("emp"),
			&Cmp{Op: CmpEQ, L: &Const{V: value.String("ops")}, R: AttrByName("dept")})
	}
	probes = evalBoth(t, selRev, pe, tenv)
	if len(probes) != 1 {
		t.Errorf("reversed-operand probes = %v", probes)
	}

	// No covering index: select on sal falls back to the scan path.
	selSal := func() Expr {
		return NewSelect(NewRel("emp"), &Cmp{Op: CmpEQ, L: AttrByName("sal"), R: &Const{V: value.Int(150)}})
	}
	probes = evalBoth(t, selSal, pe, tenv)
	if len(probes) != 0 {
		t.Errorf("uncovered select probed: %v", probes)
	}
}

func TestSelectProbeMissesRecordAbsence(t *testing.T) {
	env, tenv := fixture(t)
	pe := newProbeEnv(env)
	pe.index("emp", 1)
	sel := NewSelect(NewRel("emp"),
		&Cmp{Op: CmpEQ, L: AttrByName("dept"), R: &Const{V: value.String("nosuch")}})
	r := evalExpr(t, sel, pe, tenv)
	if r.Len() != 0 {
		t.Fatalf("probe miss returned %d tuples", r.Len())
	}
	if len(pe.probes) != 1 {
		t.Fatalf("probe miss still records the probe: %v", pe.probes)
	}
}

func joinPred() Scalar {
	return &Cmp{Op: CmpEQ, L: AttrByIndex(1), R: AttrByIndex(3)} // emp.dept = dept.name
}

func TestJoinProbesRightSideAllKinds(t *testing.T) {
	env, tenv := fixture(t)
	pe := newProbeEnv(env)
	pe.index("dept", 0) // dept(name)

	for _, kind := range []struct {
		name  string
		build func() Expr
	}{
		{"inner", func() Expr { return NewJoin(NewRel("emp"), NewRel("dept"), joinPred()) }},
		{"semi", func() Expr { return NewSemiJoin(NewRel("emp"), NewRel("dept"), joinPred()) }},
		{"anti", func() Expr { return NewAntiJoin(NewRel("emp"), NewRel("dept"), joinPred()) }},
	} {
		t.Run(kind.name, func(t *testing.T) {
			probes := evalBoth(t, kind.build, pe, tenv)
			if len(probes) != 4 { // one probe per emp tuple
				t.Errorf("probes = %v, want 4 dept probes", probes)
			}
		})
	}
}

func TestJoinProbesLeftSideForDeltaDriven(t *testing.T) {
	env, tenv := fixture(t)
	// del(dept) holds one deleted department; the semijoin's non-delta left
	// side (emp) should be probed per deleted tuple, never scanned.
	env.add(relation.MustFromTuples(deptSchema(), dept("eng", 1000)), AuxDel)
	pe := newProbeEnv(env)
	pe.index("emp", 1)

	semi := func() Expr {
		return NewSemiJoin(NewRel("emp"), NewAuxRel("dept", AuxDel), joinPred())
	}
	probes := evalBoth(t, semi, pe, tenv)
	if len(probes) != 1 || probes[0] != "emp(1)" {
		t.Errorf("probes = %v, want one emp(1) probe", probes)
	}

	// An antijoin cannot probe its left side (it needs every left tuple);
	// the result must still be correct through the fallback scan.
	anti := func() Expr {
		return NewAntiJoin(NewRel("emp"), NewAuxRel("dept", AuxDel), joinPred())
	}
	probes = evalBoth(t, anti, pe, tenv)
	if len(probes) != 0 {
		t.Errorf("antijoin probed its left side: %v", probes)
	}
}

func TestJoinProbeWithSubsetIndexAndResidual(t *testing.T) {
	env, tenv := fixture(t)
	pe := newProbeEnv(env)
	pe.index("dept", 0)

	// Two conjuncts: the equi key (covered by the index) plus a residual
	// budget filter; candidates must be re-verified against both.
	build := func() Expr {
		pred := &And{
			L: joinPred(),
			R: &Cmp{Op: CmpGE, L: AttrByIndex(4), R: &Const{V: value.Int(800)}}, // dept.budget >= 800
		}
		return NewSemiJoin(NewRel("emp"), NewRel("dept"), pred)
	}
	probes := evalBoth(t, build, pe, tenv)
	if len(probes) != 4 {
		t.Errorf("probes = %v, want 4", probes)
	}
}

func TestJoinProbeSkippedWhenDrivingTooLarge(t *testing.T) {
	// 64 left tuples against a 4-tuple indexed right side: probing would
	// issue 64 lookups against a relation a scan covers in 4 — the planner
	// must fall back.
	es, ds := empSchema(), deptSchema()
	var emps []relation.Tuple
	for i := int64(0); i < 64; i++ {
		emps = append(emps, emp(i, fmt.Sprintf("d%d", i%4), 100))
	}
	env := newFakeEnv()
	env.add(relation.MustFromTuples(es, emps...), AuxCur)
	env.add(relation.MustFromTuples(ds,
		dept("d0", 1), dept("d1", 1), dept("d2", 1), dept("d3", 1)), AuxCur)
	pe := newProbeEnv(env)
	pe.index("dept", 0)
	tenv := NewTypeEnv(schema.MustDatabase(es, ds))

	build := func() Expr { return NewSemiJoin(NewRel("emp"), NewRel("dept"), joinPred()) }
	probes := evalBoth(t, build, pe, tenv)
	if len(probes) != 0 {
		t.Errorf("oversized driving side still probed: %d probes", len(probes))
	}
}

func TestEquiJoinColumns(t *testing.T) {
	es, ds := empSchema(), deptSchema()
	pred := &And{
		L: &Cmp{Op: CmpEQ, L: AttrByName("dept"), R: AttrByName("name")},
		R: &Cmp{Op: CmpGT, L: AttrByName("sal"), R: &Const{V: value.Int(0)}},
	}
	eqL, eqR, err := EquiJoinColumns(pred, es, ds)
	if err != nil {
		t.Fatal(err)
	}
	if len(eqL) != 1 || eqL[0] != 1 || len(eqR) != 1 || eqR[0] != 0 {
		t.Errorf("EquiJoinColumns = %v, %v; want [1], [0]", eqL, eqR)
	}
	if _, _, err := EquiJoinColumns(nil, es, ds); err != nil {
		t.Errorf("nil predicate: %v", err)
	}
}
