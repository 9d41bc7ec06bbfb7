package translate_test

import (
	"strings"
	"testing"

	"repro/internal/algebra"
	"repro/internal/calculus"
	"repro/internal/lang"
	"repro/internal/optimize"
	"repro/internal/schema"
	"repro/internal/translate"
	"repro/internal/value"
)

func testSchema() *schema.Database {
	r := schema.MustRelation("r",
		schema.Attribute{Name: "a", Type: value.KindInt},
		schema.Attribute{Name: "b", Type: value.KindInt},
	)
	s := schema.MustRelation("s",
		schema.Attribute{Name: "k", Type: value.KindInt},
		schema.Attribute{Name: "v", Type: value.KindInt},
	)
	return schema.MustDatabase(r, s)
}

// translateSrc parses, validates and translates a CL constraint.
func translateSrc(t *testing.T, src string) (*translate.Result, error) {
	t.Helper()
	db := testSchema()
	w, err := lang.ParseConstraint(src)
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	info, err := calculus.Validate(w, db)
	if err != nil {
		t.Fatalf("validate %q: %v", src, err)
	}
	return translate.Condition(w, info, db, "C")
}

func mustTranslate(t *testing.T, src string) *translate.Result {
	t.Helper()
	res, err := translateSrc(t, src)
	if err != nil {
		t.Fatalf("translate %q: %v", src, err)
	}
	return res
}

// TestTable1Goldens asserts the exact program text for each Table 1 row.
func TestTable1Goldens(t *testing.T) {
	cases := []struct {
		name  string
		src   string
		class translate.Class
		want  string
	}{
		{"row1-domain",
			`forall x (x in r implies x.a >= 0)`,
			translate.ClassDomain,
			"alarm(select(r, not (a >= 0)));\n"},
		{"row2-referential",
			`forall x (x in r implies exists y (y in s and x.b = y.k))`,
			translate.ClassReferential,
			"alarm(antijoin(r, s, b = k));\n"},
		{"row3-pair-nested",
			`forall x (x in r implies forall y (y in s implies x.a <> y.k))`,
			translate.ClassPair,
			"alarm(semijoin(r, s, not (a <> k)));\n"},
		{"row4-pair-flat",
			`forall x, y ((x in r and y in s and x.a = y.k) implies x.b = y.v)`,
			translate.ClassPair,
			"alarm(semijoin(r, s, (a = k and not (b = v))));\n"},
		{"row5-existential",
			`exists x (x in r and x.a = 0)`,
			translate.ClassExistential,
			"alarm(select(cnt(select(r, a = 0)), CNT = 0));\n"},
		{"row6-aggregate",
			`SUM(r, a) >= 0`,
			translate.ClassAggregate,
			"alarm(select(agg(r, SUM, a), not (SUM >= 0)));\n"},
		{"row7-count",
			`CNT(r) <= 100`,
			translate.ClassAggregate,
			"alarm(select(cnt(r), not (CNT <= 100)));\n"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			res := mustTranslate(t, c.src)
			if len(res.Parts) != 1 {
				t.Fatalf("parts = %d, want 1", len(res.Parts))
			}
			if res.Parts[0].Class != c.class {
				t.Errorf("class = %s, want %s", res.Parts[0].Class, c.class)
			}
			if got := res.Program.String(); got != c.want {
				t.Errorf("program:\n got %q\nwant %q", got, c.want)
			}
		})
	}
}

func TestConjunctionSplitsIntoParts(t *testing.T) {
	res := mustTranslate(t,
		`forall x (x in r implies (x.a >= 0 and x.b >= 0))`)
	if len(res.Parts) != 2 {
		t.Fatalf("parts = %d, want 2 (distributed conjunction)", len(res.Parts))
	}
	for _, p := range res.Parts {
		if p.Class != translate.ClassDomain {
			t.Errorf("part class = %s, want domain", p.Class)
		}
	}
	res2 := mustTranslate(t, `SUM(r, a) >= 0 and CNT(s) <= 10`)
	if len(res2.Parts) != 2 {
		t.Fatalf("top-level conjunction parts = %d, want 2", len(res2.Parts))
	}
}

func TestGuardsBecomeSelections(t *testing.T) {
	res := mustTranslate(t,
		`forall x ((x in r and x.a > 5) implies exists y (y in s and x.b = y.k and y.v > 0))`)
	got := res.Program.String()
	if !strings.Contains(got, "antijoin(select(r, a > 5), select(s, v > 0)") {
		t.Errorf("guards not pushed into selections: %s", got)
	}
	p := res.Parts[0]
	if p.Guard == nil || p.OtherGuard == nil {
		t.Error("part guards not recorded")
	}
}

func TestSubsetViaTupleEquality(t *testing.T) {
	// Subset constraints are written with an explicit witness: r ⊆ s.
	res := mustTranslate(t,
		`forall x (x in r implies exists y (y in s and x == y))`)
	got := res.Program.String()
	if !strings.Contains(got, "antijoin(r, s, (a = k and b = v))") {
		t.Errorf("tuple equality not expanded attribute-wise: %s", got)
	}
}

func TestAbsorbDisjunctiveGuard(t *testing.T) {
	res := mustTranslate(t,
		`forall x (x in r implies (x.a < 0 or exists y (y in s and x.b = y.k)))`)
	if res.Parts[0].Class != translate.ClassReferential {
		t.Fatalf("class = %s, want referential (disjunct absorbed)", res.Parts[0].Class)
	}
	got := res.Program.String()
	if !strings.Contains(got, "select(r, not (a < 0))") {
		t.Errorf("negated disjunct not absorbed as guard: %s", got)
	}
}

func TestMixedAggregateDomainClass(t *testing.T) {
	res := mustTranslate(t,
		`forall x (x in r implies x.a <= SUM(s, v))`)
	p := res.Parts[0]
	if p.Class != translate.ClassMixed || !p.HasAggs {
		t.Errorf("class = %s hasAggs=%v, want mixed/true", p.Class, p.HasAggs)
	}
	got := res.Program.String()
	if !strings.Contains(got, "join(r, agg(s, SUM, v))") {
		t.Errorf("aggregate not joined to base: %s", got)
	}
}

func TestTransitionConstraintTranslates(t *testing.T) {
	res := mustTranslate(t,
		`forall x (x in r implies forall y (y in old(r) implies (x.a <> y.a or x.b >= y.b)))`)
	p := res.Parts[0]
	if p.Class != translate.ClassPair {
		t.Errorf("class = %s, want pair", p.Class)
	}
	got := res.Program.String()
	if !strings.Contains(got, "old(r)") {
		t.Errorf("old() reference lost: %s", got)
	}
}

func TestNormalizeNegatedQuantifiers(t *testing.T) {
	// ¬(∃x)(x∈r ∧ x.a < 0) ≡ (∀x)(x∈r ⇒ ¬(a<0)) — a domain constraint.
	res := mustTranslate(t, `not exists x (x in r and x.a < 0)`)
	if res.Parts[0].Class != translate.ClassDomain {
		t.Errorf("class = %s, want domain after negation push", res.Parts[0].Class)
	}
	// ¬(∀x)(x∈r ⇒ x.a<0) ≡ (∃x)(x∈r ∧ ¬(a<0)).
	res2 := mustTranslate(t, `not forall x (x in r implies x.a < 0)`)
	if res2.Parts[0].Class != translate.ClassExistential {
		t.Errorf("class = %s, want existential after negation push", res2.Parts[0].Class)
	}
}

func TestUnsupportedShapesRejected(t *testing.T) {
	cases := []struct {
		name string
		src  string
	}{
		{"three-level quantifier",
			`forall x (x in r implies exists y (y in s and exists z (z in r and z.a = x.a and y.k = z.b)))`},
		{"aggregate in pair condition",
			`forall x (x in r implies exists y (y in s and x.a = y.k + SUM(r, a)))`},
		{"unguarded forall",
			`forall x (x in r or x.a > 0)`},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if _, err := translateSrc(t, c.src); err == nil {
				t.Errorf("translated unsupported shape %q", c.src)
			}
		})
	}
}

func TestPartProgramsAreTypeChecked(t *testing.T) {
	res := mustTranslate(t, `forall x (x in r implies x.a >= 0)`)
	// A type-checked alarm has a non-nil schema on its expression.
	al := res.Program[0]
	if al.String() == "" {
		t.Fatal("empty alarm")
	}
}

// TestAnalyzeSafetyInsertAllocatesNothing: scoring an insert against a
// referential part reads no join columns, so it builds none of the column
// sets an update needs.
func TestAnalyzeSafetyInsertAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	db := testSchema()
	res := mustTranslate(t, `forall x (x in r implies exists y (y in s and x.b = y.k))`)
	plans, _ := optimize.CompileParts(res.Parts, db, "C")
	pl := plans[0]
	stmts, err := lang.ParseProgram(`insert(r, values[(1, 2)]);`, db)
	if err != nil {
		t.Fatal(err)
	}
	var need translate.Need
	if n := testing.AllocsPerRun(100, func() { need = translate.AnalyzeSafety(pl.Part, pl.Terms, db, stmts) }); n != 0 {
		t.Fatalf("AnalyzeSafety of an insert allocates %.0f times, want 0", n)
	}
	if need != (translate.Need{Terms: 1}) {
		t.Fatalf("insert into the referencing relation needs %+v, want the ins(r) term alone", need)
	}
}

// runPrograms translates a constraint and returns the check programs the
// default engine runs for it: each part's differential sides, or its full
// check when it has none.
func runPrograms(t *testing.T, src string) []algebra.Program {
	t.Helper()
	res := mustTranslate(t, src)
	plans, _ := optimize.CompileParts(res.Parts, testSchema(), "C")
	progs := make([]algebra.Program, len(plans))
	for i, pl := range plans {
		progs[i] = pl.Differential()
	}
	return progs
}

// TestIndexHintsFromReferential: a referential constraint hints both join
// directions — the referenced relation on its key columns (for the
// insertion-side antijoin) and the referencing relation on its foreign-key
// columns (for the deletion-side semijoin).
func TestIndexHintsFromReferential(t *testing.T) {
	const src = `forall x (x in r implies exists y (y in s and x.b = y.k))`
	hints := translate.IndexHints(runPrograms(t, src), testSchema())
	got := map[string]string{}
	for _, h := range hints {
		got[h.Relation] = strings.Join(h.Attrs, ",")
	}
	if got["r"] != "b" || got["s"] != "k" {
		t.Fatalf("hints = %v, want r(b) and s(k)", got)
	}
	// The full-state check alone probes only the antijoin's right side.
	full := mustTranslate(t, src).Program
	if hints := translate.IndexHints([]algebra.Program{full}, testSchema()); len(hints) != 1 || hints[0].Relation != "s" {
		t.Fatalf("antijoin(r, s) hinted %v, want s(k) alone", hints)
	}
}

// TestIndexHintsSkipNonJoinClasses: a domain constraint's differential check
// selects from the transaction's inserts and probes nothing, so it hints
// nothing; an existential check range-selects the base relation and hints
// an ordered index; aggregate constraints hint nothing; duplicate hints
// collapse.
func TestIndexHintsSkipNonJoinClasses(t *testing.T) {
	if hints := translate.IndexHints(runPrograms(t, `forall x (x in r implies x.a >= 0)`), testSchema()); len(hints) != 0 {
		t.Fatalf("domain constraint hinted %v, want none", hints)
	}
	hints := translate.IndexHints(runPrograms(t, `exists x (x in r and x.a > 0)`), testSchema())
	if len(hints) != 1 || !hints[0].Ordered || hints[0].Relation != "r" ||
		strings.Join(hints[0].Attrs, ",") != "a" {
		t.Fatalf("existential constraint hinted %v, want one ordered r(a)", hints)
	}
	if hints := translate.IndexHints(runPrograms(t, `CNT(r) <= 100`), testSchema()); len(hints) != 0 {
		t.Fatalf("aggregate constraint hinted %v", hints)
	}
	// Programs repeating the same joins contribute each hint once.
	progs := runPrograms(t, `forall x (x in r implies exists y (y in s and x.b = y.k))`)
	hints = translate.IndexHints(append(progs, progs...), testSchema())
	if len(hints) != 2 {
		t.Fatalf("duplicate joins produced %d hints: %v", len(hints), hints)
	}
}
