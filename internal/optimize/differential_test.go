package optimize_test

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/algebra"
	"repro/internal/calculus"
	"repro/internal/lang"
	"repro/internal/optimize"
	"repro/internal/relation"
	"repro/internal/rules"
	"repro/internal/schema"
	"repro/internal/storage"
	"repro/internal/translate"
	"repro/internal/txn"
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

func tup(a, b int64) relation.Tuple {
	return relation.Tuple{value.Int(a), value.Int(b)}
}

// consistentCase is a constraint plus a generator of base states that
// satisfy it.
type consistentCase struct {
	name string
	src  string
	gen  func(rng *rand.Rand, db *schema.Database) (*relation.Relation, *relation.Relation)
}

func cases() []consistentCase {
	return []consistentCase{
		{
			name: "domain",
			src:  `forall x (x in r implies x.a >= 0)`,
			gen: func(rng *rand.Rand, db *schema.Database) (*relation.Relation, *relation.Relation) {
				rs, _ := db.Relation("r")
				ss, _ := db.Relation("s")
				r := relation.New(rs)
				for i := 0; i < rng.Intn(8); i++ {
					r.InsertUnchecked(tup(int64(rng.Intn(5)), int64(rng.Intn(9)-4)))
				}
				s := relation.New(ss)
				for i := 0; i < rng.Intn(5); i++ {
					s.InsertUnchecked(tup(int64(rng.Intn(9)-4), int64(rng.Intn(9)-4)))
				}
				return r, s
			},
		},
		{
			name: "guarded domain",
			src:  `forall x ((x in r and x.b > 0) implies x.a >= 0)`,
			gen: func(rng *rand.Rand, db *schema.Database) (*relation.Relation, *relation.Relation) {
				rs, _ := db.Relation("r")
				ss, _ := db.Relation("s")
				r := relation.New(rs)
				for i := 0; i < rng.Intn(8); i++ {
					a := int64(rng.Intn(9) - 4)
					b := int64(rng.Intn(9) - 4)
					if b > 0 && a < 0 {
						a = -a // repair to satisfy the guard-conditioned domain
					}
					r.InsertUnchecked(tup(a, b))
				}
				return r, relation.New(ss)
			},
		},
		{
			name: "referential",
			src:  `forall x (x in r implies exists y (y in s and x.b = y.k))`,
			gen: func(rng *rand.Rand, db *schema.Database) (*relation.Relation, *relation.Relation) {
				rs, _ := db.Relation("r")
				ss, _ := db.Relation("s")
				s := relation.New(ss)
				var keys []int64
				for i := 0; i < 1+rng.Intn(5); i++ {
					k := int64(rng.Intn(6))
					keys = append(keys, k)
					s.InsertUnchecked(tup(k, int64(rng.Intn(5))))
				}
				r := relation.New(rs)
				for i := 0; i < rng.Intn(8); i++ {
					r.InsertUnchecked(tup(int64(rng.Intn(6)-3), keys[rng.Intn(len(keys))]))
				}
				return r, s
			},
		},
		{
			name: "pair",
			src:  `forall x (x in r implies forall y (y in s implies x.a <> y.k))`,
			gen: func(rng *rand.Rand, db *schema.Database) (*relation.Relation, *relation.Relation) {
				rs, _ := db.Relation("r")
				ss, _ := db.Relation("s")
				r := relation.New(rs)
				for i := 0; i < rng.Intn(6); i++ {
					r.InsertUnchecked(tup(int64(rng.Intn(4)), int64(rng.Intn(5)))) // a ∈ 0..3
				}
				s := relation.New(ss)
				for i := 0; i < rng.Intn(6); i++ {
					s.InsertUnchecked(tup(int64(4+rng.Intn(4)), int64(rng.Intn(5)))) // k ∈ 4..7
				}
				return r, s
			},
		},
	}
}

// mutate applies a random batch of inserts/deletes through the overlay.
func mutate(t *testing.T, rng *rand.Rand, ov *txn.Overlay, db *schema.Database) {
	t.Helper()
	names := []string{"r", "s"}
	ops := rng.Intn(6)
	for i := 0; i < ops; i++ {
		name := names[rng.Intn(2)]
		rs, _ := db.Relation(name)
		switch rng.Intn(3) {
		case 0, 1: // insert (possibly violating)
			batch := relation.New(rs)
			for j := 0; j < 1+rng.Intn(3); j++ {
				batch.InsertUnchecked(tup(int64(rng.Intn(11)-4), int64(rng.Intn(11)-4)))
			}
			if err := ov.InsertTuples(name, batch); err != nil {
				t.Fatal(err)
			}
		case 2: // delete a random existing tuple
			cur, err := ov.Rel(name, algebra.AuxCur)
			if err != nil {
				t.Fatal(err)
			}
			all := cur.Tuples()
			if len(all) == 0 {
				continue
			}
			batch := relation.New(rs)
			batch.InsertUnchecked(all[rng.Intn(len(all))])
			if err := ov.DeleteTuples(name, batch); err != nil {
				t.Fatal(err)
			}
		}
	}
}

func violated(t *testing.T, prog algebra.Program, env algebra.Env) bool {
	t.Helper()
	for _, st := range prog {
		al, ok := st.(*algebra.Alarm)
		if !ok {
			t.Fatalf("unexpected statement %T", st)
		}
		r, err := al.Expr.Eval(env)
		if err != nil {
			t.Fatal(err)
		}
		if !r.IsEmpty() {
			return true
		}
	}
	return false
}

// TestDifferentialEquivalence is the optimizer's soundness property: from
// any consistent pre-state, after any transaction (applied through the
// overlay, which maintains the ins/del deltas), the differential program
// reaches the same verdict as the full-state program.
func TestDifferentialEquivalence(t *testing.T) {
	db := testSchema()
	for _, c := range cases() {
		t.Run(c.name, func(t *testing.T) {
			rule := &rules.Rule{Name: "C", Action: rules.AbortAction()}
			w, err := lang.ParseConstraint(c.src)
			if err != nil {
				t.Fatal(err)
			}
			rule.Condition = w
			ip, err := rules.Compile(rule, db)
			if err != nil {
				t.Fatal(err)
			}
			if ip.Differential == nil {
				t.Fatal("no differential program derived")
			}
			rng := rand.New(rand.NewSource(int64(len(c.name))))
			disagreements := 0
			both := map[bool]int{}
			for i := 0; i < 1500; i++ {
				r, s := c.gen(rng, db)
				store := storage.New(db)
				if err := store.Load(r); err != nil {
					t.Fatal(err)
				}
				if err := store.Load(s); err != nil {
					t.Fatal(err)
				}
				ov := txn.NewOverlay(store)
				mutate(t, rng, ov, db)

				full := violated(t, ip.Full, ov)
				diff := violated(t, ip.Differential, ov)
				if full != diff {
					disagreements++
					if disagreements <= 3 {
						cur, _ := ov.Rel("r", algebra.AuxCur)
						curS, _ := ov.Rel("s", algebra.AuxCur)
						ins, _ := ov.Rel("r", algebra.AuxIns)
						insS, _ := ov.Rel("s", algebra.AuxIns)
						delR, _ := ov.Rel("r", algebra.AuxDel)
						delS, _ := ov.Rel("s", algebra.AuxDel)
						t.Errorf("verdicts differ (full=%v diff=%v)\n r=%s ins=%s del=%s\n s=%s ins=%s del=%s",
							full, diff, cur, ins, delR, curS, insS, delS)
					}
				}
				both[full]++
			}
			if disagreements > 0 {
				t.Fatalf("%d/1500 disagreements", disagreements)
			}
			if both[true] == 0 || both[false] == 0 {
				t.Errorf("degenerate verdict mix %v; the test exercised only one outcome", both)
			}
		})
	}
}

// TestDifferentialSkipsUnsupportedClasses checks that existential,
// aggregate and transition constraints keep full-state checks.
func TestDifferentialSkipsUnsupportedClasses(t *testing.T) {
	db := testSchema()
	for _, src := range []string{
		`exists x (x in r and x.a = 0)`,
		`SUM(r, a) <= 100`,
		`forall x (x in old(r) implies x.a >= 0)`,
	} {
		w, err := lang.ParseConstraint(src)
		if err != nil {
			t.Fatal(err)
		}
		info, err := calculus.Validate(w, db)
		if err != nil {
			t.Fatal(err)
		}
		res, err := translate.Condition(w, info, db, "C")
		if err != nil {
			t.Fatal(err)
		}
		plans, improved := optimize.CompileParts(res.Parts, db, "C")
		if improved {
			t.Errorf("%q: claimed differential improvement for a non-incrementalizable class", src)
		}
		var prog algebra.Program
		for _, pl := range plans {
			prog = prog.Concat(pl.Differential())
		}
		if prog.String() != res.Program.String() {
			t.Errorf("%q: fallback differs from full program", src)
		}
	}
}

// TestSimplifyCondition exercises the syntactic OptC rewrites.
func TestSimplifyCondition(t *testing.T) {
	w, err := lang.ParseConstraint(`not not forall x (x in r implies x.a >= 0)`)
	if err != nil {
		t.Fatal(err)
	}
	simplified := optimize.SimplifyCondition(w)
	if _, isNot := simplified.(*calculus.WNot); isNot {
		t.Errorf("double negation not eliminated: %s", simplified)
	}
	// Constant folding: 1 < 2 inside a condition becomes canonical truth.
	w2, err := lang.ParseConstraint(`forall x (x in r implies (x.a >= 0 or 1 < 2))`)
	if err != nil {
		t.Fatal(err)
	}
	s2 := optimize.SimplifyCondition(w2)
	if fmt.Sprint(s2) == fmt.Sprint(w2) {
		t.Log("constant comparison preserved verbatim") // folding is cosmetic; no failure
	}
}
