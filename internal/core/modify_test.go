package core

import (
	"strings"
	"testing"

	"repro/internal/algebra"
	"repro/internal/calculus"
	"repro/internal/relation"
	"repro/internal/rules"
	"repro/internal/schema"
	"repro/internal/storage"
	"repro/internal/trigger"
	"repro/internal/txn"
	"repro/internal/value"
)

// beerSchema reproduces the paper's example database:
// beer(name, type, brewery, alcohol) and brewery(name, city, country).
func beerSchema(t *testing.T) *schema.Database {
	t.Helper()
	beer := schema.MustRelation("beer",
		schema.Attribute{Name: "name", Type: value.KindString},
		schema.Attribute{Name: "type", Type: value.KindString},
		schema.Attribute{Name: "brewery", Type: value.KindString},
		schema.Attribute{Name: "alcohol", Type: value.KindInt},
	)
	brewery := schema.MustRelation("brewery",
		schema.Attribute{Name: "name", Type: value.KindString},
		schema.Attribute{Name: "city", Type: value.KindString},
		schema.Attribute{Name: "country", Type: value.KindString},
	)
	return schema.MustDatabase(beer, brewery)
}

// ruleR1 is the paper's domain rule: WHEN INS(beer) IF NOT
// (∀x)(x∈beer ⇒ x.alcohol ≥ 0) THEN abort.
func ruleR1() *rules.Rule {
	cond := &calculus.WQuant{Q: calculus.Forall, Var: "x", Body: &calculus.WImplies{
		L: &calculus.WAtom{A: &calculus.AMember{Var: "x", Rel: calculus.RelRef{Name: "beer"}}},
		R: &calculus.WAtom{A: &calculus.ACompare{
			Op: algebra.CmpGE,
			L:  &calculus.TAttr{Var: "x", Name: "alcohol", Index: -1},
			R:  &calculus.TConst{V: value.Int(0)},
		}},
	}}
	return &rules.Rule{Name: "R1", Condition: cond, Action: rules.AbortAction()}
}

// ruleR2 is the paper's referential rule with its compensating action:
// WHEN INS(beer), DEL(brewery)
// IF NOT (∀x)(x∈beer ⇒ (∃y)(y∈brewery ∧ x.brewery = y.name))
// THEN temp := π_brewery(beer) − π_name(brewery);
//
//	insert(brewery, π_{name,null,null}(temp)).
func ruleR2() *rules.Rule {
	cond := &calculus.WQuant{Q: calculus.Forall, Var: "x", Body: &calculus.WImplies{
		L: &calculus.WAtom{A: &calculus.AMember{Var: "x", Rel: calculus.RelRef{Name: "beer"}}},
		R: &calculus.WQuant{Q: calculus.Exists, Var: "y", Body: &calculus.WAnd{
			L: &calculus.WAtom{A: &calculus.AMember{Var: "y", Rel: calculus.RelRef{Name: "brewery"}}},
			R: &calculus.WAtom{A: &calculus.ACompare{
				Op: algebra.CmpEQ,
				L:  &calculus.TAttr{Var: "x", Name: "brewery", Index: -1},
				R:  &calculus.TAttr{Var: "y", Name: "name", Index: -1},
			}},
		}},
	}}
	action := algebra.Program{
		&algebra.Assign{Temp: "temp", Expr: algebra.NewDiff(
			algebra.ProjectAttrs(algebra.NewRel("beer"), "brewery"),
			algebra.ProjectAttrs(algebra.NewRel("brewery"), "name"),
		)},
		&algebra.Insert{Rel: "brewery", Src: algebra.NewProject(
			algebra.NewTemp("temp"),
			[]algebra.Scalar{
				algebra.AttrByIndex(0),
				&algebra.Const{V: value.Null()},
				&algebra.Const{V: value.Null()},
			},
			[]string{"name", "city", "country"},
		)},
	}
	return &rules.Rule{Name: "R2", Condition: cond, Action: rules.CompensateAction(action, false)}
}

func beerTuple(name, typ, brewery string, alcohol int64) relation.Tuple {
	return relation.Tuple{value.String(name), value.String(typ), value.String(brewery), value.Int(alcohol)}
}

func newBeerSubsystem(t *testing.T, opts Options) (*Subsystem, *storage.Database) {
	t.Helper()
	sch := beerSchema(t)
	cat := rules.NewCatalog(sch)
	if err := cat.Add(ruleR1()); err != nil {
		t.Fatalf("add R1: %v", err)
	}
	if err := cat.Add(ruleR2()); err != nil {
		t.Fatalf("add R2: %v", err)
	}
	db := storage.New(sch)
	return New(cat, opts), db
}

func TestGeneratedTriggerSetsMatchPaper(t *testing.T) {
	sub, _ := newBeerSubsystem(t, Options{})
	r1, _ := sub.Catalog().Program("R1")
	if got, want := r1.Triggers.String(), "INS(beer)"; got != want {
		t.Errorf("R1 triggers = %q, want %q", got, want)
	}
	r2, _ := sub.Catalog().Program("R2")
	if got, want := r2.Triggers.String(), "INS(beer), DEL(brewery)"; got != want {
		t.Errorf("R2 triggers = %q, want %q", got, want)
	}
}

// TestExample51Modification reproduces Example 5.1: the single-insert
// transaction is extended with R1's alarm and R2's compensating statements.
func TestExample51Modification(t *testing.T) {
	sub, db := newBeerSubsystem(t, Options{})
	userTxn := txn.New(&algebra.Insert{
		Rel: "beer",
		Src: algebra.NewLit(mustSchema(db, "beer"), beerTuple("exportgold", "stout", "guineken", 6)),
	})

	modified, report, err := sub.Modify(userTxn)
	if err != nil {
		t.Fatalf("Modify: %v", err)
	}
	if report.Depth != 1 {
		t.Errorf("depth = %d, want 1", report.Depth)
	}
	if len(modified.Program) != 4 {
		t.Fatalf("modified program has %d statements, want 4:\n%s", len(modified.Program), modified)
	}
	if _, ok := modified.Program[1].(*algebra.Alarm); !ok {
		t.Errorf("statement 2 = %T, want *algebra.Alarm", modified.Program[1])
	}
	if _, ok := modified.Program[2].(*algebra.Assign); !ok {
		t.Errorf("statement 3 = %T, want *algebra.Assign", modified.Program[2])
	}
	if _, ok := modified.Program[3].(*algebra.Insert); !ok {
		t.Errorf("statement 4 = %T, want *algebra.Insert", modified.Program[3])
	}
	if got := report.RulesTriggered["R1"]; got != 1 {
		t.Errorf("R1 triggered %d times, want 1", got)
	}
	if got := report.RulesTriggered["R2"]; got != 1 {
		t.Errorf("R2 triggered %d times, want 1", got)
	}
}

func mustSchema(db *storage.Database, name string) *schema.Relation {
	rs, ok := db.Schema().Relation(name)
	if !ok {
		panic("missing schema " + name)
	}
	return rs
}

// TestExample51Execution runs the modified transaction: the missing brewery
// is compensated into existence and the transaction commits.
func TestExample51Execution(t *testing.T) {
	for _, diff := range []bool{false, true} {
		name := "full"
		if diff {
			name = "differential"
		}
		t.Run(name, func(t *testing.T) {
			sub, db := newBeerSubsystem(t, Options{UseDifferential: diff})
			exec := txn.NewExecutor(db)

			userTxn := txn.New(&algebra.Insert{
				Rel: "beer",
				Src: algebra.NewLit(mustSchema(db, "beer"), beerTuple("exportgold", "stout", "guineken", 6)),
			})
			modified, _, err := sub.Modify(userTxn)
			if err != nil {
				t.Fatalf("Modify: %v", err)
			}
			res, err := exec.Exec(modified)
			if err != nil {
				t.Fatalf("Exec: %v", err)
			}
			if !res.Committed {
				t.Fatalf("transaction aborted: %v", res.AbortReason)
			}
			breweries, _ := db.Relation("brewery")
			if breweries.Len() != 1 {
				t.Fatalf("brewery has %d tuples, want 1 (compensated)", breweries.Len())
			}
			got := breweries.SortedTuples()[0]
			if !got[0].Equal(value.String("guineken")) || !got[1].IsNull() || !got[2].IsNull() {
				t.Errorf("compensated brewery tuple = %v, want (\"guineken\", null, null)", got)
			}
		})
	}
}

// TestDomainViolationAborts checks the aborting path of R1: inserting a beer
// with negative alcohol must abort and leave the database unchanged.
func TestDomainViolationAborts(t *testing.T) {
	for _, diff := range []bool{false, true} {
		name := "full"
		if diff {
			name = "differential"
		}
		t.Run(name, func(t *testing.T) {
			sub, db := newBeerSubsystem(t, Options{UseDifferential: diff})
			exec := txn.NewExecutor(db)

			userTxn := txn.New(&algebra.Insert{
				Rel: "beer",
				Src: algebra.NewLit(mustSchema(db, "beer"), beerTuple("acid", "sour", "ghost", -1)),
			})
			modified, _, err := sub.Modify(userTxn)
			if err != nil {
				t.Fatalf("Modify: %v", err)
			}
			res, err := exec.Exec(modified)
			if err != nil {
				t.Fatalf("Exec: %v", err)
			}
			if res.Committed {
				t.Fatal("transaction committed despite domain violation")
			}
			v := res.Violation()
			if v == nil || v.Constraint != "R1" {
				t.Fatalf("violation = %v, want constraint R1", res.AbortReason)
			}
			beers, _ := db.Relation("beer")
			if beers.Len() != 0 {
				t.Errorf("beer has %d tuples after abort, want 0 (atomicity)", beers.Len())
			}
			if db.Time() != 0 {
				t.Errorf("logical time advanced to %d after abort, want 0", db.Time())
			}
		})
	}
}

// TestReadOnlyTransactionUnmodified checks that a transaction without
// updates triggers nothing.
func TestReadOnlyTransactionUnmodified(t *testing.T) {
	sub, _ := newBeerSubsystem(t, Options{})
	userTxn := txn.New(&algebra.Assign{Temp: "t", Expr: algebra.NewRel("beer")})
	modified, report, err := sub.Modify(userTxn)
	if err != nil {
		t.Fatalf("Modify: %v", err)
	}
	if len(modified.Program) != 1 {
		t.Errorf("modified program has %d statements, want 1", len(modified.Program))
	}
	if report.Depth != 0 {
		t.Errorf("depth = %d, want 0", report.Depth)
	}
}

// TestDeleteBreweryTriggersReferential checks the DEL(brewery) trigger path:
// deleting a brewery still referenced by beers runs the compensation, which
// re-creates the brewery tuple with nulls (the paper's compensating
// semantics: dangling references get a null-padded parent).
func TestDeleteBreweryTriggersReferential(t *testing.T) {
	sub, db := newBeerSubsystem(t, Options{})
	exec := txn.NewExecutor(db)

	brewerySchema := mustSchema(db, "brewery")
	seed := txn.New(
		&algebra.Insert{Rel: "brewery", Src: algebra.NewLit(brewerySchema,
			relation.Tuple{value.String("grolsch"), value.String("enschede"), value.String("nl")})},
		&algebra.Insert{Rel: "beer", Src: algebra.NewLit(mustSchema(db, "beer"),
			beerTuple("pilsner", "lager", "grolsch", 5))},
	)
	mod, _, err := sub.Modify(seed)
	if err != nil {
		t.Fatalf("Modify seed: %v", err)
	}
	if res, err := exec.Exec(mod); err != nil || !res.Committed {
		t.Fatalf("seed failed: res=%+v err=%v", res, err)
	}

	del := txn.New(&algebra.Delete{Rel: "brewery", Src: algebra.NewSelect(
		algebra.NewRel("brewery"),
		&algebra.Cmp{Op: algebra.CmpEQ, L: algebra.AttrByName("name"), R: &algebra.Const{V: value.String("grolsch")}},
	)})
	mod, report, err := sub.Modify(del)
	if err != nil {
		t.Fatalf("Modify delete: %v", err)
	}
	if got := report.RulesTriggered["R2"]; got != 1 {
		t.Fatalf("R2 triggered %d times, want 1", got)
	}
	if got := report.RulesTriggered["R1"]; got != 0 {
		t.Fatalf("R1 triggered %d times, want 0 (DEL(brewery) does not intersect INS(beer))", got)
	}
	res, err := exec.Exec(mod)
	if err != nil {
		t.Fatalf("Exec: %v", err)
	}
	if !res.Committed {
		t.Fatalf("aborted: %v", res.AbortReason)
	}
	breweries, _ := db.Relation("brewery")
	if breweries.Len() != 1 {
		t.Fatalf("brewery has %d tuples, want 1 (compensated back)", breweries.Len())
	}
	got := breweries.SortedTuples()[0]
	if !got[0].Equal(value.String("grolsch")) || !got[1].IsNull() {
		t.Errorf("compensated tuple = %v, want (\"grolsch\", null, null)", got)
	}
}

// TestDepthGuardReportsCycle builds a deliberately cyclic rule set — two
// compensating rules whose actions trigger each other — and checks that
// modification fails with a diagnostic instead of looping.
func TestDepthGuardReportsCycle(t *testing.T) {
	sch := beerSchema(t)
	cat := rules.NewCatalog(sch)

	mkCond := func(rel string) calculus.WFF {
		return &calculus.WQuant{Q: calculus.Forall, Var: "x", Body: &calculus.WImplies{
			L: &calculus.WAtom{A: &calculus.AMember{Var: "x", Rel: calculus.RelRef{Name: rel}}},
			R: &calculus.WAtom{A: &calculus.ACompare{
				Op: algebra.CmpEQ,
				L:  &calculus.TAttr{Var: "x", Index: 0},
				R:  &calculus.TAttr{Var: "x", Index: 0},
			}},
		}}
	}
	// A fires on INS(beer) and inserts into brewery; B fires on INS(brewery)
	// and inserts into beer.
	actionA := algebra.Program{&algebra.Insert{Rel: "brewery", Src: algebra.NewLit(
		mustRelSchema(sch, "brewery"),
		relation.Tuple{value.String("loop"), value.Null(), value.Null()})}}
	actionB := algebra.Program{&algebra.Insert{Rel: "beer", Src: algebra.NewLit(
		mustRelSchema(sch, "beer"),
		relation.Tuple{value.String("loop"), value.Null(), value.Null(), value.Int(1)})}}

	ruleA := &rules.Rule{Name: "A", Triggers: trigger.NewSet(trigger.Trigger{Update: trigger.INS, Rel: "beer"}),
		Condition: mkCond("beer"), Action: rules.CompensateAction(actionA, false)}
	ruleB := &rules.Rule{Name: "B", Triggers: trigger.NewSet(trigger.Trigger{Update: trigger.INS, Rel: "brewery"}),
		Condition: mkCond("brewery"), Action: rules.CompensateAction(actionB, false)}
	if err := cat.Add(ruleA); err != nil {
		t.Fatalf("add A: %v", err)
	}
	if err := cat.Add(ruleB); err != nil {
		t.Fatalf("add B: %v", err)
	}

	sub := New(cat, Options{})
	userTxn := txn.New(&algebra.Insert{Rel: "beer", Src: algebra.NewLit(
		mustRelSchema(sch, "beer"), beerTuple("x", "y", "z", 1))})
	_, _, err := sub.Modify(userTxn)
	if err == nil {
		t.Fatal("Modify succeeded on a cyclic rule set, want depth error")
	}
	if !strings.Contains(err.Error(), "cycle") {
		t.Errorf("error %q does not mention a cycle", err)
	}
}

// TestNonTriggeringBreaksCycle declares the cyclic actions non-triggering
// (Definition 6.2) and checks modification now terminates.
func TestNonTriggeringBreaksCycle(t *testing.T) {
	sch := beerSchema(t)
	cat := rules.NewCatalog(sch)
	cond := &calculus.WQuant{Q: calculus.Forall, Var: "x", Body: &calculus.WImplies{
		L: &calculus.WAtom{A: &calculus.AMember{Var: "x", Rel: calculus.RelRef{Name: "beer"}}},
		R: &calculus.WAtom{A: &calculus.ACompare{
			Op: algebra.CmpGE,
			L:  &calculus.TAttr{Var: "x", Name: "alcohol", Index: -1},
			R:  &calculus.TConst{V: value.Int(0)},
		}},
	}}
	action := algebra.Program{&algebra.Insert{Rel: "beer", Src: algebra.NewLit(
		mustRelSchema(sch, "beer"),
		relation.Tuple{value.String("self"), value.Null(), value.Null(), value.Int(0)})}}
	// The action inserts into beer, which is the rule's own trigger: a
	// self-loop unless declared non-triggering.
	rule := &rules.Rule{Name: "self", Condition: cond, Action: rules.CompensateAction(action, true)}
	if err := cat.Add(rule); err != nil {
		t.Fatalf("add: %v", err)
	}

	sub := New(cat, Options{})
	userTxn := txn.New(&algebra.Insert{Rel: "beer", Src: algebra.NewLit(
		mustRelSchema(sch, "beer"), beerTuple("a", "b", "c", 1))})
	modified, report, err := sub.Modify(userTxn)
	if err != nil {
		t.Fatalf("Modify: %v", err)
	}
	if report.Depth != 1 {
		t.Errorf("depth = %d, want 1 (non-triggering action stops recursion)", report.Depth)
	}
	if len(modified.Program) != 2 {
		t.Errorf("program has %d statements, want 2", len(modified.Program))
	}
}

func mustRelSchema(sch *schema.Database, name string) *schema.Relation {
	rs, ok := sch.Relation(name)
	if !ok {
		panic("missing schema " + name)
	}
	return rs
}
