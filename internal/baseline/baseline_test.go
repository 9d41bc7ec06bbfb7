package baseline_test

import (
	"strings"
	"testing"

	"repro/internal/algebra"
	"repro/internal/baseline"
	"repro/internal/lang"
	"repro/internal/relation"
	"repro/internal/rules"
	"repro/internal/schema"
	"repro/internal/storage"
	"repro/internal/txn"
	"repro/internal/value"
)

func setup(t *testing.T) (*rules.Catalog, *txn.Executor, *schema.Relation) {
	t.Helper()
	rs := schema.MustRelation("r",
		schema.Attribute{Name: "a", Type: value.KindInt},
		schema.Attribute{Name: "b", Type: value.KindInt},
	)
	db := schema.MustDatabase(rs)
	cat := rules.NewCatalog(db)
	rule, err := lang.ParseRule("pos", `if not forall x (x in r implies x.a >= 0) then abort`, db)
	if err != nil {
		t.Fatal(err)
	}
	if err := cat.Add(rule); err != nil {
		t.Fatal(err)
	}
	return cat, txn.NewExecutor(storage.New(db)), rs
}

func insertTxn(rs *schema.Relation, a, b int64) *txn.Transaction {
	return txn.New(&algebra.Insert{
		Rel: "r",
		Src: algebra.NewLit(rs, relation.Tuple{value.Int(a), value.Int(b)}),
	})
}

func TestPostHocAcceptsValid(t *testing.T) {
	for _, aware := range []bool{false, true} {
		cat, exec, rs := setup(t)
		ph := baseline.NewPostHoc(cat, aware)
		res, err := ph.Exec(exec, insertTxn(rs, 5, 1))
		if err != nil {
			t.Fatal(err)
		}
		if !res.Committed {
			t.Fatalf("aware=%v: valid insert aborted: %v", aware, res.AbortReason)
		}
	}
}

func TestPostHocRejectsViolation(t *testing.T) {
	for _, aware := range []bool{false, true} {
		cat, exec, rs := setup(t)
		ph := baseline.NewPostHoc(cat, aware)
		res, err := ph.Exec(exec, insertTxn(rs, -5, 1))
		if err != nil {
			t.Fatal(err)
		}
		if res.Committed {
			t.Fatalf("aware=%v: violation committed", aware)
		}
		if v := res.Violation(); v == nil || v.Constraint != "pos" {
			t.Errorf("aware=%v: violation = %v", aware, res.AbortReason)
		}
		// Abort means untouched state.
		r, _ := exec.DB().Relation("r")
		if r.Len() != 0 {
			t.Errorf("aware=%v: state leaked after post-hoc abort", aware)
		}
	}
}

func TestTriggerAwareSkipsUnrelatedRules(t *testing.T) {
	cat, exec, rs := setup(t)
	// Add a rule on a different relation; a trigger-aware post-hoc check of
	// an r-only transaction must not evaluate it (we prove it indirectly: a
	// deliberately violated s-rule is ignored when only r is touched).
	ss := schema.MustRelation("s", schema.Attribute{Name: "k", Type: value.KindInt})
	if err := cat.Schema().Add(ss); err != nil {
		t.Fatal(err)
	}
	if err := exec.DB().AddRelation(ss); err != nil {
		t.Fatal(err)
	}
	sRule, err := lang.ParseRule("sEmpty", `if not CNT(s) <= 0 then abort`, cat.Schema())
	if err != nil {
		t.Fatal(err)
	}
	if err := cat.Add(sRule); err != nil {
		t.Fatal(err)
	}
	// Violate sEmpty outside any checked transaction.
	loaded := relation.MustFromTuples(ss, relation.Tuple{value.Int(1)})
	if err := exec.DB().Load(loaded); err != nil {
		t.Fatal(err)
	}

	aware := baseline.NewPostHoc(cat, true)
	res, err := aware.Exec(exec, insertTxn(rs, 5, 1))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Committed {
		t.Fatalf("trigger-aware check evaluated unrelated rule: %v", res.AbortReason)
	}

	full := baseline.NewPostHoc(cat, false)
	res, err = full.Exec(exec, insertTxn(rs, 6, 1))
	if err != nil {
		t.Fatal(err)
	}
	if res.Committed {
		t.Fatal("exhaustive post-hoc check missed the violated unrelated rule")
	}
}

func TestPostHocRejectsCompensatingRules(t *testing.T) {
	cat, exec, rs := setup(t)
	comp, err := lang.ParseRule("fix", `
		if not forall x (x in r implies x.b >= 0)
		then delete(r, select(r, b < 0))`, cat.Schema())
	if err != nil {
		t.Fatal(err)
	}
	if err := cat.Add(comp); err != nil {
		t.Fatal(err)
	}
	ph := baseline.NewPostHoc(cat, false)
	res, err := ph.Exec(exec, insertTxn(rs, 1, 1))
	if err != nil {
		t.Fatal(err)
	}
	if res.Committed {
		t.Fatal("post-hoc checker silently accepted a compensating rule")
	}
	if res.AbortReason == nil || !strings.Contains(res.AbortReason.Error(), "compensating") {
		t.Errorf("abort reason = %v, want compensating-rule rejection", res.AbortReason)
	}
	if r, _ := exec.DB().Relation("r"); r.Len() != 0 || exec.DB().Time() != 0 {
		t.Errorf("refused catalog still ran the transaction: %d tuples at t=%d", r.Len(), exec.DB().Time())
	}
}
