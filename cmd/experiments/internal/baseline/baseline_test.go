package baseline_test

import (
	"strings"
	"testing"

	"repro/cmd/experiments/internal/baseline"
	"repro/internal/algebra"
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
	cat, exec, rs := setup(t)
	res, err := baseline.NewPostHoc(cat).Exec(exec, insertTxn(rs, 5, 1))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Committed {
		t.Fatalf("valid insert aborted: %v", res.AbortReason)
	}
}

func TestPostHocRejectsViolation(t *testing.T) {
	cat, exec, rs := setup(t)
	res, err := baseline.NewPostHoc(cat).Exec(exec, insertTxn(rs, -5, 1))
	if err != nil {
		t.Fatal(err)
	}
	if res.Committed {
		t.Fatal("violation committed")
	}
	if v := res.Violation(); v == nil || v.Constraint != "pos" {
		t.Errorf("violation = %v", res.AbortReason)
	}
	// Abort means untouched state.
	r, _ := exec.DB().Relation("r")
	if r.Len() != 0 {
		t.Error("state leaked after post-hoc abort")
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
	res, err := baseline.NewPostHoc(cat).Exec(exec, insertTxn(rs, 1, 1))
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
