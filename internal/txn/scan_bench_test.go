package txn

import (
	"testing"

	"repro/internal/algebra"
	"repro/internal/relation"
	"repro/internal/schema"
	"repro/internal/storage"
	"repro/internal/value"
)

// BenchmarkScanSelect times the per-tuple scan loop of an unindexed
// statement, run through an Overlay over a 4 000-row (id, item, qty)
// relation: a selection on the key and an update of one row by its key.
// Without an index both read every tuple and evaluate the predicate on it,
// which is what a residual check or a delete by selection costs per tuple.
func BenchmarkScanSelect(b *testing.B) {
	const rows = 4000
	rs := schema.MustRelation("ord",
		schema.Attribute{Name: "id", Type: value.KindInt},
		schema.Attribute{Name: "item", Type: value.KindInt},
		schema.Attribute{Name: "qty", Type: value.KindInt},
	)
	sch := schema.MustDatabase(rs)
	db := storage.New(sch)
	r := relation.New(rs)
	for i := int64(0); i < rows; i++ {
		r.InsertUnchecked(relation.Tuple{value.Int(i), value.Int(i % 64), value.Int(i % 10)})
	}
	if err := db.Load(r); err != nil {
		b.Fatal(err)
	}
	idEq := func() algebra.Scalar {
		return &algebra.Cmp{Op: algebra.CmpEQ, L: algebra.AttrByName("id"), R: &algebra.Const{V: value.Int(rows / 2)}}
	}
	for _, bc := range []struct {
		name string
		stmt algebra.Stmt
	}{
		{"select", &algebra.Assign{Temp: "t", Expr: &algebra.Select{In: algebra.NewRel("ord"), Pred: idEq()}}},
		{"update", &algebra.Update{Rel: "ord", Where: idEq(), Sets: []algebra.SetClause{{
			Attr: "qty",
			Expr: &algebra.Arith{Op: value.OpAdd, L: algebra.AttrByName("qty"), R: &algebra.Const{V: value.Int(1)}},
		}}}},
	} {
		if err := bc.stmt.TypeCheck(algebra.NewTypeEnv(sch)); err != nil {
			b.Fatal(err)
		}
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for range b.N {
				if err := bc.stmt.Exec(NewOverlay(db)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
