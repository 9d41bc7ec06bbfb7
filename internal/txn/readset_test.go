package txn

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"repro/internal/algebra"
	"repro/internal/relation"
	"repro/internal/schema"
	"repro/internal/storage"
	"repro/internal/value"
)

// The parent/child pair with a referential join is the paper's running
// example; the read-set tests below pin down exactly which records each
// statement shape produces against it.
func parentSchemaT() *schema.Relation {
	return schema.MustRelation("parent",
		schema.Attribute{Name: "id", Type: value.KindInt},
		schema.Attribute{Name: "name", Type: value.KindString},
	)
}

func childSchemaT() *schema.Relation {
	return schema.MustRelation("child",
		schema.Attribute{Name: "id", Type: value.KindInt},
		schema.Attribute{Name: "parent", Type: value.KindInt},
	)
}

func parentT(id int64, name string) relation.Tuple {
	return relation.Tuple{value.Int(id), value.String(name)}
}

func childT(id, parent int64) relation.Tuple {
	return relation.Tuple{value.Int(id), value.Int(parent)}
}

// newPairStore builds a parent/child store; indexed adds parent(id) and
// child(parent) secondary equality indexes.
func newPairStore(t testing.TB, indexed bool) *storage.Database {
	t.Helper()
	db := storage.New(schema.MustDatabase(parentSchemaT(), childSchemaT()))
	if err := db.Load(relation.MustFromTuples(parentSchemaT(),
		parentT(1, "a"), parentT(2, "b"), parentT(3, "c"))); err != nil {
		t.Fatal(err)
	}
	if err := db.Load(relation.MustFromTuples(childSchemaT(),
		childT(10, 1), childT(11, 1), childT(12, 2))); err != nil {
		t.Fatal(err)
	}
	if indexed {
		if err := db.DefineIndex("parent", []int{0}); err != nil {
			t.Fatal(err)
		}
		if err := db.DefineIndex("child", []int{1}); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

// newRangeStore is newPairStore plus ordered indexes on parent(id) and
// child(id), so comparison selections range-probe.
func newRangeStore(t testing.TB, hashIndexed bool) *storage.Database {
	t.Helper()
	db := newPairStore(t, hashIndexed)
	if err := db.DefineOrderedIndex("parent", []int{0}); err != nil {
		t.Fatal(err)
	}
	if err := db.DefineOrderedIndex("child", []int{0}); err != nil {
		t.Fatal(err)
	}
	return db
}

// describeReads renders an overlay's read records as sorted
// "relation:kind" strings — full, keys=N, probes=SIG×N, or ranges=SIG×N —
// so tests can assert the exact record shape a statement produced.
func describeReads(o *Overlay) []string {
	var out []string
	for name, ri := range o.Reads() {
		switch {
		case ri.Full:
			out = append(out, name+":full")
		default:
			if len(ri.Keys) > 0 {
				out = append(out, fmt.Sprintf("%s:keys=%d", name, len(ri.Keys)))
			}
			var sigs []string
			for sig, pr := range ri.Probes {
				sigs = append(sigs, fmt.Sprintf("%s:probes=%s×%d", name, sig, len(pr.Keys)))
			}
			for sig, rr := range ri.Ranges {
				sigs = append(sigs, fmt.Sprintf("%s:ranges=%s×%d", name, sig, len(rr.Ranges)))
			}
			sort.Strings(sigs)
			out = append(out, sigs...)
			if len(ri.Keys) == 0 && len(ri.Probes) == 0 && len(ri.Ranges) == 0 {
				out = append(out, name+":empty")
			}
		}
	}
	sort.Strings(out)
	return out
}

// cmpConst builds "attr op const" over an int attribute.
func cmpConst(attr string, op algebra.CmpOp, v int64) algebra.Scalar {
	return &algebra.Cmp{Op: op, L: algebra.AttrByName(attr), R: &algebra.Const{V: value.Int(v)}}
}

// eqConst builds "attr = const" over an int attribute.
func eqConst(attr string, v int64) algebra.Scalar {
	return &algebra.Cmp{Op: algebra.CmpEQ, L: algebra.AttrByName(attr), R: &algebra.Const{V: value.Int(v)}}
}

// refPred is the referential join predicate child.parent = parent.id over
// concat(child, parent).
func refPred() algebra.Scalar {
	return &algebra.Cmp{Op: algebra.CmpEQ, L: algebra.AttrByIndex(1), R: algebra.AttrByIndex(2)}
}

func TestOverlayReadRecordsPerStatementShape(t *testing.T) {
	cases := []struct {
		name    string
		indexed bool
		run     func(t *testing.T, ov *Overlay)
		want    []string
	}{
		{
			name: "cur materialization is a full read",
			run: func(t *testing.T, ov *Overlay) {
				prog := algebra.Program{&algebra.Assign{Temp: "q", Expr: algebra.NewRel("parent")}}
				execProgram(t, ov, prog)
			},
			want: []string{"parent:full"},
		},
		{
			name: "insert records only the tuple key",
			run: func(t *testing.T, ov *Overlay) {
				prog := algebra.Program{&algebra.Insert{
					Rel: "parent",
					Src: algebra.NewLit(parentSchemaT(), parentT(9, "z")),
				}}
				execProgram(t, ov, prog)
			},
			want: []string{"parent:keys=1"},
		},
		{
			name: "reading the local differential records nothing",
			run: func(t *testing.T, ov *Overlay) {
				prog := algebra.Program{&algebra.Assign{Temp: "q", Expr: algebra.NewAuxRel("parent", algebra.AuxIns)}}
				execProgram(t, ov, prog)
			},
			want: nil,
		},
		{
			name: "equality selection without an index scans",
			run: func(t *testing.T, ov *Overlay) {
				prog := algebra.Program{&algebra.Assign{Temp: "q",
					Expr: algebra.NewSelect(algebra.NewRel("parent"), eqConst("id", 2))}}
				execProgram(t, ov, prog)
			},
			want: []string{"parent:full"},
		},
		{
			name:    "equality selection with an index probes one key",
			indexed: true,
			run: func(t *testing.T, ov *Overlay) {
				prog := algebra.Program{&algebra.Assign{Temp: "q",
					Expr: algebra.NewSelect(algebra.NewRel("parent"), eqConst("id", 2))}}
				execProgram(t, ov, prog)
			},
			want: []string{"parent:probes=0×1"},
		},
		{
			name: "semijoin(child, del(parent)) with empty delta reads nothing",
			run: func(t *testing.T, ov *Overlay) {
				prog := algebra.Program{&algebra.Assign{Temp: "q",
					Expr: algebra.NewSemiJoin(algebra.NewRel("child"), algebra.NewAuxRel("parent", algebra.AuxDel), refPred())}}
				execProgram(t, ov, prog)
			},
			want: nil,
		},
		{
			// The delete's selection scans parent (no index), so the whole
			// transaction's parent footprint degrades to a full read, and
			// the non-empty delta makes the semijoin scan child.
			name: "semijoin(child, del(parent)) without an index scans child",
			run: func(t *testing.T, ov *Overlay) {
				deleteParent(t, ov, parentT(3, "c"))
				prog := algebra.Program{&algebra.Assign{Temp: "q",
					Expr: algebra.NewSemiJoin(algebra.NewRel("child"), algebra.NewAuxRel("parent", algebra.AuxDel), refPred())}}
				execProgram(t, ov, prog)
			},
			want: []string{"child:full", "parent:full"},
		},
		{
			// With indexes the same transaction touches exactly three keys:
			// the probed parent id (selection), the deleted tuple's key, and
			// the probed child(parent) key of the enforcement semijoin.
			name:    "semijoin(child, del(parent)) with an index probes child",
			indexed: true,
			run: func(t *testing.T, ov *Overlay) {
				deleteParent(t, ov, parentT(3, "c"))
				prog := algebra.Program{&algebra.Assign{Temp: "q",
					Expr: algebra.NewSemiJoin(algebra.NewRel("child"), algebra.NewAuxRel("parent", algebra.AuxDel), refPred())}}
				execProgram(t, ov, prog)
			},
			want: []string{"child:probes=1×1", "parent:keys=1", "parent:probes=0×1"},
		},
		{
			name:    "antijoin(ins(child), parent) probes parent per new child",
			indexed: true,
			run: func(t *testing.T, ov *Overlay) {
				if err := ov.InsertTuples("child", relation.MustFromTuples(childSchemaT(), childT(13, 1), childT(14, 2))); err != nil {
					t.Fatal(err)
				}
				prog := algebra.Program{&algebra.Assign{Temp: "q",
					Expr: algebra.NewAntiJoin(algebra.NewAuxRel("child", algebra.AuxIns), algebra.NewRel("parent"), refPred())}}
				execProgram(t, ov, prog)
			},
			want: []string{"child:keys=2", "parent:probes=0×2"},
		},
		{
			name: "update equality without an index scans",
			run: func(t *testing.T, ov *Overlay) {
				prog := algebra.Program{&algebra.Update{
					Rel: "parent", Where: eqConst("id", 2),
					Sets: []algebra.SetClause{{Attr: "name", Expr: &algebra.Const{V: value.String("B")}}},
				}}
				execProgram(t, ov, prog)
			},
			want: []string{"parent:full"},
		},
		{
			// The update probes parent(id) for its candidates instead of
			// materializing the relation; the rewrite itself then records the
			// deleted and inserted tuple keys.
			name:    "update equality with an index probes one key",
			indexed: true,
			run: func(t *testing.T, ov *Overlay) {
				prog := algebra.Program{&algebra.Update{
					Rel: "parent", Where: eqConst("id", 2),
					Sets: []algebra.SetClause{{Attr: "name", Expr: &algebra.Const{V: value.String("B")}}},
				}}
				execProgram(t, ov, prog)
				if ov.Stats().TuplesDeleted != 1 || ov.Stats().TuplesInserted != 1 {
					t.Errorf("probed update rewrote del=%d ins=%d tuples, want 1/1",
						ov.Stats().TuplesDeleted, ov.Stats().TuplesInserted)
				}
				w, err := ov.Rel("parent", algebra.AuxIns)
				if err != nil {
					t.Fatal(err)
				}
				if !w.Contains(parentT(2, "B")) {
					t.Error("probed update did not produce the rewritten image")
				}
			},
			want: []string{"parent:keys=2", "parent:probes=0×1"},
		},
		{
			name:    "a full read subsumes earlier probes",
			indexed: true,
			run: func(t *testing.T, ov *Overlay) {
				prog := algebra.Program{
					&algebra.Assign{Temp: "q",
						Expr: algebra.NewSelect(algebra.NewRel("parent"), eqConst("id", 2))},
					&algebra.Assign{Temp: "r", Expr: algebra.NewRel("parent")},
				}
				execProgram(t, ov, prog)
			},
			want: []string{"parent:full"},
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			db := newPairStore(t, c.indexed)
			ov := NewOverlay(db)
			c.run(t, ov)
			got := describeReads(ov)
			if strings.Join(got, ";") != strings.Join(c.want, ";") {
				t.Errorf("read records = %v, want %v", got, c.want)
			}
		})
	}
}

// deleteParent deletes one parent tuple through an indexed-or-not equality
// selection, mirroring "delete(parent, select(parent, id = K))".
func deleteParent(t *testing.T, ov *Overlay, p relation.Tuple) {
	t.Helper()
	prog := algebra.Program{&algebra.Delete{
		Rel: "parent",
		Src: algebra.NewSelect(algebra.NewRel("parent"), eqConst("id", p[0].AsInt())),
	}}
	execProgram(t, ov, prog)
}

// execProgram type-checks and executes a program against the overlay.
func execProgram(t *testing.T, ov *Overlay, prog algebra.Program) {
	t.Helper()
	tenv := algebra.NewTypeEnv(ov.Base().Schema())
	if err := prog.TypeCheck(tenv); err != nil {
		t.Fatal(err)
	}
	if err := prog.Exec(ov); err != nil {
		t.Fatal(err)
	}
}

// TestOverlayRangeReadRecords pins the read-record shape of comparison
// selections — full vs probed-key vs interval read per statement shape —
// including the guarded semijoin of a deletion-side enforcement check
// before and after the ordered index exists.
func TestOverlayRangeReadRecords(t *testing.T) {
	cases := []struct {
		name  string
		store func(t testing.TB) *storage.Database
		run   func(t *testing.T, ov *Overlay)
		want  []string
	}{
		{
			name:  "range selection without an ordered index scans",
			store: func(t testing.TB) *storage.Database { return newPairStore(t, true) },
			run: func(t *testing.T, ov *Overlay) {
				execProgram(t, ov, algebra.Program{&algebra.Assign{Temp: "q",
					Expr: algebra.NewSelect(algebra.NewRel("parent"), cmpConst("id", algebra.CmpGE, 2))}})
			},
			want: []string{"parent:full"},
		},
		{
			name:  "range selection with an ordered index records one interval",
			store: func(t testing.TB) *storage.Database { return newRangeStore(t, false) },
			run: func(t *testing.T, ov *Overlay) {
				execProgram(t, ov, algebra.Program{&algebra.Assign{Temp: "q",
					Expr: algebra.NewSelect(algebra.NewRel("parent"), cmpConst("id", algebra.CmpGT, 1))}})
			},
			want: []string{"parent:ranges=0×1"},
		},
		{
			// An inclusive bound admits NaN data (Compare answers 0 for NaN
			// against any number), whose encodings a lower bound cuts off:
			// the probe records the main interval plus the NaN zone.
			name:  "inclusive lower bound splits off the NaN zone",
			store: func(t testing.TB) *storage.Database { return newRangeStore(t, false) },
			run: func(t *testing.T, ov *Overlay) {
				execProgram(t, ov, algebra.Program{&algebra.Assign{Temp: "q",
					Expr: algebra.NewSelect(algebra.NewRel("parent"), cmpConst("id", algebra.CmpGE, 2))}})
			},
			want: []string{"parent:ranges=0×2"},
		},
		{
			// A between-style conjunction tightens into a single interval.
			name:  "between selection records one interval",
			store: func(t testing.TB) *storage.Database { return newRangeStore(t, false) },
			run: func(t *testing.T, ov *Overlay) {
				pred := &algebra.And{
					L: cmpConst("id", algebra.CmpGE, 2),
					R: cmpConst("id", algebra.CmpLT, 3),
				}
				prog := algebra.Program{&algebra.Assign{Temp: "q",
					Expr: algebra.NewSelect(algebra.NewRel("parent"), pred)}}
				execProgram(t, ov, prog)
				q, err := ov.Temp("q")
				if err != nil {
					t.Fatal(err)
				}
				if q.Len() != 1 || !q.Contains(parentT(2, "b")) {
					t.Errorf("between probe returned %d tuples, want exactly parent 2", q.Len())
				}
			},
			want: []string{"parent:ranges=0×1"},
		},
		{
			// Enforcement guards arrive negated: ¬(id >= 2) must still plan
			// as a bounded probe (id < 2, widened to admit null) and record
			// one contiguous interval.
			name:  "negated guard records one interval",
			store: func(t testing.TB) *storage.Database { return newRangeStore(t, false) },
			run: func(t *testing.T, ov *Overlay) {
				execProgram(t, ov, algebra.Program{&algebra.Assign{Temp: "q",
					Expr: algebra.NewSelect(algebra.NewRel("parent"),
						&algebra.Not{X: cmpConst("id", algebra.CmpGE, 2)})}})
			},
			want: []string{"parent:ranges=0×1"},
		},
		{
			// ¬(id <= 2) is id > 2 or null: the null encoding sits below the
			// numeric band, so the probe records a null point interval plus
			// the open numeric interval.
			name:  "negated lower bound splits off the null interval",
			store: func(t testing.TB) *storage.Database { return newRangeStore(t, false) },
			run: func(t *testing.T, ov *Overlay) {
				execProgram(t, ov, algebra.Program{&algebra.Assign{Temp: "q",
					Expr: algebra.NewSelect(algebra.NewRel("parent"),
						&algebra.Not{X: cmpConst("id", algebra.CmpLE, 2)})}})
			},
			want: []string{"parent:ranges=0×2"},
		},
		{
			// The deletion-side enforcement shape with a comparison guard:
			// the delete's selection and the semijoin's guarded left side
			// scan without an ordered index, degrading child to a full read.
			name:  "guarded semijoin without an ordered index scans child",
			store: func(t testing.TB) *storage.Database { return newPairStore(t, true) },
			run: func(t *testing.T, ov *Overlay) {
				deleteParent(t, ov, parentT(3, "c"))
				execProgram(t, ov, algebra.Program{&algebra.Assign{Temp: "q",
					Expr: algebra.NewSemiJoin(
						algebra.NewSelect(algebra.NewRel("child"), cmpConst("id", algebra.CmpGT, 11)),
						algebra.NewAuxRel("parent", algebra.AuxDel), refPred())}})
			},
			want: []string{"child:full", "parent:keys=1", "parent:probes=0×1"},
		},
		{
			// Same transaction after CreateIndex("child(id) ordered"): the
			// guarded left side range-probes, so the whole footprint is one
			// probed parent key, the deleted tuple key, and one child
			// interval.
			name:  "guarded semijoin with an ordered index records an interval",
			store: func(t testing.TB) *storage.Database { return newRangeStore(t, true) },
			run: func(t *testing.T, ov *Overlay) {
				deleteParent(t, ov, parentT(3, "c"))
				execProgram(t, ov, algebra.Program{&algebra.Assign{Temp: "q",
					Expr: algebra.NewSemiJoin(
						algebra.NewSelect(algebra.NewRel("child"), cmpConst("id", algebra.CmpGT, 11)),
						algebra.NewAuxRel("parent", algebra.AuxDel), refPred())}})
			},
			want: []string{"child:ranges=0×1", "parent:keys=1", "parent:probes=0×1"},
		},
		{
			// An update whose Where is a comparison probes the ordered index
			// for its candidates; the rewrite then records the old and new
			// tuple keys.
			name:  "update with a range predicate records an interval",
			store: func(t testing.TB) *storage.Database { return newRangeStore(t, false) },
			run: func(t *testing.T, ov *Overlay) {
				prog := algebra.Program{&algebra.Update{
					Rel: "parent", Where: cmpConst("id", algebra.CmpGT, 2),
					Sets: []algebra.SetClause{{Attr: "name", Expr: &algebra.Const{V: value.String("C")}}},
				}}
				execProgram(t, ov, prog)
				if ov.Stats().TuplesDeleted != 1 || ov.Stats().TuplesInserted != 1 {
					t.Errorf("range update rewrote del=%d ins=%d tuples, want 1/1",
						ov.Stats().TuplesDeleted, ov.Stats().TuplesInserted)
				}
				w, err := ov.Rel("parent", algebra.AuxIns)
				if err != nil {
					t.Fatal(err)
				}
				if !w.Contains(parentT(3, "C")) {
					t.Error("range update did not produce the rewritten image")
				}
			},
			want: []string{"parent:keys=2", "parent:ranges=0×1"},
		},
		{
			name:  "a full read subsumes earlier interval reads",
			store: func(t testing.TB) *storage.Database { return newRangeStore(t, false) },
			run: func(t *testing.T, ov *Overlay) {
				execProgram(t, ov, algebra.Program{
					&algebra.Assign{Temp: "q",
						Expr: algebra.NewSelect(algebra.NewRel("parent"), cmpConst("id", algebra.CmpLT, 2))},
					&algebra.Assign{Temp: "r", Expr: algebra.NewRel("parent")},
				})
			},
			want: []string{"parent:full"},
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			db := c.store(t)
			ov := NewOverlay(db)
			c.run(t, ov)
			got := describeReads(ov)
			if strings.Join(got, ";") != strings.Join(c.want, ";") {
				t.Errorf("read records = %v, want %v", got, c.want)
			}
		})
	}
}

// TestRangeKindMismatchKeepsScanError: a comparison whose constant kind
// cannot be ordered against the column's data must fail identically with
// and without an ordered index — the probe path may not turn the scan
// path's comparison error into a silent empty result.
func TestRangeKindMismatchKeepsScanError(t *testing.T) {
	for _, indexed := range []bool{false, true} {
		// indexed=true builds both the hash and the ordered index, so both
		// probe paths are shown to stay on the erroring scan path.
		db := newPairStore(t, indexed)
		if indexed {
			if err := db.DefineOrderedIndex("parent", []int{0}); err != nil {
				t.Fatal(err)
			}
		}
		for name, pred := range map[string]algebra.Scalar{
			"column vs mismatched constant": &algebra.Cmp{Op: algebra.CmpLT,
				L: algebra.AttrByName("id"), R: &algebra.Const{V: value.String("x")}},
			// The bad conjunct sits on one column while the indexable range
			// sits on another whose interval matches nothing: a probe
			// planned despite the poison would silently return empty
			// instead of erroring.
			"poison on one column, empty probe on another": &algebra.And{
				L: &algebra.Cmp{Op: algebra.CmpLT,
					L: algebra.AttrByName("name"), R: &algebra.Const{V: value.Int(3)}},
				R: &algebra.Cmp{Op: algebra.CmpGT,
					L: algebra.AttrByName("id"), R: &algebra.Const{V: value.Int(1000)}},
			},
			// Attr-vs-attr incomparable ordering is never a bound, but it
			// errors on scan all the same.
			"incomparable columns beside an empty probe": &algebra.And{
				L: &algebra.Cmp{Op: algebra.CmpLT,
					L: algebra.AttrByName("name"), R: algebra.AttrByName("id")},
				R: &algebra.Cmp{Op: algebra.CmpGT,
					L: algebra.AttrByName("id"), R: &algebra.Const{V: value.Int(1000)}},
			},
			// Division errors at evaluation; a probe must not skip the
			// tuples that would raise it. Gates the range path here and the
			// hash path via the equality conjunct.
			"division by zero beside an empty range probe": &algebra.And{
				L: &algebra.Cmp{Op: algebra.CmpGT,
					L: &algebra.Arith{Op: value.OpDiv, L: algebra.AttrByName("id"), R: &algebra.Const{V: value.Int(0)}},
					R: &algebra.Const{V: value.Int(1)}},
				R: &algebra.Cmp{Op: algebra.CmpGT,
					L: algebra.AttrByName("id"), R: &algebra.Const{V: value.Int(1000)}},
			},
			"division by zero beside an absent-key equality probe": &algebra.And{
				L: &algebra.Cmp{Op: algebra.CmpGT,
					L: &algebra.Arith{Op: value.OpDiv, L: algebra.AttrByName("id"), R: &algebra.Const{V: value.Int(0)}},
					R: &algebra.Const{V: value.Int(1)}},
				R: eqConst("id", 777),
			},
		} {
			ov := NewOverlay(db)
			prog := algebra.Program{&algebra.Assign{Temp: "q",
				Expr: algebra.NewSelect(algebra.NewRel("parent"), pred)}}
			tenv := algebra.NewTypeEnv(ov.Base().Schema())
			if err := prog.TypeCheck(tenv); err != nil {
				t.Fatal(err)
			}
			if err := prog.Exec(ov); err == nil {
				t.Errorf("indexed=%v, %s: succeeded, want comparison error", indexed, name)
			}
		}
	}
}

// TestRangeProbeSeesOwnWrites: a range probe against the current
// incarnation must overlay the transaction's uncommitted inserts and
// deletes on the snapshot's ordered index.
func TestRangeProbeSeesOwnWrites(t *testing.T) {
	db := newRangeStore(t, false)
	ov := NewOverlay(db)
	if err := ov.DeleteTuples("child", relation.MustFromTuples(childSchemaT(), childT(11, 1))); err != nil {
		t.Fatal(err)
	}
	if err := ov.InsertTuples("child", relation.MustFromTuples(childSchemaT(), childT(13, 2))); err != nil {
		t.Fatal(err)
	}
	prog := algebra.Program{&algebra.Assign{Temp: "q",
		Expr: algebra.NewSelect(algebra.NewRel("child"), cmpConst("id", algebra.CmpGE, 11))}}
	execProgram(t, ov, prog)
	q, err := ov.Temp("q")
	if err != nil {
		t.Fatal(err)
	}
	ids := map[int64]bool{}
	_ = q.ForEach(func(tt relation.Tuple) error {
		ids[tt[0].AsInt()] = true
		return nil
	})
	if len(ids) != 2 || !ids[12] || !ids[13] {
		t.Errorf("range probe over own writes = %v, want {12, 13}", ids)
	}
	// old(child) ignores the local writes.
	prog = algebra.Program{&algebra.Assign{Temp: "r",
		Expr: algebra.NewSelect(algebra.NewAuxRel("child", algebra.AuxOld), cmpConst("id", algebra.CmpGE, 11))}}
	execProgram(t, ov, prog)
	r, err := ov.Temp("r")
	if err != nil {
		t.Fatal(err)
	}
	if r.Len() != 2 {
		t.Errorf("old range probe = %d tuples, want the snapshot's 2", r.Len())
	}
}

// TestDisjointIntervalMergeCommit is the engine-level statement of the PR's
// acceptance criterion: a transaction that probed the interval id < 5 must
// merge-commit with a concurrent writer of id = 500 — the write projects
// outside the probed interval, so tuple-granular validation has no
// dependency to protect.
func TestDisjointIntervalMergeCommit(t *testing.T) {
	db := newRangeStore(t, false)
	seq := NewSequencer(db)

	// T1: threshold-guarded check (observes that no child has id < 5) plus
	// an insert into the same relation, so the concurrent disjoint delta
	// must be merged into its write set at commit.
	ov1 := NewOverlay(db)
	execProgram(t, ov1, algebra.Program{&algebra.Assign{Temp: "q",
		Expr: algebra.NewSelect(algebra.NewRel("child"), cmpConst("id", algebra.CmpLT, 5))}})
	if err := ov1.InsertTuples("child", relation.MustFromTuples(childSchemaT(), childT(6, 1))); err != nil {
		t.Fatal(err)
	}

	// T2: concurrent writer far outside the probed interval.
	ov2 := NewOverlay(db)
	if err := ov2.InsertTuples("child", relation.MustFromTuples(childSchemaT(), childT(500, 1))); err != nil {
		t.Fatal(err)
	}
	if _, conflict, err := seq.TryCommit(ov2); err != nil || conflict != nil {
		t.Fatalf("T2: conflict=%v err=%v", conflict, err)
	}
	if _, conflict, err := seq.TryCommit(ov1); err != nil || conflict != nil {
		t.Fatalf("T1 should merge-commit past a disjoint-interval writer, got conflict=%v err=%v", conflict, err)
	}
	if got := db.Stats().MergedCommits; got != 1 {
		t.Errorf("MergedCommits = %d, want 1", got)
	}

	// The converse: a writer inside the probed interval must still conflict.
	ov3 := NewOverlay(db)
	execProgram(t, ov3, algebra.Program{&algebra.Assign{Temp: "q",
		Expr: algebra.NewSelect(algebra.NewRel("child"), cmpConst("id", algebra.CmpLT, 5))}})
	if err := ov3.InsertTuples("child", relation.MustFromTuples(childSchemaT(), childT(7, 1))); err != nil {
		t.Fatal(err)
	}
	ov4 := NewOverlay(db)
	if err := ov4.InsertTuples("child", relation.MustFromTuples(childSchemaT(), childT(3, 1))); err != nil {
		t.Fatal(err)
	}
	if _, conflict, err := seq.TryCommit(ov4); err != nil || conflict != nil {
		t.Fatalf("T4: conflict=%v err=%v", conflict, err)
	}
	_, conflict, err := seq.TryCommit(ov3)
	if err != nil {
		t.Fatal(err)
	}
	if conflict == nil {
		t.Fatal("T3 probed an interval a concurrent commit wrote into and still committed")
	}
}

// TestProbedOverlaySeesOwnWrites: a probe against the current incarnation
// must overlay the transaction's uncommitted inserts and deletes on the
// snapshot index.
func TestProbedOverlaySeesOwnWrites(t *testing.T) {
	db := newPairStore(t, true)
	ov := NewOverlay(db)
	// Delete child 10 (parent 1) and insert child 20 (parent 1).
	if err := ov.DeleteTuples("child", relation.MustFromTuples(childSchemaT(), childT(10, 1))); err != nil {
		t.Fatal(err)
	}
	if err := ov.InsertTuples("child", relation.MustFromTuples(childSchemaT(), childT(20, 1))); err != nil {
		t.Fatal(err)
	}
	got, err := ov.Probe("child", algebra.AuxCur, []int{1}, []value.Value{value.Int(1)})
	if err != nil {
		t.Fatal(err)
	}
	ids := map[int64]bool{}
	for _, tt := range got {
		ids[tt[0].AsInt()] = true
	}
	if len(ids) != 2 || !ids[11] || !ids[20] {
		t.Errorf("probe over own writes = %v, want {11, 20}", ids)
	}
	// old(child) ignores the local writes.
	got, err = ov.Probe("child", algebra.AuxOld, []int{1}, []value.Value{value.Int(1)})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Errorf("old probe = %d tuples, want the snapshot's 2", len(got))
	}
}

// TestDisjointProbesMergeCommit is the engine-level statement of the PR's
// acceptance criterion: two transactions that delete different parents —
// each probing its own parent key and its own child probe key through the
// indexes — must both commit, the second by merging the first's disjoint
// delta, with no conflict.
func TestDisjointProbesMergeCommit(t *testing.T) {
	db := newPairStore(t, true)
	seq := NewSequencer(db)

	mkDelete := func(id int64, name string) *Overlay {
		ov := NewOverlay(db)
		deleteParent(t, ov, parentT(id, name))
		// The enforcement-shaped check: no child may reference the deleted
		// parent (parent 3 has no children; the probe observes absence).
		prog := algebra.Program{&algebra.Assign{Temp: "orphans",
			Expr: algebra.NewSemiJoin(algebra.NewRel("child"), algebra.NewAuxRel("parent", algebra.AuxDel), refPred())}}
		execProgram(t, ov, prog)
		return ov
	}

	// Parent 3 has no children; add a second childless parent.
	if err := db.Load(relation.MustFromTuples(parentSchemaT(),
		parentT(1, "a"), parentT(2, "b"), parentT(3, "c"), parentT(4, "d"))); err != nil {
		t.Fatal(err)
	}

	ov1 := mkDelete(3, "c")
	ov2 := mkDelete(4, "d")

	if _, conflict, err := seq.TryCommit(ov1); err != nil || conflict != nil {
		t.Fatalf("first commit: conflict=%v err=%v", conflict, err)
	}
	if _, conflict, err := seq.TryCommit(ov2); err != nil || conflict != nil {
		t.Fatalf("second commit should merge, got conflict=%v err=%v", conflict, err)
	}
	if got := db.Stats().MergedCommits; got != 1 {
		t.Errorf("MergedCommits = %d, want 1", got)
	}
	r, err := db.Relation("parent")
	if err != nil {
		t.Fatal(err)
	}
	if r.Len() != 2 {
		t.Errorf("parent has %d tuples after both deletes, want 2", r.Len())
	}
	// And a probe against the fresh snapshot sees the maintained index.
	x := db.Snapshot().IndexSet("parent").Exact([]int{0})
	if x == nil || len(x.Probe(parentT(3, "c").KeyOn(x.Cols()))) != 0 || len(x.Probe(parentT(1, "a").KeyOn(x.Cols()))) != 1 {
		t.Error("parent(id) index not maintained through the merge commit")
	}
}

// TestProbeConflictStillDetected: the probe footprint must not be too
// small — a transaction that probed a key a concurrent commit wrote must
// still lose validation.
func TestProbeConflictStillDetected(t *testing.T) {
	db := newPairStore(t, true)
	seq := NewSequencer(db)

	// T1 probes child[parent=1] (sees children 10, 11) while deciding to
	// insert a bookkeeping parent; T2 concurrently inserts child(15, 1).
	ov1 := NewOverlay(db)
	prog := algebra.Program{&algebra.Assign{Temp: "q",
		Expr: algebra.NewSelect(algebra.NewRel("child"), eqConst("parent", 1))}}
	execProgram(t, ov1, prog)
	if err := ov1.InsertTuples("parent", relation.MustFromTuples(parentSchemaT(), parentT(9, "z"))); err != nil {
		t.Fatal(err)
	}

	ov2 := NewOverlay(db)
	if err := ov2.InsertTuples("child", relation.MustFromTuples(childSchemaT(), childT(15, 1))); err != nil {
		t.Fatal(err)
	}
	if _, conflict, err := seq.TryCommit(ov2); err != nil || conflict != nil {
		t.Fatalf("T2: conflict=%v err=%v", conflict, err)
	}
	_, conflict, err := seq.TryCommit(ov1)
	if err != nil {
		t.Fatal(err)
	}
	if conflict == nil {
		t.Fatal("T1 probed a written key and still committed")
	}
}
