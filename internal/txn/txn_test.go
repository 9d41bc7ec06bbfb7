package txn

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"

	"repro/internal/algebra"
	"repro/internal/relation"
	"repro/internal/schema"
	"repro/internal/storage"
	"repro/internal/value"
)

func itemSchema() *schema.Relation {
	return schema.MustRelation("item",
		schema.Attribute{Name: "id", Type: value.KindInt},
		schema.Attribute{Name: "qty", Type: value.KindInt},
	)
}

func item(id, qty int64) relation.Tuple {
	return relation.Tuple{value.Int(id), value.Int(qty)}
}

func newStore(t testing.TB, seed ...relation.Tuple) *storage.Database {
	t.Helper()
	sch := schema.MustDatabase(itemSchema())
	db := storage.New(sch)
	if len(seed) > 0 {
		if err := db.Load(relation.MustFromTuples(itemSchema(), seed...)); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

func lit(rows ...relation.Tuple) algebra.Expr {
	return algebra.NewLit(itemSchema(), rows...)
}

func TestCommitInstallsNextState(t *testing.T) {
	db := newStore(t, item(1, 10))
	exec := NewExecutor(db)
	res, err := exec.Exec(New(&algebra.Insert{Rel: "item", Src: lit(item(2, 20))}))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Committed {
		t.Fatalf("aborted: %v", res.AbortReason)
	}
	if db.Time() != 1 {
		t.Errorf("logical time = %d, want 1", db.Time())
	}
	r, _ := db.Relation("item")
	if r.Len() != 2 {
		t.Errorf("item count = %d, want 2", r.Len())
	}
	if res.Stats.TuplesInserted != 1 {
		t.Errorf("stats inserted = %d, want 1", res.Stats.TuplesInserted)
	}
}

// TestSelfReferentialStatements: a statement's source expression may
// evaluate to the relation (or differential) the mutation itself changes —
// delete(R, R) empties R, insert(R, del(R)) restores what the transaction
// deleted. The overlay must detach such aliases before iterating (the trie
// forbids mutation during a range; the old map backing merely tolerated
// it).
func TestSelfReferentialStatements(t *testing.T) {
	t.Run("delete R from R empties it", func(t *testing.T) {
		db := newStore(t, item(1, 10), item(2, 20), item(3, 30))
		exec := NewExecutor(db)
		res, err := exec.Exec(New(
			// Materialize the working instance first so src aliases it.
			&algebra.Delete{Rel: "item", Src: lit(item(1, 10))},
			&algebra.Delete{Rel: "item", Src: algebra.NewRel("item")},
		))
		if err != nil {
			t.Fatal(err)
		}
		if !res.Committed {
			t.Fatalf("aborted: %v", res.AbortReason)
		}
		r, _ := db.Relation("item")
		if r.Len() != 0 {
			t.Errorf("item count = %d, want 0", r.Len())
		}
		if res.Stats.TuplesDeleted != 3 {
			t.Errorf("deleted = %d, want 3", res.Stats.TuplesDeleted)
		}
	})
	t.Run("insert del(R) back into R cancels the delete", func(t *testing.T) {
		db := newStore(t, item(1, 10), item(2, 20))
		exec := NewExecutor(db)
		res, err := exec.Exec(New(
			&algebra.Delete{Rel: "item", Src: lit(item(1, 10), item(2, 20))},
			&algebra.Insert{Rel: "item", Src: algebra.NewAuxRel("item", algebra.AuxDel)},
		))
		if err != nil {
			t.Fatal(err)
		}
		if !res.Committed {
			t.Fatalf("aborted: %v", res.AbortReason)
		}
		r, _ := db.Relation("item")
		if r.Len() != 2 {
			t.Errorf("item count = %d, want 2", r.Len())
		}
		if db.Time() != 1 {
			t.Errorf("logical time = %d, want 1 (cancelled deltas still commit)", db.Time())
		}
	})
	t.Run("delete ins(R) from R cancels the insert", func(t *testing.T) {
		db := newStore(t, item(1, 10))
		exec := NewExecutor(db)
		res, err := exec.Exec(New(
			&algebra.Insert{Rel: "item", Src: lit(item(2, 20), item(3, 30))},
			&algebra.Delete{Rel: "item", Src: algebra.NewAuxRel("item", algebra.AuxIns)},
		))
		if err != nil {
			t.Fatal(err)
		}
		if !res.Committed {
			t.Fatalf("aborted: %v", res.AbortReason)
		}
		r, _ := db.Relation("item")
		if r.Len() != 1 {
			t.Errorf("item count = %d, want 1", r.Len())
		}
	})
}

func TestAbortLeavesStateUntouched(t *testing.T) {
	db := newStore(t, item(1, 10))
	exec := NewExecutor(db)
	res, err := exec.Exec(New(
		&algebra.Insert{Rel: "item", Src: lit(item(2, 20))},
		&algebra.Abort{Constraint: "why"},
		&algebra.Insert{Rel: "item", Src: lit(item(3, 30))}, // never runs
	))
	if err != nil {
		t.Fatal(err)
	}
	if res.Committed {
		t.Fatal("committed through an abort statement")
	}
	v := res.Violation()
	if v == nil || v.Constraint != "why" {
		t.Errorf("violation = %v", res.AbortReason)
	}
	r, _ := db.Relation("item")
	if r.Len() != 1 || db.Time() != 0 {
		t.Errorf("state changed after abort: len=%d time=%d", r.Len(), db.Time())
	}
	if res.Stats.Statements != 2 {
		t.Errorf("statements run = %d, want 2 (third never executes)", res.Stats.Statements)
	}
}

func TestAlarmFiresOnlyWhenNonEmpty(t *testing.T) {
	db := newStore(t, item(1, 10), item(2, -5))
	exec := NewExecutor(db)
	negative := algebra.NewSelect(algebra.NewRel("item"),
		&algebra.Cmp{Op: algebra.CmpLT, L: algebra.AttrByName("qty"), R: &algebra.Const{V: value.Int(0)}})
	res, err := exec.Exec(New(&algebra.Alarm{Expr: negative, Constraint: "nonneg"}))
	if err != nil {
		t.Fatal(err)
	}
	if res.Committed {
		t.Fatal("alarm with witnesses did not abort")
	}
	if v := res.Violation(); v == nil || v.Witnesses != 1 {
		t.Errorf("violation = %v, want 1 witness", res.AbortReason)
	}

	// Remove the offender; the same alarm now passes.
	db2 := newStore(t, item(1, 10))
	exec2 := NewExecutor(db2)
	res, err = exec2.Exec(New(&algebra.Alarm{Expr: algebra.CloneExpr(negative), Constraint: "nonneg"}))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Committed {
		t.Fatalf("clean alarm aborted: %v", res.AbortReason)
	}
}

func TestTypeErrorRejectsBeforeExecution(t *testing.T) {
	db := newStore(t, item(1, 10))
	exec := NewExecutor(db)
	_, err := exec.Exec(New(&algebra.Insert{Rel: "missing", Src: lit(item(1, 1))}))
	if err == nil {
		t.Fatal("transaction against unknown relation accepted")
	}
	r, _ := db.Relation("item")
	if r.Len() != 1 {
		t.Error("rejected transaction changed state")
	}
}

func TestTempsAreTransactionLocal(t *testing.T) {
	db := newStore(t, item(1, 10))
	exec := NewExecutor(db)
	res, err := exec.Exec(New(
		&algebra.Assign{Temp: "snapshot", Expr: algebra.NewRel("item")},
		&algebra.Insert{Rel: "item", Src: algebra.NewTemp("snapshot")}, // no-op: same tuples
	))
	if err != nil || !res.Committed {
		t.Fatalf("res=%+v err=%v", res, err)
	}
	// A later transaction must not see the temp.
	_, err = exec.Exec(New(&algebra.Insert{Rel: "item", Src: algebra.NewTemp("snapshot")}))
	if err == nil {
		t.Error("temp relation survived across transactions")
	}
}

func TestOldStateVisibleDuringTransaction(t *testing.T) {
	db := newStore(t, item(1, 10))
	exec := NewExecutor(db)
	// Delete everything, then alarm if old(item) and item differ in count —
	// old must still show the pre-transaction tuple.
	oldMinusCur := algebra.NewDiff(
		algebra.NewAuxRel("item", algebra.AuxOld),
		algebra.NewRel("item"),
	)
	res, err := exec.Exec(New(
		&algebra.Delete{Rel: "item", Src: algebra.NewRel("item")},
		&algebra.Alarm{Expr: oldMinusCur, Constraint: "old-differs"},
	))
	if err != nil {
		t.Fatal(err)
	}
	if res.Committed {
		t.Fatal("old(item) − item was empty after delete; pre-state not visible")
	}
}

func TestUpdateStatement(t *testing.T) {
	db := newStore(t, item(1, 10), item(2, 20))
	exec := NewExecutor(db)
	res, err := exec.Exec(New(&algebra.Update{
		Rel:   "item",
		Where: &algebra.Cmp{Op: algebra.CmpEQ, L: algebra.AttrByName("id"), R: &algebra.Const{V: value.Int(1)}},
		Sets: []algebra.SetClause{{
			Attr: "qty",
			Expr: &algebra.Arith{Op: value.OpAdd, L: algebra.AttrByName("qty"), R: &algebra.Const{V: value.Int(5)}},
		}},
	}))
	if err != nil || !res.Committed {
		t.Fatalf("res=%+v err=%v", res, err)
	}
	r, _ := db.Relation("item")
	if !r.Contains(item(1, 15)) || r.Contains(item(1, 10)) {
		t.Errorf("update result wrong: %v", r)
	}
	if r.Len() != 2 {
		t.Errorf("update changed cardinality: %d", r.Len())
	}
}

func TestDeltasTrackNetEffect(t *testing.T) {
	db := newStore(t, item(1, 10))
	ov := NewOverlay(db)
	ins := relation.MustFromTuples(itemSchema(), item(2, 20))
	if err := ov.InsertTuples("item", ins); err != nil {
		t.Fatal(err)
	}
	del := relation.MustFromTuples(itemSchema(), item(2, 20))
	if err := ov.DeleteTuples("item", del); err != nil {
		t.Fatal(err)
	}
	insD, _ := ov.Rel("item", algebra.AuxIns)
	delD, _ := ov.Rel("item", algebra.AuxDel)
	if insD.Len() != 0 || delD.Len() != 0 {
		t.Errorf("insert-then-delete left deltas ins=%d del=%d, want 0/0", insD.Len(), delD.Len())
	}

	// Delete a pre-existing tuple then re-insert it: also net zero.
	pre := relation.MustFromTuples(itemSchema(), item(1, 10))
	if err := ov.DeleteTuples("item", pre); err != nil {
		t.Fatal(err)
	}
	if err := ov.InsertTuples("item", pre); err != nil {
		t.Fatal(err)
	}
	insD, _ = ov.Rel("item", algebra.AuxIns)
	delD, _ = ov.Rel("item", algebra.AuxDel)
	if insD.Len() != 0 || delD.Len() != 0 {
		t.Errorf("delete-then-reinsert left deltas ins=%d del=%d, want 0/0", insD.Len(), delD.Len())
	}
}

// TestDeltaInvariant is the central overlay property: after any sequence of
// inserts/deletes, cur = (old − del) ∪ ins, with ins ∩ del = ∅, ins ∩ old =
// ∅ and del ⊆ old.
func TestDeltaInvariant(t *testing.T) {
	prop := func(ops []int16) bool {
		db := newStore(t, item(1, 1), item(2, 2), item(3, 3))
		ov := NewOverlay(db)
		for _, op := range ops {
			id := int64(op) % 6
			if id < 0 {
				id = -id
			}
			tup := relation.MustFromTuples(itemSchema(), item(id, id))
			if op%2 == 0 {
				if err := ov.InsertTuples("item", tup); err != nil {
					return false
				}
			} else {
				if err := ov.DeleteTuples("item", tup); err != nil {
					return false
				}
			}
		}
		cur, _ := ov.Rel("item", algebra.AuxCur)
		old, _ := ov.Rel("item", algebra.AuxOld)
		ins, _ := ov.Rel("item", algebra.AuxIns)
		del, _ := ov.Rel("item", algebra.AuxDel)

		rebuilt := old.Clone()
		rebuilt.DiffInPlace(del)
		rebuilt.UnionInPlace(ins)
		if !rebuilt.Equal(cur) {
			return false
		}
		disjoint := true
		ins.ForEach(func(tp relation.Tuple) error {
			if del.Contains(tp) || old.Contains(tp) {
				disjoint = false
			}
			return nil
		})
		del.ForEach(func(tp relation.Tuple) error {
			if !old.Contains(tp) {
				disjoint = false
			}
			return nil
		})
		return disjoint
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// stmtFunc is a statement that runs a test's function where it stands in the
// program: after the statements before it, before the commit.
type stmtFunc func(algebra.ExecEnv) error

func (stmtFunc) TypeCheck(*algebra.TypeEnv) error { return nil }
func (f stmtFunc) Exec(env algebra.ExecEnv) error { return f(env) }
func (stmtFunc) String() string                   { return "test statement" }

func TestTransactionHelpers(t *testing.T) {
	tx2 := New(&algebra.Insert{Rel: "item", Src: lit(item(1, 1))})
	p := tx2.Debracket()
	if len(p) != 1 {
		t.Errorf("Debracket len = %d", len(p))
	}
	rebracketed := Bracket(p)
	if len(rebracketed.Program) != 1 {
		t.Error("Bracket lost statements")
	}
	clone := tx2.Clone()
	if clone.String() != tx2.String() {
		t.Error("Clone differs from original")
	}
}

// TestOverlayPinnedToSnapshot: an overlay keeps reading the snapshot it was
// created from even after a later transaction commits.
func TestOverlayPinnedToSnapshot(t *testing.T) {
	db := newStore(t, item(1, 10))
	ov := NewOverlay(db)

	// Another transaction commits behind the overlay's back.
	exec := NewExecutor(db)
	res, err := exec.Exec(New(&algebra.Insert{Rel: "item", Src: lit(item(2, 20))}))
	if err != nil || !res.Committed {
		t.Fatalf("res=%+v err=%v", res, err)
	}

	cur, err := ov.Rel("item", algebra.AuxCur)
	if err != nil {
		t.Fatal(err)
	}
	if cur.Len() != 1 {
		t.Errorf("pinned overlay sees %d tuples, want 1", cur.Len())
	}
	if ov.Base().Time() != 0 {
		t.Errorf("overlay base time = %d, want 0", ov.Base().Time())
	}
}

// TestCommitRecordFiltersCancelledDeltas: insert-then-delete cancels to a
// net no-op, so the commit record must install nothing for the relation —
// and therefore cause no spurious conflicts for concurrent readers — while
// the read set still names it.
func TestCommitRecordFiltersCancelledDeltas(t *testing.T) {
	db := newStore(t, item(1, 10))
	ov := NewOverlay(db)
	batch := relation.MustFromTuples(itemSchema(), item(2, 20))
	if err := ov.InsertTuples("item", batch); err != nil {
		t.Fatal(err)
	}
	if err := ov.DeleteTuples("item", batch); err != nil {
		t.Fatal(err)
	}
	rec := ov.CommitRecord()
	if len(rec.Ins) != 0 || len(rec.Del) != 0 {
		t.Errorf("cancelled transaction still installs: ins=%d del=%d", len(rec.Ins), len(rec.Del))
	}
	ri := rec.Reads["item"]
	if ri == nil || !ri.Keys[item(2, 20).Key()] {
		t.Error("mutated tuple key missing from read set")
	}
	if rec.BaseTime != 0 {
		t.Errorf("base time = %d, want 0", rec.BaseTime)
	}
}

// TestReadSetGranularity: materializing cur/old marks a whole-relation
// read; the transaction-local differentials ins/del mark no base read at
// all (their content is determined by the transaction's own keyed
// mutations); inserts and deletes record just the observed tuple keys.
func TestReadSetGranularity(t *testing.T) {
	db := newStore(t, item(1, 10))
	for _, aux := range []algebra.AuxKind{algebra.AuxCur, algebra.AuxOld} {
		ov := NewOverlay(db)
		if _, err := ov.Rel("item", aux); err != nil {
			t.Fatal(err)
		}
		ri := ov.Reads()["item"]
		if ri == nil || !ri.Full {
			t.Errorf("aux %v did not record a full read: %+v", aux, ri)
		}
	}
	for _, aux := range []algebra.AuxKind{algebra.AuxIns, algebra.AuxDel} {
		ov := NewOverlay(db)
		if _, err := ov.Rel("item", aux); err != nil {
			t.Fatal(err)
		}
		if ov.ReadSet()["item"] {
			t.Errorf("aux %v recorded a base read", aux)
		}
	}

	ov := NewOverlay(db)
	if err := ov.InsertTuples("item", relation.MustFromTuples(itemSchema(), item(2, 20))); err != nil {
		t.Fatal(err)
	}
	ri := ov.Reads()["item"]
	if ri == nil || ri.Full {
		t.Fatalf("insert should record a keyed read, got %+v", ri)
	}
	if len(ri.Keys) != 1 || !ri.Keys[item(2, 20).Key()] {
		t.Errorf("keyed read set = %v, want just the inserted tuple's key", ri.Keys)
	}
	// A later full read subsumes the keys.
	if _, err := ov.Rel("item", algebra.AuxCur); err != nil {
		t.Fatal(err)
	}
	if ri := ov.Reads()["item"]; !ri.Full {
		t.Error("full read did not subsume keyed reads")
	}
}

// TestSequencerFirstCommitterWins: two overlays race from the same
// snapshot and touch the same tuple; the loser is told to retry and,
// re-executed against a fresh snapshot, succeeds without losing the
// winner's update.
func TestSequencerFirstCommitterWins(t *testing.T) {
	db := newStore(t, item(1, 10))
	seq := NewSequencer(db)

	ov1 := NewOverlay(db)
	if err := ov1.InsertTuples("item", relation.MustFromTuples(itemSchema(), item(2, 20))); err != nil {
		t.Fatal(err)
	}
	// ov2 observes the absence of the same tuple ov1 inserts, so it must
	// lose even under tuple-granular validation.
	ov2 := NewOverlay(db)
	if err := ov2.InsertTuples("item", relation.MustFromTuples(itemSchema(), item(2, 20), item(3, 30))); err != nil {
		t.Fatal(err)
	}

	ct, conflict, err := seq.TryCommit(ov1)
	if err != nil || conflict != nil || ct != 1 {
		t.Fatalf("winner: time=%d conflict=%v err=%v", ct, conflict, err)
	}
	_, conflict, err = seq.TryCommit(ov2)
	if err != nil {
		t.Fatal(err)
	}
	if conflict == nil {
		t.Fatal("stale overlay committed; lost update")
	}
	if conflict.Relation != "item" || conflict.Key != item(2, 20).Key() {
		t.Errorf("conflict = %+v, want tuple-granular conflict on item(2,20)", conflict)
	}

	// Retry from a fresh snapshot.
	ov3 := NewOverlay(db)
	if err := ov3.InsertTuples("item", relation.MustFromTuples(itemSchema(), item(3, 30))); err != nil {
		t.Fatal(err)
	}
	ct, conflict, err = seq.TryCommit(ov3)
	if err != nil || conflict != nil || ct != 2 {
		t.Fatalf("retry: time=%d conflict=%v err=%v", ct, conflict, err)
	}
	r, _ := db.Relation("item")
	if r.Len() != 3 {
		t.Errorf("final cardinality = %d, want 3", r.Len())
	}
}

// TestSequencerMergesDisjointTuples is the tuple-granular headline: two
// overlays race from the same snapshot writing the same relation but
// disjoint tuples. Relation-granular validation would force the second to
// retry; tuple-granular validation commits both, merging the winner's delta
// into the loser's write set at publication.
func TestSequencerMergesDisjointTuples(t *testing.T) {
	db := newStore(t, item(1, 10))
	seq := NewSequencer(db)

	ov1 := NewOverlay(db)
	if err := ov1.InsertTuples("item", relation.MustFromTuples(itemSchema(), item(2, 20))); err != nil {
		t.Fatal(err)
	}
	ov2 := NewOverlay(db)
	if err := ov2.DeleteTuples("item", relation.MustFromTuples(itemSchema(), item(1, 10))); err != nil {
		t.Fatal(err)
	}

	if ct, conflict, err := seq.TryCommit(ov1); err != nil || conflict != nil || ct != 1 {
		t.Fatalf("first: time=%d conflict=%v err=%v", ct, conflict, err)
	}
	ct, conflict, err := seq.TryCommit(ov2)
	if err != nil || conflict != nil || ct != 2 {
		t.Fatalf("second (disjoint tuples) should merge-commit: time=%d conflict=%v err=%v", ct, conflict, err)
	}

	r, _ := db.Relation("item")
	if r.Len() != 1 || !r.Contains(item(2, 20)) || r.Contains(item(1, 10)) {
		t.Errorf("merged state wrong: %v", r)
	}
	if s := db.Stats(); s.MergedCommits != 1 || s.Conflicts != 0 {
		t.Errorf("stats = %+v, want 1 merged commit and 0 conflicts", s)
	}
}

// TestBackoffDelayBounded: the retry backoff grows with the attempt number,
// carries jitter, and never exceeds the cap or drops below half the base.
func TestBackoffDelayBounded(t *testing.T) {
	for attempt := 0; attempt < 40; attempt++ {
		for i := 0; i < 50; i++ {
			d := backoffDelay(attempt)
			if d < retryBackoffBase/2 {
				t.Fatalf("attempt %d: delay %v below half the base", attempt, d)
			}
			if d >= retryBackoffCap {
				t.Fatalf("attempt %d: delay %v at or above the cap", attempt, d)
			}
		}
	}
}

// TestConcurrentExecSerializable is the write-write stress: N goroutines
// share one executor and insert disjoint tuples into the same relation.
// Under the old relation-granular validator every overlapping pair
// conflicted; tuple-granular validation must commit all of them without a
// single retry, merging concurrent deltas at publication. No insert may be
// lost and the clock must count exactly one transition per commit. A
// trailing statement yields the processor so transactions overlap even on a
// single-CPU scheduler; run under -race this also exercises the lock-free
// snapshot path.
func TestConcurrentExecSerializable(t *testing.T) {
	const workers, perWorker = 8, 20
	db := newStore(t)
	exec := NewExecutor(db)
	exec.MaxRetries = 10_000
	yield := stmtFunc(func(algebra.ExecEnv) error { runtime.Gosched(); return nil })

	var wg sync.WaitGroup
	var retries atomic.Int64
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				id := int64(w*perWorker + i)
				res, err := exec.Exec(
					New(&algebra.Insert{Rel: "item", Src: lit(item(id, 1))}, yield))
				if err != nil {
					errs <- err
					return
				}
				if !res.Committed {
					errs <- res.AbortReason
					return
				}
				retries.Add(int64(res.Retries))
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	r, _ := db.Relation("item")
	if r.Len() != workers*perWorker {
		t.Errorf("final cardinality = %d, want %d (lost updates)", r.Len(), workers*perWorker)
	}
	if db.Time() != uint64(workers*perWorker) {
		t.Errorf("logical time = %d, want %d", db.Time(), workers*perWorker)
	}
	if retries.Load() != 0 {
		t.Errorf("%d retries; disjoint-tuple writers should never conflict under tuple-granular validation", retries.Load())
	}
	t.Logf("stats: %+v", db.Stats())
}

// TestRetriesExhaustedReported: a transaction that loses validation on
// every attempt must surface an aborted result wrapping
// ErrRetriesExhausted, with the database untouched by it. A trailing test
// statement — which runs between snapshot pinning and commit —
// deterministically toggles the very tuple the victim observes on every
// attempt, so the victim keeps losing even tuple-granular validation.
func TestRetriesExhaustedReported(t *testing.T) {
	db := newStore(t, item(1, 10))
	exec := NewExecutor(db)
	saboteur := NewExecutor(db)
	present := false
	sabotage := stmtFunc(func(algebra.ExecEnv) error {
		stmt := algebra.Stmt(&algebra.Insert{Rel: "item", Src: lit(item(2, 20))})
		if present {
			stmt = &algebra.Delete{Rel: "item", Src: lit(item(2, 20))}
		}
		res, err := saboteur.Exec(New(stmt))
		if err != nil || !res.Committed {
			t.Fatalf("saboteur failed: %+v %v", res, err)
		}
		present = !present
		return nil
	})

	const budget = 2
	exec.MaxRetries = budget
	// The victim probes the contended tuple (2,20) and carries a unique
	// marker tuple (99,99) that must never surface.
	res, err := exec.Exec(
		New(&algebra.Insert{Rel: "item", Src: lit(item(2, 20), item(99, 99))}, sabotage))
	if err != nil {
		t.Fatal(err)
	}
	if res.Committed {
		t.Fatal("committed despite guaranteed conflicts")
	}
	if !errors.Is(res.AbortReason, ErrRetriesExhausted) {
		t.Errorf("abort reason = %v, want ErrRetriesExhausted", res.AbortReason)
	}
	if res.Retries != budget {
		t.Errorf("retries = %d, want %d", res.Retries, budget)
	}
	r, _ := db.Relation("item")
	if r.Contains(item(99, 99)) {
		t.Error("losing transaction leaked its insert")
	}
}
