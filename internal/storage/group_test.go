package storage

import (
	"testing"

	"repro/internal/relation"
)

// mkDelta builds a one-relation write set {r: tuples} usable as Ins.
func mkDelta(t *testing.T, db *Database, vals ...int64) map[string]*relation.Relation {
	t.Helper()
	rs, ok := db.Schema().Relation("r")
	if !ok {
		t.Fatal("fixture relation missing")
	}
	tuples := make([]relation.Tuple, len(vals))
	for i, v := range vals {
		tuples[i] = intTuple(v)
	}
	return map[string]*relation.Relation{"r": relation.MustFromTuples(rs, tuples...)}
}

// TestEpochBatchValidationAndMerge drives one epoch by hand through
// processEpoch: three members with the same base snapshot, where the second
// writes tuples disjoint from the first (must merge into the shared epoch
// successor, not retry) and the third reads a tuple the first wrote (must
// conflict, by queue order). The whole epoch must land as ONE snapshot swap
// and ONE commit-log record.
func TestEpochBatchValidationAndMerge(t *testing.T) {
	db := New(storageSchema())

	newPending := func(reads map[string]*ReadInfo, v int64) *pending {
		return &pending{c: &Commit{BaseTime: 0, Reads: reads, Ins: mkDelta(t, db, v)}, done: make(chan func(), 1)}
	}
	p1 := newPending(keyRead("r", intTuple(1)), 1)
	p2 := newPending(keyRead("r", intTuple(2)), 2)
	p3 := newPending(keyRead("r", intTuple(3), intTuple(1)), 3) // also reads what p1 writes

	batch := []*pending{p1, p2, p3}
	db.processEpoch(batch, nil)

	// With no drainer pending in the batch, the publish stage is delegated
	// to the first member; run it here and then drain the completion
	// signals.
	fn := <-p1.done
	if fn == nil {
		t.Fatal("expected the publish closure on the first member")
	}
	fn()
	for _, p := range batch {
		<-p.done
	}

	if p1.time != 1 || p1.conflict != nil {
		t.Errorf("p1: time=%d conflict=%v, want time 1, no conflict", p1.time, p1.conflict)
	}
	if p2.time != 2 || p2.conflict != nil || !p2.merged || !p2.intra {
		t.Errorf("p2: time=%d conflict=%v merged=%v intra=%v, want time 2, merged intra-epoch", p2.time, p2.conflict, p2.merged, p2.intra)
	}
	if p3.conflict == nil {
		t.Fatal("p3 read a tuple p1 wrote in the same epoch; want conflict")
	}
	if p3.time != 0 || p3.conflict.Relation != "r" || p3.conflict.Key != intTuple(1).Key() || p3.conflict.Time != 2 {
		t.Errorf("p3 conflict = time=%d %+v, want relation r, key of tuple 1, epoch time 2", p3.time, p3.conflict)
	}

	if db.Time() != 2 {
		t.Errorf("epoch of 2 accepted commits ends at t=%d, want 2", db.Time())
	}
	cur, _ := db.Relation("r")
	if !cur.Contains(intTuple(1)) || !cur.Contains(intTuple(2)) || cur.Contains(intTuple(3)) {
		t.Errorf("state after epoch: %v, want {1, 2}", cur)
	}
	st := db.Stats()
	want := Stats{Commits: 2, Conflicts: 1, MergedCommits: 1, Epochs: 1, IntraBatchMerges: 1}
	if st != want {
		t.Errorf("stats = %+v, want %+v", st, want)
	}

	if len(db.log) != 1 {
		t.Fatalf("epoch produced %d log records, want 1 shared record", len(db.log))
	}
	rec := db.log[0]
	if rec.Time != 2 || len(rec.Ins) != 1 || len(rec.Del) != 0 {
		t.Errorf("record = t=%d ins=%v del=%v, want t=2 inserting into r only", rec.Time, rec.Ins, rec.Del)
	}
	ins := rec.Ins["r"]
	if ins == nil || !ins.Contains(intTuple(1)) || !ins.Contains(intTuple(2)) || ins.Len() != 2 {
		t.Errorf("record ins = %v, want the batch's aggregate {1, 2}", ins)
	}
	if !ins.Sealed() {
		t.Error("epoch record delta not sealed")
	}
}

// TestRetentionSpanRefusesOldBase pins the retention span and walks the
// deterministic snapshot-too-old path: a base older than the retained
// logical-time window is refused as a watermark conflict (empty Relation),
// a base inside the window still validates (merging over the retained
// deltas), and retrying the refused commit from a fresh snapshot succeeds.
func TestRetentionSpanRefusesOldBase(t *testing.T) {
	db := New(storageSchema())
	db.retain = 4
	commit := func(v int64, base uint64) *Conflict {
		t.Helper()
		d := mkDelta(t, db, v)
		_, conflict, err := db.CommitValidated(Commit{BaseTime: base, Reads: keyRead("r", intTuple(v)), Ins: d})
		if err != nil {
			t.Fatal(err)
		}
		return conflict
	}
	for i := int64(1); i <= 8; i++ {
		if conflict := commit(i, db.Time()); conflict != nil {
			t.Fatalf("commit %d: %v", i, conflict)
		}
	}

	// Times 1..8 committed with span 4: records at times <= 4 are gone.
	if len(db.log) != 4 || db.truncated != 4 {
		t.Fatalf("log holds %d records, watermark %d; want 4 and 4", len(db.log), db.truncated)
	}

	conflict := commit(100, 1)
	if conflict == nil {
		t.Fatal("base t=1 predates the retained window; want refusal")
	}
	if conflict.Relation != "" || conflict.Time != 4 {
		t.Errorf("refusal = %+v, want watermark conflict at t=4", conflict)
	}

	// A base inside the window validates against the retained records and
	// merges over their disjoint deltas.
	if conflict := commit(101, 5); conflict != nil {
		t.Fatalf("base t=5 is inside the retained window: %v", conflict)
	}

	// The refused commit retried from a fresh snapshot goes through — the
	// snapshot-too-old → retry path the executor runs.
	if conflict := commit(100, db.Time()); conflict != nil {
		t.Fatalf("retry from fresh snapshot: %v", conflict)
	}
	cur, _ := db.Relation("r")
	if !cur.Contains(intTuple(100)) || !cur.Contains(intTuple(101)) {
		t.Errorf("retried commits missing from state: %v", cur)
	}
}
