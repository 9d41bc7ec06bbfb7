package storage

import (
	"testing"
	"time"

	"repro/internal/index"
	"repro/internal/obs"
	"repro/internal/relation"
	"repro/internal/schema"
	"repro/internal/value"
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
// epoch.run: three members with the same base snapshot, where the second
// writes tuples disjoint from the first (must merge into the shared epoch
// successor, not retry) and the third reads a tuple the first wrote (must
// conflict, by queue order). The whole epoch must land as ONE snapshot swap
// and ONE commit-log record.
//
// The subtests then pin that the intra-epoch verdict just exercised is the
// cross-epoch verdict: see verdictParityCases.
func TestEpochBatchValidationAndMerge(t *testing.T) {
	db := New(storageSchema())

	newPending := func(reads map[string]*ReadInfo, v int64) *pending {
		return &pending{c: &Commit{BaseTime: 0, Reads: reads, Ins: mkDelta(t, db, v)}, done: make(chan func(), 1)}
	}
	p1 := newPending(keyRead("r", intTuple(1)), 1)
	p2 := newPending(keyRead("r", intTuple(2)), 2)
	p3 := newPending(keyRead("r", intTuple(3), intTuple(1)), 3) // also reads what p1 writes

	batch := []*pending{p1, p2, p3}
	(&epoch{d: db, batch: batch}).run()

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
	if rec.Time != 2 || len(rec.writes) != 1 || rec.writes["r"].del != nil {
		t.Errorf("record = t=%d writes=%v, want t=2 inserting into r only", rec.Time, rec.writes)
	}
	ins := rec.writes["r"].ins
	if ins == nil || !ins.Contains(intTuple(1)) || !ins.Contains(intTuple(2)) || ins.Len() != 2 {
		t.Errorf("record ins = %v, want the batch's aggregate {1, 2}", ins)
	}
	if !ins.Sealed() {
		t.Error("epoch record delta not sealed")
	}

	for _, tc := range verdictParityCases() {
		t.Run(tc.name, tc.run)
	}
}

// parityCase is one row of the cross-epoch ≡ intra-epoch table: a writer A
// inserting tuple aVal into aRel, and a second commit B from the same base
// snapshot that reads relation r as reads says and inserts tuple 2 into it.
type parityCase struct {
	name  string
	aRel  string
	aVal  int64
	reads *ReadInfo
	// The verdict B must get whichever way it meets A's write: a conflict on
	// r (with this key; "" for a whole-relation read), or a commit at t=2
	// that merged over A's disjoint delta iff A wrote r too.
	conflict bool
	key      string
	merged   bool
}

// verdictParityCases crosses the four read granularities with an
// overlapping and a disjoint writer. A whole-relation read overlaps every
// write to the relation, so its disjoint writer writes relation s instead.
func verdictParityCases() []parityCase {
	col := []int{0}
	k1, k2 := intTuple(1).Key(), intTuple(2).Key()
	own := map[string]bool{k2: true} // B records the key it writes
	probe1 := &ReadInfo{Keys: own, Probes: map[string]*ProbeRead{
		index.Sig(col): {Cols: col, Keys: map[string]bool{intTuple(1).KeyOn(col): true}},
	}}
	range1 := &ReadInfo{Keys: own, Probes: map[string]*ProbeRead{
		index.Sig(col): {Cols: col, Ranges: []index.KeyRange{
			{Lo: intTuple(1).KeyOn(col), Hi: intTuple(2).KeyOn(col)},
		}},
	}}
	return []parityCase{
		{name: "full/overlapping", aRel: "r", aVal: 1, reads: &ReadInfo{Full: true}, conflict: true},
		{name: "full/disjoint", aRel: "s", aVal: 1, reads: &ReadInfo{Full: true}},
		{name: "keys/overlapping", aRel: "r", aVal: 1, reads: &ReadInfo{Keys: map[string]bool{k1: true, k2: true}}, conflict: true, key: k1},
		{name: "keys/disjoint", aRel: "r", aVal: 5, reads: &ReadInfo{Keys: map[string]bool{k1: true, k2: true}}, merged: true},
		{name: "probes/overlapping", aRel: "r", aVal: 1, reads: probe1, conflict: true, key: k1},
		{name: "probes/disjoint", aRel: "r", aVal: 5, reads: probe1, merged: true},
		{name: "ranges/overlapping", aRel: "r", aVal: 1, reads: range1, conflict: true, key: k1},
		{name: "ranges/disjoint", aRel: "r", aVal: 5, reads: range1, merged: true},
	}
}

// run submits A then B, both based on t=0, twice over: in consecutive
// epochs, where B is validated against A's commit-log record, and steered
// into one epoch with A queued first (seqTracer parks A in its enqueue
// callback until B is behind it), where B is validated against the epoch's
// aggregate. The verdict, the conflict and the merge must not depend on
// which; only IntraBatchMerges may tell the two apart.
func (tc parityCase) run(t *testing.T) {
	attr := schema.Attribute{Name: "a", Type: value.KindInt}
	sch := schema.MustDatabase(schema.MustRelation("r", attr), schema.MustRelation("s", attr))
	one := func(rel string, v int64) map[string]*relation.Relation {
		rs, _ := sch.Relation(rel)
		return map[string]*relation.Relation{rel: relation.MustFromTuples(rs, intTuple(v))}
	}
	for _, shared := range []bool{false, true} {
		db := New(sch)
		a := Commit{Label: "A", Reads: keyRead(tc.aRel, intTuple(tc.aVal)), Ins: one(tc.aRel, tc.aVal)}
		b := Commit{Label: "B", Reads: map[string]*ReadInfo{"r": tc.reads}, Ins: one("r", 2)}

		var ctA uint64
		var cfA *Conflict
		doneA := make(chan struct{})
		commitA := func() {
			defer close(doneA)
			ctA, cfA, _ = db.CommitValidated(a)
		}
		if shared {
			tr := &seqTracer{gate: make(chan struct{})}
			db.SetObservability(db.Registry(), tr)
			go commitA()
			for deadline := time.Now().Add(5 * time.Second); !tr.has(obs.EvTxnEnqueue, "A"); {
				if time.Now().After(deadline) {
					t.Fatal("A never reached its enqueue event")
				}
				time.Sleep(time.Millisecond)
			}
		} else {
			commitA()
		}
		ctB, cfB, err := db.CommitValidated(b)
		<-doneA
		if err != nil || cfA != nil || ctA != 1 {
			t.Fatalf("shared=%v: A: time=%d conflict=%v, B: err=%v; want A committed at t=1", shared, ctA, cfA, err)
		}

		st := db.Stats()
		want := Stats{Commits: 2, Epochs: 2}
		switch {
		case tc.conflict:
			// Either way the winner is the commit at t=1: A's own log record,
			// or the last time of the epoch A and B shared.
			if cfB == nil || ctB != 0 || *cfB != (Conflict{Time: 1, Relation: "r", Key: tc.key}) {
				t.Errorf("shared=%v: B: time=%d conflict=%+v, want conflict on r key %q at t=1", shared, ctB, cfB, tc.key)
			}
			want = Stats{Commits: 1, Conflicts: 1, Epochs: 1}
		case cfB != nil || ctB != 2:
			t.Errorf("shared=%v: B: time=%d conflict=%v, want commit at t=2", shared, ctB, cfB)
		}
		if shared {
			want.Epochs = 1
		}
		if tc.merged {
			want.MergedCommits = 1
			if shared {
				want.IntraBatchMerges = 1
			}
		}
		if st != want {
			t.Errorf("shared=%v: stats = %+v, want %+v", shared, st, want)
		}
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
