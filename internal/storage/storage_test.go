package storage

import (
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/relation"
	"repro/internal/schema"
	"repro/internal/value"
)

func storageSchema() *schema.Database {
	r := schema.MustRelation("r", schema.Attribute{Name: "a", Type: value.KindInt})
	return schema.MustDatabase(r)
}

// fullRead builds a read record scanning each named relation whole.
func fullRead(names ...string) map[string]*ReadInfo {
	out := make(map[string]*ReadInfo, len(names))
	for _, n := range names {
		out[n] = &ReadInfo{Full: true}
	}
	return out
}

// keyRead builds a read record probing the given tuples of one relation.
func keyRead(name string, tuples ...relation.Tuple) map[string]*ReadInfo {
	keys := make(map[string]bool, len(tuples))
	for _, t := range tuples {
		keys[t.Key()] = true
	}
	return map[string]*ReadInfo{name: {Keys: keys}}
}

func intTuple(v int64) relation.Tuple { return relation.Tuple{value.Int(v)} }

func TestNewDatabaseStartsEmptyAtTimeZero(t *testing.T) {
	db := New(storageSchema())
	if db.Time() != 0 {
		t.Errorf("Time = %d", db.Time())
	}
	r, err := db.Relation("r")
	if err != nil {
		t.Fatal(err)
	}
	if r.Len() != 0 {
		t.Errorf("fresh relation has %d tuples", r.Len())
	}
	if _, err := db.Relation("nope"); err == nil {
		t.Error("unknown relation lookup succeeded")
	}
}

// TestMalformedCommitRejected: a commit naming a relation the schema lacks,
// carrying a nil delta, or based on a time the store has not reached, is an
// error — it never enqueues and never advances the clock.
func TestMalformedCommitRejected(t *testing.T) {
	db := New(storageSchema())
	rs, _ := storageSchema().Relation("r")
	one := relation.MustFromTuples(rs, intTuple(1))
	for name, c := range map[string]Commit{
		"unknown inserted relation": {Ins: map[string]*relation.Relation{"zzz": one}},
		"unknown deleted relation":  {Del: map[string]*relation.Relation{"zzz": one}},
		"nil delta":                 {Ins: map[string]*relation.Relation{"r": nil}},
		"base ahead of the store":   {BaseTime: 1, Reads: keyRead("r", intTuple(1)), Ins: map[string]*relation.Relation{"r": one}},
	} {
		if _, _, err := db.CommitValidated(c); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	if db.Time() != 0 {
		t.Error("rejected commit advanced the clock")
	}
}

func TestLoadReplacesInstance(t *testing.T) {
	sch := storageSchema()
	db := New(sch)
	rs, _ := sch.Relation("r")
	if err := db.Load(relation.MustFromTuples(rs, relation.Tuple{value.Int(1)}, relation.Tuple{value.Int(2)})); err != nil {
		t.Fatal(err)
	}
	if r, _ := db.Relation("r"); r.Len() != 2 {
		t.Errorf("r holds %d tuples after Load, want 2", r.Len())
	}
	if db.Time() != 0 {
		t.Error("Load advanced the clock")
	}
	other := schema.MustRelation("x", schema.Attribute{Name: "a", Type: value.KindInt})
	if err := db.Load(relation.New(other)); err == nil {
		t.Error("Load of unknown relation accepted")
	}
}

func TestCloneIsolation(t *testing.T) {
	sch := storageSchema()
	db := New(sch)
	rs, _ := sch.Relation("r")
	if err := db.Load(relation.MustFromTuples(rs, relation.Tuple{value.Int(1)})); err != nil {
		t.Fatal(err)
	}
	clone := db.Clone()
	if conflict := commitDelta(t, clone, "r", []relation.Tuple{intTuple(9)}, nil); conflict != nil {
		t.Fatalf("unexpected conflict: %s", conflict)
	}
	orig, _ := db.Relation("r")
	if orig.Len() != 1 || !orig.Contains(relation.Tuple{value.Int(1)}) {
		t.Error("clone commit leaked into original")
	}
	if cl, _ := clone.Relation("r"); cl.Len() != 2 || !cl.Contains(intTuple(9)) {
		t.Errorf("clone state = %v, want {1, 9}", cl)
	}
	if db.Time() != 0 || clone.Time() != 1 {
		t.Errorf("times: orig=%d clone=%d", db.Time(), clone.Time())
	}
}

func TestAddRelationDynamic(t *testing.T) {
	sch := storageSchema()
	db := New(sch)
	extra := schema.MustRelation("extra", schema.Attribute{Name: "z", Type: value.KindString})
	// Must be registered in the schema first.
	if err := db.AddRelation(extra); err == nil {
		t.Error("AddRelation accepted schema-less relation")
	}
	if err := sch.Add(extra); err != nil {
		t.Fatal(err)
	}
	if err := db.AddRelation(extra); err != nil {
		t.Fatal(err)
	}
	if err := db.AddRelation(extra); err == nil {
		t.Error("duplicate AddRelation accepted")
	}
	r, err := db.Relation("extra")
	if err != nil || r.Len() != 0 {
		t.Errorf("extra relation = %v, %v", r, err)
	}
}

// TestSnapshotIsPinned: a snapshot taken before a commit keeps showing the
// old state after the commit installs a new one.
func TestSnapshotIsPinned(t *testing.T) {
	sch := storageSchema()
	db := New(sch)
	before := db.Snapshot()
	if conflict := commitDelta(t, db, "r", []relation.Tuple{intTuple(7)}, nil); conflict != nil {
		t.Fatalf("unexpected conflict: %s", conflict)
	}
	old, err := before.Relation("r")
	if err != nil {
		t.Fatal(err)
	}
	if old.Len() != 0 || before.Time() != 0 {
		t.Errorf("pinned snapshot changed: len=%d time=%d", old.Len(), before.Time())
	}
	cur, _ := db.Relation("r")
	if cur.Len() != 1 || db.Time() != 1 {
		t.Errorf("current state wrong: len=%d time=%d", cur.Len(), db.Time())
	}
	if !cur.Sealed() {
		t.Error("committed relation not sealed")
	}
}

// TestCommitValidatedFirstCommitterWins: two commits based on the same
// snapshot; the second read a relation the first wrote, so it must be
// reported as a conflict and install nothing.
func TestCommitValidatedFirstCommitterWins(t *testing.T) {
	sch := storageSchema()
	db := New(sch)
	rs, _ := sch.Relation("r")
	base := db.Time()
	mk := func(v int64) map[string]*relation.Relation {
		return map[string]*relation.Relation{"r": relation.MustFromTuples(rs, relation.Tuple{value.Int(v)})}
	}

	ct, conflict, err := db.CommitValidated(Commit{BaseTime: base, Reads: fullRead("r"), Ins: mk(1)})
	if err != nil || conflict != nil {
		t.Fatalf("first commit: time=%d conflict=%v err=%v", ct, conflict, err)
	}
	if ct != 1 {
		t.Errorf("first commit time = %d, want 1", ct)
	}

	_, conflict, err = db.CommitValidated(Commit{BaseTime: base, Reads: fullRead("r"), Ins: mk(2)})
	if err != nil {
		t.Fatal(err)
	}
	if conflict == nil {
		t.Fatal("second committer's stale read set validated")
	}
	if conflict.Time != 1 || conflict.Relation != "r" {
		t.Errorf("conflict = %+v, want t=1 relation=r", conflict)
	}
	cur, _ := db.Relation("r")
	if db.Time() != 1 || !cur.Contains(relation.Tuple{value.Int(1)}) {
		t.Error("conflicting commit leaked state")
	}

	// A commit from the same stale base that read nothing the winner wrote
	// is independent and must pass.
	_, conflict, err = db.CommitValidated(Commit{BaseTime: base, Reads: fullRead("other")})
	if err != nil || conflict != nil {
		t.Fatalf("independent commit rejected: conflict=%v err=%v", conflict, err)
	}
	if s := db.Stats(); s.Commits != 2 || s.Conflicts != 1 {
		t.Errorf("stats = %+v, want 2 commits and 1 conflict", s)
	}
}

// TestTupleGranularValidation: a stale commit that only probed tuples a
// concurrent winner did not touch merges and commits; one that probed a
// touched tuple conflicts with the key reported.
func TestTupleGranularValidation(t *testing.T) {
	sch := storageSchema()
	db := New(sch)
	rs, _ := sch.Relation("r")
	mk := func(vs ...int64) map[string]*relation.Relation {
		tuples := make([]relation.Tuple, len(vs))
		for i, v := range vs {
			tuples[i] = intTuple(v)
		}
		return map[string]*relation.Relation{"r": relation.MustFromTuples(rs, tuples...)}
	}
	base := db.Time()

	// Winner writes tuple 1.
	if _, conflict, err := db.CommitValidated(Commit{BaseTime: base, Reads: keyRead("r", intTuple(1)), Ins: mk(1)}); err != nil || conflict != nil {
		t.Fatalf("winner: conflict=%v err=%v", conflict, err)
	}

	// Disjoint tuple 2 from the same stale base: merges, both tuples live.
	ct, conflict, err := db.CommitValidated(Commit{BaseTime: base, Reads: keyRead("r", intTuple(2)), Ins: mk(2)})
	if err != nil || conflict != nil || ct != 2 {
		t.Fatalf("disjoint commit: time=%d conflict=%v err=%v", ct, conflict, err)
	}
	cur, _ := db.Relation("r")
	if cur.Len() != 2 || !cur.Contains(intTuple(1)) || !cur.Contains(intTuple(2)) {
		t.Fatalf("merged state wrong: %v", cur)
	}

	// Overlapping tuple 1 from the stale base: tuple-granular conflict.
	_, conflict, err = db.CommitValidated(Commit{BaseTime: base, Reads: keyRead("r", intTuple(1), intTuple(3)), Ins: mk(3)})
	if err != nil {
		t.Fatal(err)
	}
	if conflict == nil || conflict.Relation != "r" || conflict.Key != intTuple(1).Key() {
		t.Fatalf("conflict = %+v, want tuple-granular conflict on key of 1", conflict)
	}

	if s := db.Stats(); s.MergedCommits != 1 {
		t.Errorf("stats = %+v, want exactly 1 merged commit", s)
	}
}

// TestCommitLogKeyedByTime: deltas land in the log under the commit time
// and carry the write set.
func TestCommitLogKeyedByTime(t *testing.T) {
	sch := storageSchema()
	db := New(sch)
	rs, _ := sch.Relation("r")
	for i := int64(1); i <= 3; i++ {
		ins := map[string]*relation.Relation{"r": relation.MustFromTuples(rs, relation.Tuple{value.Int(i)})}
		if _, conflict, err := db.CommitValidated(Commit{BaseTime: db.Time(), Reads: keyRead("r", intTuple(i)), Ins: ins}); err != nil || conflict != nil {
			t.Fatalf("commit %d: conflict=%v err=%v", i, conflict, err)
		}
	}
	if len(db.log) != 3 {
		t.Fatalf("log holds %d records, want 3", len(db.log))
	}
	for i, d := range db.log {
		if want := uint64(i + 1); d.Time != want {
			t.Errorf("delta %d has time %d, want %d", i, d.Time, want)
		}
		w := d.writes["r"]
		if len(d.writes) != 1 || w.del != nil {
			t.Errorf("delta %d writes %v, want ins of r only", i, d.writes)
		}
		if w.ins == nil || !w.ins.Sealed() {
			t.Errorf("delta %d ins not recorded/sealed", i)
		}
	}
}

// TestCommitValidatedRefusesTruncatedLog: a base snapshot older than the
// retained commit log cannot be validated and must read as a conflict,
// never as a silent success.
func TestCommitValidatedRefusesTruncatedLog(t *testing.T) {
	sch := storageSchema()
	db := New(sch)
	for i := 0; i < 2; i++ {
		if conflict := commitDelta(t, db, "r", []relation.Tuple{intTuple(int64(i))}, nil); conflict != nil {
			t.Fatalf("unexpected conflict: %s", conflict)
		}
	}
	// Simulate log aging the way a long run would: drop the deltas and
	// record the watermark.
	db.commitMu.Lock()
	db.log = nil
	db.truncated = 2
	db.commitMu.Unlock()
	_, conflict, err := db.CommitValidated(Commit{BaseTime: 0, Reads: fullRead("r")})
	if err != nil {
		t.Fatal(err)
	}
	if conflict == nil {
		t.Fatal("commit validated against a truncated log")
	}
	// A base at the watermark is fine: every dropped delta is ≤ it.
	if _, conflict, err = db.CommitValidated(Commit{BaseTime: 2, Reads: fullRead("r")}); err != nil || conflict != nil {
		t.Fatalf("current-base commit rejected: conflict=%v err=%v", conflict, err)
	}
}

// TestCloneRefusesPreCloneBases: a clone starts with an empty log, so a
// commit pinned to a snapshot older than the clone itself cannot prove its
// reads current and must be refused, not silently installed.
func TestCloneRefusesPreCloneBases(t *testing.T) {
	sch := storageSchema()
	db := New(sch)
	rs, _ := sch.Relation("r")
	for i := int64(1); i <= 3; i++ {
		if conflict := commitDelta(t, db, "r", []relation.Tuple{intTuple(i)}, nil); conflict != nil {
			t.Fatalf("unexpected conflict: %s", conflict)
		}
	}
	clone := db.Clone()
	nine := map[string]*relation.Relation{"r": relation.MustFromTuples(rs, intTuple(9))}
	_, conflict, err := clone.CommitValidated(Commit{BaseTime: 0, Reads: keyRead("r", intTuple(9)), Ins: nine})
	if err != nil {
		t.Fatal(err)
	}
	if conflict == nil {
		t.Fatal("clone validated a base snapshot predating the clone")
	}
	// A commit pinned to the clone's own seed state is fine.
	if _, conflict, err = clone.CommitValidated(Commit{BaseTime: clone.Time(), Reads: keyRead("r", intTuple(9)), Ins: nine}); err != nil || conflict != nil {
		t.Fatalf("seed-base commit rejected: conflict=%v err=%v", conflict, err)
	}
}

// TestSegmentTruncationWatermark: overflowing the retention span advances
// the log's truncation watermark and old-base commits are refused from then
// on.
func TestSegmentTruncationWatermark(t *testing.T) {
	sch := storageSchema()
	db := New(sch)
	rs, _ := sch.Relation("r")
	for i := 0; i <= defaultRetainSpan; i++ {
		ins := map[string]*relation.Relation{"r": relation.MustFromTuples(rs, intTuple(int64(i)))}
		if _, conflict, err := db.CommitValidated(Commit{BaseTime: db.Time(), Reads: keyRead("r", intTuple(int64(i))), Ins: ins}); err != nil || conflict != nil {
			t.Fatalf("commit %d: conflict=%v err=%v", i, conflict, err)
		}
	}
	if len(db.log) != defaultRetainSpan {
		t.Errorf("log holds %d deltas, want %d", len(db.log), defaultRetainSpan)
	}
	if db.truncated != 1 {
		t.Errorf("truncation watermark = %d, want 1", db.truncated)
	}
	_, conflict, err := db.CommitValidated(Commit{BaseTime: 0, Reads: keyRead("r", intTuple(12345))})
	if err != nil {
		t.Fatal(err)
	}
	if conflict == nil {
		t.Fatal("pre-watermark base validated")
	}
}

// TestLogTrimIsAmortized runs the log through four retention spans: it must
// hold exactly the retained window, still refuse a base older than the
// window, and must not have copied the window on every commit — the dead
// prefix is sliced off, so the backing array is reallocated only when its
// capacity runs out. Fewer than a tenth of the post-fill commits may move
// it, and the spare capacity stays bounded by the window.
func TestLogTrimIsAmortized(t *testing.T) {
	db := New(storageSchema())
	rs, _ := db.Schema().Relation("r")
	const total = 4 * defaultRetainSpan
	var newest **Delta // slot of the newest record after the previous commit
	moves := 0
	for i := 1; i <= total; i++ {
		ins := map[string]*relation.Relation{"r": relation.MustFromTuples(rs, intTuple(int64(i)))}
		if _, conflict, err := db.CommitValidated(Commit{BaseTime: db.Time(), Reads: keyRead("r", intTuple(int64(i))), Ins: ins}); err != nil || conflict != nil {
			t.Fatalf("commit %d: conflict=%v err=%v", i, conflict, err)
		}
		n := len(db.log)
		if i > defaultRetainSpan && &db.log[n-2] != newest {
			moves++ // append reallocated: the window was copied
		}
		newest = &db.log[n-1]
	}
	if len(db.log) != defaultRetainSpan || db.log[0].Time != total-defaultRetainSpan+1 {
		t.Fatalf("log holds %d records from t=%d, want %d from t=%d",
			len(db.log), db.log[0].Time, defaultRetainSpan, total-defaultRetainSpan+1)
	}
	if moves*10 > total-defaultRetainSpan {
		t.Errorf("the retained window was copied on %d of %d commits; the trim must be amortized", moves, total-defaultRetainSpan)
	}
	if cap(db.log) > 2*defaultRetainSpan {
		t.Errorf("log capacity %d exceeds twice the retained window", cap(db.log))
	}
	_, conflict, err := db.CommitValidated(Commit{BaseTime: total - defaultRetainSpan - 1, Reads: keyRead("r", intTuple(0))})
	if err != nil {
		t.Fatal(err)
	}
	if conflict == nil || conflict.Relation != "" {
		t.Fatalf("base older than the retained window: conflict = %v, want a watermark refusal", conflict)
	}
}

// TestCrossShardCommitConcurrent hammers two-relation commits against
// single-relation writers from many goroutines: the epoch pipeline must
// neither deadlock nor lose an update, and the clock must count every
// commit. Run with -race.
func TestCrossShardCommitConcurrent(t *testing.T) {
	a := schema.MustRelation("a", schema.Attribute{Name: "v", Type: value.KindInt})
	b := schema.MustRelation("b", schema.Attribute{Name: "v", Type: value.KindInt})
	sch := schema.MustDatabase(a, b)
	db := New(sch)

	const workers, perWorker = 8, 25
	var wg sync.WaitGroup
	var commits atomic.Uint64
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				v := intTuple(int64(w*perWorker + i))
				names := []string{"a", "b"}
				if w%2 == 0 {
					names = names[w/2%2 : w/2%2+1] // single-relation writers alternate a / b
				}
				reads := make(map[string]*ReadInfo, len(names))
				for _, n := range names {
					reads[n] = &ReadInfo{Keys: map[string]bool{v.Key(): true}}
				}
				ins := make(map[string]*relation.Relation, len(names))
				for _, n := range names {
					rs, _ := sch.Relation(n)
					ins[n] = relation.MustFromTuples(rs, v)
				}
				for {
					_, conflict, err := db.CommitValidated(Commit{BaseTime: db.Time(), Reads: reads, Ins: ins})
					if err != nil {
						errs <- err
						return
					}
					if conflict == nil {
						commits.Add(1)
						break
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if got := db.Time(); got != uint64(commits.Load()) {
		t.Errorf("logical time = %d, want %d", got, commits.Load())
	}
	ra, _ := db.Relation("a")
	rb, _ := db.Relation("b")
	// Every two-relation writer inserted v into both relations; every
	// single-relation writer into one. No insert may be lost.
	for w := 0; w < workers; w++ {
		for i := 0; i < perWorker; i++ {
			v := intTuple(int64(w*perWorker + i))
			inA, inB := ra.Contains(v), rb.Contains(v)
			if w%2 != 0 && (!inA || !inB) {
				t.Fatalf("two-relation insert %v lost: a=%v b=%v", v, inA, inB)
			}
			if w%2 == 0 && !inA && !inB {
				t.Fatalf("single-relation insert %v lost", v)
			}
		}
	}
}

func pairSchema() *schema.Database {
	c := schema.MustRelation("child",
		schema.Attribute{Name: "id", Type: value.KindInt},
		schema.Attribute{Name: "parent", Type: value.KindInt},
	)
	return schema.MustDatabase(c)
}

func childTuple(id, parent int64) relation.Tuple {
	return relation.Tuple{value.Int(id), value.Int(parent)}
}

// commitDelta installs a keyed commit writing the given ins/del tuples of
// one relation, reporting any conflict to the caller.
func commitDelta(t *testing.T, db *Database, rel string, ins, del []relation.Tuple) *Conflict {
	t.Helper()
	rs, ok := db.Schema().Relation(rel)
	if !ok {
		t.Fatalf("unknown relation %q", rel)
	}
	keys := make(map[string]bool)
	for _, tt := range append(append([]relation.Tuple(nil), ins...), del...) {
		keys[tt.Key()] = true
	}
	commit := Commit{
		BaseTime: db.Time(),
		Reads:    map[string]*ReadInfo{rel: {Keys: keys}},
		Ins:      map[string]*relation.Relation{},
		Del:      map[string]*relation.Relation{},
	}
	if len(ins) > 0 {
		commit.Ins[rel] = relation.MustFromTuples(rs, ins...)
	}
	if len(del) > 0 {
		commit.Del[rel] = relation.MustFromTuples(rs, del...)
	}
	_, conflict, err := db.CommitValidated(commit)
	if err != nil {
		t.Fatal(err)
	}
	return conflict
}

func TestDefineIndexValidation(t *testing.T) {
	db := New(pairSchema())
	if err := db.DefineIndex("nope", []int{0}); err == nil {
		t.Error("index on unknown relation accepted")
	}
	if err := db.DefineIndex("child", nil); err == nil {
		t.Error("index with no columns accepted")
	}
	if err := db.DefineIndex("child", []int{5}); err == nil {
		t.Error("index with out-of-range column accepted")
	}
	if err := db.DefineIndex("child", []int{1, 1}); err == nil {
		t.Error("index with duplicate column accepted")
	}
	if err := db.DefineIndex("child", []int{1}); err != nil {
		t.Fatal(err)
	}
	if err := db.DefineIndex("child", []int{1}); err == nil {
		t.Error("duplicate index accepted")
	}
	if got := db.IndexDefs("child"); len(got) != 1 || len(got[0]) != 1 || got[0][0] != 1 {
		t.Errorf("IndexDefs = %v", got)
	}
}

func TestIndexMaintainedAcrossCommits(t *testing.T) {
	db := New(pairSchema())
	rs, _ := db.Schema().Relation("child")
	if err := db.Load(relation.MustFromTuples(rs, childTuple(1, 10), childTuple(2, 10), childTuple(3, 20))); err != nil {
		t.Fatal(err)
	}
	if err := db.DefineIndex("child", []int{1}); err != nil {
		t.Fatal(err)
	}
	if conflict := commitDelta(t, db, "child", []relation.Tuple{childTuple(4, 20)}, []relation.Tuple{childTuple(1, 10)}); conflict != nil {
		t.Fatalf("unexpected conflict: %s", conflict)
	}
	snap := db.Snapshot()
	x := snap.IndexSet("child").Exact([]int{1})
	if x == nil {
		t.Fatal("index missing after commit")
	}
	if got := len(x.Probe(childTuple(0, 10).KeyOn(x.Cols()))); got != 1 {
		t.Errorf("parent=10 matches = %d, want 1", got)
	}
	if got := len(x.Probe(childTuple(0, 20).KeyOn(x.Cols()))); got != 2 {
		t.Errorf("parent=20 matches = %d, want 2", got)
	}
	inst, _ := snap.Relation("child")
	if inst.Len() != 3 {
		t.Errorf("instance has %d tuples, want 3", inst.Len())
	}

	// Bulk Load rebuilds the index.
	if err := db.Load(relation.MustFromTuples(rs, childTuple(9, 30))); err != nil {
		t.Fatal(err)
	}
	x = db.Snapshot().IndexSet("child").Exact([]int{1})
	if got := len(x.Probe(childTuple(0, 30).KeyOn(x.Cols()))); got != 1 {
		t.Errorf("after Load, parent=30 matches = %d, want 1", got)
	}
	if got := len(x.Probe(childTuple(0, 10).KeyOn(x.Cols()))); got != 0 {
		t.Errorf("after Load, parent=10 matches = %d, want 0", got)
	}
}

func TestProbeReadValidation(t *testing.T) {
	db := New(pairSchema())
	rs, _ := db.Schema().Relation("child")
	if err := db.Load(relation.MustFromTuples(rs, childTuple(1, 10), childTuple(2, 20))); err != nil {
		t.Fatal(err)
	}
	base := db.Time()

	probeRead := func(parent int64) map[string]*ReadInfo {
		key := childTuple(0, parent).KeyOn([]int{1})
		return map[string]*ReadInfo{"child": {Probes: map[string]*ProbeRead{
			"1": {Cols: []int{1}, Keys: map[string]bool{key: true}},
		}}}
	}

	// A concurrent writer inserts (3, 20).
	if conflict := commitDelta(t, db, "child", []relation.Tuple{childTuple(3, 20)}, nil); conflict != nil {
		t.Fatalf("writer conflicted: %s", conflict)
	}

	// A read-only commit that probed parent=10 is untouched by the write.
	_, conflict, err := db.CommitValidated(Commit{BaseTime: base, Reads: probeRead(10)})
	if err != nil {
		t.Fatal(err)
	}
	if conflict != nil {
		t.Errorf("disjoint probe conflicted: %s", conflict)
	}

	// A commit that probed parent=20 depends on the written key — even
	// though it never saw tuple (3,20), it observed the absence of matches.
	_, conflict, err = db.CommitValidated(Commit{BaseTime: base, Reads: probeRead(20)})
	if err != nil {
		t.Fatal(err)
	}
	if conflict == nil {
		t.Error("overlapping probe did not conflict")
	}
}
