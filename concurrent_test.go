// Concurrency tests for the snapshot-isolated engine: conflicting
// integrity-controlled transactions submitted from many goroutines must
// serialize through optimistic commit validation without ever installing a
// state that violates a defined constraint. Run with -race.
package repro

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
)

// newReferentialDB builds the stress schema: parents 0..nParents-1 loaded,
// a referential constraint from child.parent to parent.id, and a domain
// constraint on child.qty.
func newReferentialDB(t testing.TB, nParents int) *DB {
	t.Helper()
	db := Open(&Options{MaxCommitRetries: 100_000})
	db.MustCreateRelation(`relation parent(id int, name string)`)
	db.MustCreateRelation(`relation child(id int, parent int, qty int)`)
	db.MustDefineConstraint("referential",
		`forall x (x in child implies exists y (y in parent and x.parent = y.id))`)
	db.MustDefineConstraint("domain",
		`forall x (x in child implies x.qty >= 0)`)
	rows := make([][]any, nParents)
	for i := range rows {
		rows[i] = []any{i, fmt.Sprintf("p-%d", i)}
	}
	if err := db.Load("parent", rows); err != nil {
		t.Fatal(err)
	}
	return db
}

// countViolations returns dangling child references in the current state.
func countViolations(t testing.TB, db *DB) int {
	t.Helper()
	rows, err := db.Query(`diff(project(child, parent), project(parent, id))`)
	if err != nil {
		t.Fatal(err)
	}
	return len(rows.Data)
}

// TestConcurrentSubmitStress: 8 goroutines submit transactions that pull in
// opposite directions — inserts of children referencing parents, some of
// them dangling, racing deletes of the very parents being referenced. Every
// commit must have validated against the state it is installed on, so the
// final state (and, by induction over first-committer-wins validation,
// every intermediate committed state) satisfies both constraints.
func TestConcurrentSubmitStress(t *testing.T) {
	const (
		workers    = 8
		nParents   = 15
		nTxns      = 400
		refSpread  = 20 // reference ids beyond nParents → guaranteed aborts
		deleteFrac = 3  // every third transaction deletes a parent
	)
	db := newReferentialDB(t, nParents)
	rng := rand.New(rand.NewSource(42))
	srcs := make([]string, nTxns)
	for i := range srcs {
		if i%deleteFrac == 0 {
			srcs[i] = fmt.Sprintf(`begin delete(parent, select(parent, id = %d)); end`, rng.Intn(nParents))
		} else {
			srcs[i] = fmt.Sprintf(`begin insert(child, values[(%d, %d, %d)]); end`,
				i, rng.Intn(refSpread), rng.Intn(100))
		}
	}

	var commits, integrityAborts int
	commitTimes := make([]int, 0, nTxns)
	for _, s := range submitAll(db, srcs, workers) {
		if s.err != nil {
			t.Fatalf("submit error for %q: %v", s.src, s.err)
		}
		if s.res.Committed {
			commits++
			commitTimes = append(commitTimes, int(s.res.CommitTime))
			continue
		}
		if s.res.Constraint == "" {
			t.Fatalf("non-integrity abort for %q: %s", s.src, s.res.Reason)
		}
		integrityAborts++
	}
	if commits == 0 || integrityAborts == 0 {
		t.Fatalf("degenerate run: %d commits, %d integrity aborts", commits, integrityAborts)
	}

	// Commits serialized: logical times are exactly 1..commits, each state
	// installed by one validated transaction.
	sort.Ints(commitTimes)
	for i, ct := range commitTimes {
		if ct != i+1 {
			t.Fatalf("commit times not contiguous: position %d has t=%d", i, ct)
		}
	}
	if got := db.LogicalTime(); got != uint64(commits) {
		t.Errorf("logical time = %d, want %d", got, commits)
	}

	// Zero violated states: no dangling reference and no negative quantity
	// survived the race.
	if v := countViolations(t, db); v != 0 {
		t.Errorf("final state has %d dangling child references", v)
	}
	rows, err := db.Query(`select(child, qty < 0)`)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows.Data) != 0 {
		t.Errorf("final state has %d negative quantities", len(rows.Data))
	}
	t.Logf("commits=%d integrityAborts=%d finalChildren=%d", commits, integrityAborts, mustCount(t, db, "child"))
}

func mustCount(t testing.TB, db *DB, rel string) int {
	t.Helper()
	n, err := db.Count(rel)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// TestSubmitFromManyGoroutines: Submit is the one entry point; calling it
// from separate goroutines is safe and every caller sees the others'
// commits.
func TestSubmitFromManyGoroutines(t *testing.T) {
	db := newReferentialDB(t, 5)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				src := fmt.Sprintf(`begin insert(child, values[(%d, %d, 1)]); end`, w*25+i, (w+i)%5)
				if _, err := db.Submit(src); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if n := mustCount(t, db, "child"); n != 100 {
		t.Errorf("child count = %d, want 100", n)
	}
	if v := countViolations(t, db); v != 0 {
		t.Errorf("%d dangling references", v)
	}
}

// TestSubmitPropagatesParseErrors: malformed sources surface as errors
// without disturbing the transactions around them.
func TestSubmitPropagatesParseErrors(t *testing.T) {
	db := newReferentialDB(t, 3)
	srcs := []string{
		`begin insert(child, values[(1, 0, 1)]); end`,
		`begin insert(nosuch, values[(1)]); end`,
		`this is not a transaction`,
		`begin insert(child, values[(2, 1, 1)]); end`,
	}
	var res [4]*Result
	var errs [4]error
	for i, src := range srcs {
		res[i], errs[i] = db.Submit(src)
	}
	if errs[0] != nil || !res[0].Committed {
		t.Errorf("txn 0: %+v %v", res[0], errs[0])
	}
	if errs[1] == nil {
		t.Error("unknown relation accepted")
	}
	if errs[2] == nil {
		t.Error("garbage accepted")
	}
	if errs[3] != nil || !res[3].Committed {
		t.Errorf("txn 3: %+v %v", res[3], errs[3])
	}
	if n := mustCount(t, db, "child"); n != 2 {
		t.Errorf("child count = %d, want 2", n)
	}
}

// TestSubmitRetriesExhaustedTyped: a Submit that loses validation on every
// attempt of a small budget reports an aborted Result whose Err wraps
// ErrRetriesExhausted, and leaves the database untouched. EvTxnBegin fires
// on the submitter, holding no lock, right after the attempt pinned its
// snapshot, so a tracer can steer a conflicting writer in between: each of
// the victim's attempts reads a counter row that a rival has rewritten by
// the time the attempt commits.
func TestSubmitRetriesExhaustedTyped(t *testing.T) {
	const budget = 2
	var db *DB
	var armed atomic.Bool
	db = Open(&Options{MaxCommitRetries: budget, Tracer: TracerFunc(func(e TraceEvent) {
		// Disarmed while the rival runs: its own begin event must not recurse.
		if e.Kind != EvTxnBegin || !armed.CompareAndSwap(true, false) {
			return
		}
		defer armed.Store(true)
		res, err := db.Submit(`begin update(counter, id = 1, [n = n + 10]); end`)
		if err != nil || !res.Committed {
			t.Errorf("rival writer: %+v %v", res, err)
		}
	})})
	db.MustCreateRelation(`relation counter(id int, n int)`)
	if _, err := db.Submit(`begin insert(counter, values[(1, 5)]); end`); err != nil {
		t.Fatal(err)
	}

	armed.Store(true)
	res, err := db.Submit(`begin update(counter, id = 1, [n = n - 1]); end`)
	armed.Store(false)
	if err != nil {
		t.Fatal(err)
	}
	if res.Committed || !errors.Is(res.Err, ErrRetriesExhausted) {
		t.Fatalf("result = %+v, want an abort wrapping ErrRetriesExhausted", res)
	}
	if res.Reason != res.Err.Error() || res.Constraint != "" || res.Retries != budget || res.CommitTime != 0 {
		t.Errorf("result = %+v, want Reason = Err.Error(), no constraint, %d retries, no commit time", res, budget)
	}
	// One rival commit per attempt, and nothing of the victim's decrement.
	rows, err := db.Query(`counter`)
	if err != nil {
		t.Fatal(err)
	}
	if want := int64(5 + 10*(budget+1)); len(rows.Data) != 1 || rows.Data[0][1] != want {
		t.Errorf("counter = %v, want the single row (1, %d)", rows.Data, want)
	}
}
