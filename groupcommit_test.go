// Group-commit stress: single-relation and two-relation writers of disjoint
// tuples hammer the epoch sequencer concurrently. Disjoint writers must
// never retry — they merge, within an epoch or across epochs — and every
// committed insert must survive into the final state (zero lost updates).
// Run with -race; CI also runs it under GOMAXPROCS=2 to vary how commits
// interleave into epochs.
package repro

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/relation"
	"repro/internal/storage"
	"repro/internal/value"
)

func TestGroupCommitCrossShardStress(t *testing.T) {
	const (
		workers   = 8
		perWorker = 40
	)
	db := Open(&Options{MaxCommitRetries: 1_000_000})
	db.MustCreateRelation(`relation acct(id int, w int)`)
	db.MustCreateRelation(`relation audit(id int, w int)`)

	var wg sync.WaitGroup
	var retries atomic.Int64
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				id := w*perWorker + i
				var src string
				if w%2 == 0 {
					// Single-relation writer into the shared hot relation.
					src = fmt.Sprintf(`begin insert(acct, values[(%d, %d)]); end`, id, w)
				} else {
					// Two-relation writer: one atomic insert into each.
					src = fmt.Sprintf(`begin insert(acct, values[(%d, %d)]); insert(audit, values[(%d, %d)]); end`, id, w, id, w)
				}
				res, err := db.Submit(src)
				if err != nil {
					errs <- err
					return
				}
				if !res.Committed {
					errs <- fmt.Errorf("worker %d txn %d aborted: %s", w, i, res.Reason)
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

	// Zero lost updates: every insert of every writer is in the final state,
	// and the two-relation writers' pairs both landed.
	if n, _ := db.Count("acct"); n != workers*perWorker {
		t.Errorf("acct holds %d tuples, want %d (lost updates)", n, workers*perWorker)
	}
	if n, _ := db.Count("audit"); n != workers/2*perWorker {
		t.Errorf("audit holds %d tuples, want %d (lost two-relation updates)", n, workers/2*perWorker)
	}
	// Disjoint writers merge — within an epoch or across epochs — so none
	// of them may have burned a retry or registered a conflict.
	if n := retries.Load(); n != 0 {
		t.Errorf("disjoint writers retried %d times, want 0 (merge, don't retry)", n)
	}
	stats := db.Metrics().Counters
	commits, conflicts, epochs := stats["repro_storage_commits_total"], stats["repro_storage_conflicts_total"], stats["repro_storage_epochs_total"]
	if conflicts != 0 {
		t.Errorf("disjoint writers registered %d conflicts, want 0", conflicts)
	}
	if commits < workers*perWorker {
		t.Errorf("commit counter %d below the %d submitted transactions", commits, workers*perWorker)
	}
	if epochs == 0 || epochs > commits {
		t.Errorf("epochs=%d commits=%d: every commit must land in exactly one epoch", epochs, commits)
	}

	// Deterministic merge proof (the concurrent phase can't guarantee two
	// commits ever shared a base): two disjoint writers committing from the
	// same base snapshot must both install, the second absorbing the first's
	// delta as a merge rather than a conflict.
	rs, err := db.sch.MustFind("acct")
	if err != nil {
		t.Fatal(err)
	}
	mk := func(id int64) map[string]*relation.Relation {
		return map[string]*relation.Relation{
			"acct": relation.MustFromTuples(rs, relation.Tuple{value.Int(id), value.Int(-1)}),
		}
	}
	read := func(id int64) map[string]*storage.ReadInfo {
		tup := relation.Tuple{value.Int(id), value.Int(-1)}
		return map[string]*storage.ReadInfo{"acct": {Keys: map[string]bool{tup.Key(): true}}}
	}
	pre := db.Metrics().Counters
	base := db.LogicalTime()
	for _, id := range []int64{1_000_001, 1_000_002} {
		if _, conflict, err := db.store.CommitValidated(storage.Commit{
			BaseTime: base, Reads: read(id), Ins: mk(id),
		}); err != nil || conflict != nil {
			t.Fatalf("same-base disjoint commit %d: conflict=%v err=%v", id, conflict, err)
		}
	}
	post := db.Metrics().Counters
	const merged = "repro_storage_merged_commits_total"
	if post[merged] <= pre[merged] {
		t.Errorf("same-base disjoint writers did not merge: merged %d -> %d", pre[merged], post[merged])
	}
	if post["repro_storage_conflicts_total"] != pre["repro_storage_conflicts_total"] {
		t.Errorf("same-base disjoint writers conflicted: %d -> %d",
			pre["repro_storage_conflicts_total"], post["repro_storage_conflicts_total"])
	}
}
