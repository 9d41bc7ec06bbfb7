// Multi-relation commit stress: transactions writing both relations of a
// referential-integrity pair are submitted concurrently with
// single-relation writers and deleters. The epoch pipeline must neither
// deadlock (the test completing is the proof) nor ever install a violated
// state. Run with -race.
package repro

import (
	"fmt"
	"math/rand"
	"testing"
)

// newOrdersDB builds a schema with a referential pair: orders.customer
// references customer.id.
func newOrdersDB(t testing.TB, nCustomers int) *DB {
	t.Helper()
	db := Open(&Options{MaxCommitRetries: 100_000})
	db.MustCreateRelation(`relation customer(id int, name string)`)
	db.MustCreateRelation(`relation orders(id int, customer int, total int)`)
	db.MustDefineConstraint("order-ref",
		`forall x (x in orders implies exists y (y in customer and x.customer = y.id))`)
	rows := make([][]any, nCustomers)
	for i := range rows {
		rows[i] = []any{i, fmt.Sprintf("c-%d", i)}
	}
	if err := db.Load("customer", rows); err != nil {
		t.Fatal(err)
	}
	return db
}

// TestCrossShardSubmitStress mixes three workloads over the commit
// sequencer: two-relation transactions inserting a fresh customer plus an
// order referencing it (write sets spanning both relations),
// single-relation order writers referencing existing or dangling
// customers, and customer deleters that invalidate concurrent referential
// checks. Every committed state must satisfy the constraint; commit times
// must stay contiguous.
func TestCrossShardSubmitStress(t *testing.T) {
	const (
		workers    = 8
		nCustomers = 12
		nTxns      = 400
	)
	db := newOrdersDB(t, nCustomers)
	rng := rand.New(rand.NewSource(7))
	srcs := make([]string, nTxns)
	for i := range srcs {
		switch i % 4 {
		case 0: // two-relation referential pair: new customer + its order
			srcs[i] = fmt.Sprintf(
				`begin insert(customer, values[(%d, "new")]); insert(orders, values[(%d, %d, 5)]); end`,
				1000+i, i, 1000+i)
		case 1: // delete a seed customer (may orphan nothing or force aborts)
			srcs[i] = fmt.Sprintf(`begin delete(customer, select(customer, id = %d)); end`, rng.Intn(nCustomers))
		default: // single-relation order writers; some reference dangling ids
			srcs[i] = fmt.Sprintf(`begin insert(orders, values[(%d, %d, %d)]); end`,
				i, rng.Intn(2*nCustomers), rng.Intn(100))
		}
	}

	var commits, integrityAborts int
	for _, s := range submitAll(db, srcs, workers) {
		if s.err != nil {
			t.Fatalf("submit error for %q: %v", s.src, s.err)
		}
		if s.res.Committed {
			commits++
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
	if got := db.LogicalTime(); got != uint64(commits) {
		t.Errorf("logical time = %d, want %d", got, commits)
	}

	// No violated state was installed: no order references a missing
	// customer in the final state (and, by first-committer-wins induction,
	// in any intermediate one).
	rows, err := db.Query(`diff(project(orders, customer), project(customer, id))`)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows.Data) != 0 {
		t.Errorf("final state has %d dangling order references", len(rows.Data))
	}

	counters := db.Metrics().Counters
	if n := counters["repro_storage_commits_total"]; n != uint64(commits) {
		t.Errorf("repro_storage_commits_total = %d, want %d", n, commits)
	}
	t.Logf("commits=%d integrityAborts=%d conflicts=%d merged=%d", commits, integrityAborts,
		counters["repro_storage_conflicts_total"], counters["repro_storage_merged_commits_total"])
}

// TestCrossShardMergesDisjointOrders: two order inserts against the same
// relation with disjoint tuples, submitted through the facade, both commit
// without burning a retry, and the merged-commit counter proves at least
// one of them overlapped a concurrent writer when run with enough
// parallelism. Deterministic single-goroutine variant: retries must be 0.
func TestCrossShardMergesDisjointOrders(t *testing.T) {
	db := newOrdersDB(t, 4)
	for i := 0; i < 10; i++ {
		res, err := db.Submit(fmt.Sprintf(`begin insert(orders, values[(%d, %d, 1)]); end`, i, i%4))
		if err != nil {
			t.Fatal(err)
		}
		if !res.Committed {
			t.Fatalf("aborted: %s", res.Reason)
		}
		if res.Retries != 0 {
			t.Errorf("txn %d: %d retries; disjoint-tuple inserts must not conflict", i, res.Retries)
		}
	}
	if n, _ := db.Count("orders"); n != 10 {
		t.Errorf("orders = %d, want 10", n)
	}
}
