// Facade-level observability tests: one registry covering every engine
// layer, the Prometheus/expvar surfaces, and the null-path overhead guard.
package repro

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/obs"
)

// collectingTracer records event kinds concurrently.
type collectingTracer struct {
	mu    sync.Mutex
	kinds map[obs.EventKind]int
}

func newCollectingTracer() *collectingTracer {
	return &collectingTracer{kinds: make(map[obs.EventKind]int)}
}

func (c *collectingTracer) Event(e obs.Event) {
	c.mu.Lock()
	c.kinds[e.Kind]++
	c.mu.Unlock()
}

func (c *collectingTracer) count(k obs.EventKind) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.kinds[k]
}

// TestMetricsCoverAllLayers drives a durable database through transaction
// execution, index probing, WAL appends, a checkpoint and a recovery, and
// asserts one registry ends up holding live metrics from all five
// instrumented layers (txn, storage, wal, index, checkpoint/recovery).
func TestMetricsCoverAllLayers(t *testing.T) {
	dir := t.TempDir()
	reg := obs.NewRegistry()
	tr := newCollectingTracer()
	db, err := OpenChecked(&Options{
		Dir: dir, Sync: SyncOff, CheckpointBytes: -1,
		Indexes: []string{"kv(id)"},
		Metrics: reg, Tracer: tr,
	})
	if err != nil {
		t.Fatal(err)
	}
	db.MustCreateRelation(`relation kv(id int, v int)`)
	for i := 0; i < 20; i++ {
		if _, err := db.Submit(fmt.Sprintf(`begin insert(kv, values[(%d, %d)]); end`, i, i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// An equality selection on the indexed column probes instead of scans;
	// running it after the checkpoint leaves a WAL tail for the reopen.
	if _, err := db.Submit(`begin delete(kv, select(kv, id = 3)); end`); err != nil {
		t.Fatal(err)
	}
	snap := db.Metrics()
	for _, name := range []string{
		"repro_txn_statements_total",  // txn layer
		"repro_txn_attempts_total",    // txn layer
		"repro_storage_commits_total", // storage pipeline
		"repro_storage_epochs_total",  // storage pipeline
		"repro_wal_appends_total",     // WAL
		"repro_index_probes_total",    // index access paths
		"repro_checkpoint_runs_total", // checkpoint
	} {
		if snap.Counters[name] == 0 {
			t.Errorf("counter %s = 0, want > 0", name)
		}
	}
	for _, name := range []string{
		"repro_storage_epoch_txns_size",
		"repro_storage_stage_validate_seconds",
		"repro_wal_append_bytes",
		"repro_txn_read_relations_size",
		"repro_checkpoint_seconds",
	} {
		if snap.Histograms[name].Count == 0 {
			t.Errorf("histogram %s empty, want observations", name)
		}
	}
	for _, k := range []obs.EventKind{
		obs.EvTxnBegin, obs.EvTxnEnqueue, obs.EvTxnValidate, obs.EvTxnProbe,
		obs.EvWALAppend, obs.EvTxnCommit, obs.EvEpochPublish,
		obs.EvCheckpointStart, obs.EvCheckpointEnd,
	} {
		if tr.count(k) == 0 {
			t.Errorf("tracer never saw %s", k)
		}
	}

	// Prometheus exposition carries the same registry.
	var sb strings.Builder
	if err := db.WriteProm(&sb); err != nil {
		t.Fatal(err)
	}
	prom := sb.String()
	for _, want := range []string{
		"# TYPE repro_storage_commits_total counter",
		"# TYPE repro_wal_append_seconds histogram",
		"repro_wal_append_seconds_count",
	} {
		if !strings.Contains(prom, want) {
			t.Errorf("Prometheus output missing %q", want)
		}
	}
	db.PublishExpvar("repro-obs-test") // must not panic; re-publish is a no-op
	db.PublishExpvar("repro-obs-test")
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen on a fresh registry: the WAL tail past the checkpoint replays
	// (the post-checkpoint delete), populating the recovery metrics.
	reg2 := obs.NewRegistry()
	db2, err := OpenChecked(&Options{Dir: dir, Sync: SyncOff, CheckpointBytes: -1, Metrics: reg2})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if n, err := db2.Count("kv"); err != nil || n != 19 {
		t.Fatalf("recovered kv: %d rows, err %v; want 19", n, err)
	}
	snap2 := db2.Metrics()
	if snap2.Counters["repro_recovery_replayed_records_total"] == 0 {
		t.Error("recovery replayed no records; the post-checkpoint delete should be in the tail")
	}
	if snap2.Histograms["repro_recovery_open_seconds"].Count == 0 {
		t.Error("recovery open duration not observed")
	}
}

// TestObsOverheadGuard bounds the cost of the always-on instrumentation:
// the default path (private registry, no tracer) must stay within a
// generous margin of the fully disabled path on the low-conflict submit
// workload. The guard's 25 % is a loose bound, so that scheduler noise does
// not flake CI; it is not a measurement (see docs/OBSERVABILITY.md).
func TestObsOverheadGuard(t *testing.T) {
	if testing.Short() {
		t.Skip("timing guard skipped in -short")
	}
	if raceEnabled {
		t.Skip("timing guard meaningless under the race detector")
	}
	run := func(disable bool) float64 {
		r := testing.Benchmark(func(b *testing.B) {
			db := newShardedDB(b, 4, 100)
			if disable {
				db.store.SetObservability(nil, nil)
			}
			srcs := make([]string, b.N)
			for i := range srcs {
				srcs[i] = fmt.Sprintf(`begin insert(child%d, values[(%d, %d, 1)]); end`, i%4, i, i%100)
			}
			b.ResetTimer()
			for _, s := range submitAll(db, srcs, 8) {
				if s.err != nil {
					b.Fatal(s.err)
				}
			}
		})
		return float64(r.NsPerOp())
	}
	run(true) // warm caches before either measured pass
	off := run(true)
	on := run(false)
	if ratio := on / off; ratio > 1.25 {
		t.Errorf("observability overhead %.1f%% (on %.0f ns/op, off %.0f ns/op) exceeds the guard",
			(ratio-1)*100, on, off)
	} else {
		t.Logf("observability overhead %.1f%% (on %.0f ns/op, off %.0f ns/op)", (ratio-1)*100, on, off)
	}
}

// newShardedDB builds the guard's workload: one parent relation and `shards`
// child relations, each guarded by its own referential rule and preloaded
// with 4000 valid tuples, so per-transaction costs that scale with relation
// size are part of what the guard compares. Transactions that touch
// different child relations have disjoint write sets.
func newShardedDB(b *testing.B, shards, parents int) *DB {
	const childRows = 4000
	b.Helper()
	db := Open(&Options{MaxCommitRetries: 1_000_000})
	if err := db.CreateRelation(`relation parent(id int, name string)`); err != nil {
		b.Fatal(err)
	}
	rows := make([][]any, parents)
	for i := range rows {
		rows[i] = []any{i, fmt.Sprintf("p-%d", i)}
	}
	if err := db.Load("parent", rows); err != nil {
		b.Fatal(err)
	}
	crows := make([][]any, childRows)
	for i := range crows {
		// Ids far above the guard's insert range, referencing valid parents.
		crows[i] = []any{1_000_000 + i, i % parents, 1}
	}
	for s := 0; s < shards; s++ {
		if err := db.CreateRelation(fmt.Sprintf(`relation child%d(id int, parent int, qty int)`, s)); err != nil {
			b.Fatal(err)
		}
		err := db.DefineConstraint(fmt.Sprintf("ref%d", s),
			fmt.Sprintf(`forall x (x in child%d implies exists y (y in parent and x.parent = y.id))`, s))
		if err != nil {
			b.Fatal(err)
		}
		if err := db.Load(fmt.Sprintf("child%d", s), crows); err != nil {
			b.Fatal(err)
		}
	}
	return db
}
