// Observability wiring for the storage layer: the resolved metric handles
// every pipeline stage bumps, and the registry/tracer plumbing the facade
// and the txn layer hang off the Database.
package storage

import (
	"repro/internal/obs"
)

// storeMetrics holds the storage/checkpoint/recovery metric handles,
// resolved once against a registry so the commit pipeline never touches the
// registry map. Built from a nil registry every field is nil, which turns
// each update into a single branch (the obs types are nil-receiver-safe) —
// the metrics-off ablation. d.met itself is never nil.
type storeMetrics struct {
	commits        *obs.Counter
	conflicts      *obs.Counter
	merged         *obs.Counter
	intraMerged    *obs.Counter
	epochs         *obs.Counter
	snapshotTooOld *obs.Counter
	tracerPanics   *obs.Counter

	epochTxns     *obs.Histogram // members per epoch
	stageValidate *obs.Histogram // validation loop
	stageDerive   *obs.Histogram // successor + index derivation
	stageWAL      *obs.Histogram // WAL append (+ group fsync)
	stagePublish  *obs.Histogram // snapshot swap, under the commit lock

	ckptRuns    *obs.Counter
	ckptFull    *obs.Counter
	ckptSeconds *obs.Histogram
	ckptBytes   *obs.Histogram

	replayRecords *obs.Counter
	replayBytes   *obs.Counter
	openSeconds   *obs.Histogram
}

// newStoreMetrics resolves the storage metric set against reg; a nil
// registry yields the all-disabled handle set.
func newStoreMetrics(reg *obs.Registry) *storeMetrics {
	m := &storeMetrics{}
	if reg == nil {
		return m
	}
	m.commits = reg.Counter("repro_storage_commits_total")
	m.conflicts = reg.Counter("repro_storage_conflicts_total")
	m.merged = reg.Counter("repro_storage_merged_commits_total")
	m.intraMerged = reg.Counter("repro_storage_intra_batch_merges_total")
	m.epochs = reg.Counter("repro_storage_epochs_total")
	m.snapshotTooOld = reg.Counter("repro_storage_snapshot_too_old_total")
	m.tracerPanics = reg.Counter("repro_storage_tracer_panics_total")
	m.epochTxns = reg.Histogram("repro_storage_epoch_txns_size")
	m.stageValidate = reg.Histogram("repro_storage_stage_validate_seconds")
	m.stageDerive = reg.Histogram("repro_storage_stage_derive_seconds")
	m.stageWAL = reg.Histogram("repro_storage_stage_wal_seconds")
	m.stagePublish = reg.Histogram("repro_storage_stage_publish_seconds")
	m.ckptRuns = reg.Counter("repro_checkpoint_runs_total")
	m.ckptFull = reg.Counter("repro_checkpoint_full_total")
	m.ckptSeconds = reg.Histogram("repro_checkpoint_seconds")
	m.ckptBytes = reg.Histogram("repro_checkpoint_bytes")
	m.replayRecords = reg.Counter("repro_recovery_replayed_records_total")
	m.replayBytes = reg.Counter("repro_recovery_replayed_bytes_total")
	m.openSeconds = reg.Histogram("repro_recovery_open_seconds")
	return m
}

// SetObservability points the database at a metrics registry and tracer.
// The registry is get-or-create per name, so sharing one registry between
// databases (or re-pointing after Clone) is well-defined: their counters
// sum. A nil registry disables metrics entirely — Stats() then reads zero —
// and a nil tracer disables events. Configure before concurrent use; the
// commit pipeline reads these fields without synchronization. A durable
// database's WAL writer resolves its own metric handles at Open time from
// DurOptions.Metrics and is not re-pointed here.
func (d *Database) SetObservability(reg *obs.Registry, tr obs.Tracer) {
	d.reg = reg
	d.met = newStoreMetrics(reg)
	d.tr = tr
	d.layerMet.Store(nil)
}

// LayerMetrics returns the metric handle set the layer above storage keeps
// for this database, calling build against the database's registry (nil
// when metrics are disabled) the first time and after every
// SetObservability. The set is reachable only through the database, so it
// is collected with it; the steady-state cost is one pointer load. Package
// txn is the one caller: storage cannot name its handle type.
func (d *Database) LayerMetrics(build func(*obs.Registry) any) any {
	if p := d.layerMet.Load(); p != nil {
		return *p
	}
	v := build(d.reg)
	d.layerMet.CompareAndSwap(nil, &v)
	return *d.layerMet.Load()
}

// Registry returns the database's metrics registry (nil when disabled).
// The txn layer and the facade resolve their own metric handles from it.
func (d *Database) Registry() *obs.Registry { return d.reg }

// Tracer returns the database's tracer (nil when disabled).
func (d *Database) Tracer() obs.Tracer { return d.tr }

// emit hands one event to the tracer, if there is one. The tracer is
// caller-supplied code that the commit pipeline runs on the drainer, mostly
// under the commit lock: a panic escaping it would leave the lock held and
// the drainer role taken, wedging every later commit. So a panicking
// callback loses its event, is counted, and the pipeline carries on.
func (d *Database) emit(e obs.Event) { guardedEmit(d.tr, d.met, e) }

// guardedEmit is emit for callers without a Database yet (recovery replay
// runs before Open builds one).
func guardedEmit(tr obs.Tracer, met *storeMetrics, e obs.Event) {
	if tr == nil {
		return
	}
	defer func() {
		if recover() != nil {
			met.tracerPanics.Inc()
		}
	}()
	tr.Event(e)
}
