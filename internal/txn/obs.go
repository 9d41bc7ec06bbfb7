// Observability wiring for the transaction layer: metric handles resolved
// once per database (not per transaction) and cached on the database, so
// overlay creation costs one pointer load and the handle set is collected
// with the database it belongs to.
package txn

import (
	"repro/internal/obs"
	"repro/internal/storage"
)

// txnMetrics holds the transaction-layer metric handles. The zero value
// (nullTxnMetrics) has every handle nil, which the obs types treat as
// disabled — overlays created without a database (NewOverlayAt) use it.
//
// The probe/scan counters live under the repro_index_* namespace: they count
// access-path decisions (probe an index by key, probe it by key interval,
// fall back to a whole-relation read), which is index-layer behaviour even though
// the overlay is where the decision is observed.
type txnMetrics struct {
	statements       *obs.Counter
	statementSeconds *obs.Histogram
	attempts         *obs.Counter
	retries          *obs.Counter
	aborts           *obs.Counter
	tuplesIns        *obs.Counter
	tuplesDel        *obs.Counter
	readRelations    *obs.Histogram // relations per commit-time read set
	readKeys         *obs.Histogram // keyed/probed/interval entries per read set

	probes      *obs.Counter
	rangeProbes *obs.Counter
	fullScans   *obs.Counter
}

// nullTxnMetrics is the shared all-disabled handle set.
var nullTxnMetrics = &txnMetrics{}

// metricsOf returns the transaction metric set of db, resolved from its
// registry on first use; nullTxnMetrics when the database has no registry.
func metricsOf(db *storage.Database) *txnMetrics {
	return db.LayerMetrics(newTxnMetrics).(*txnMetrics)
}

func newTxnMetrics(reg *obs.Registry) any {
	if reg == nil {
		return nullTxnMetrics
	}
	return &txnMetrics{
		statements:       reg.Counter("repro_txn_statements_total"),
		statementSeconds: reg.Histogram("repro_txn_statement_seconds"),
		attempts:         reg.Counter("repro_txn_attempts_total"),
		retries:          reg.Counter("repro_txn_retries_total"),
		aborts:           reg.Counter("repro_txn_aborts_total"),
		tuplesIns:        reg.Counter("repro_txn_tuples_inserted_total"),
		tuplesDel:        reg.Counter("repro_txn_tuples_deleted_total"),
		readRelations:    reg.Histogram("repro_txn_read_relations_size"),
		readKeys:         reg.Histogram("repro_txn_read_keys_size"),
		probes:           reg.Counter("repro_index_probes_total"),
		rangeProbes:      reg.Counter("repro_index_range_probes_total"),
		fullScans:        reg.Counter("repro_index_full_scans_total"),
	}
}
