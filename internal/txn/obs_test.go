package txn

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// TestMetricHandlesDieWithTheirDatabase opens and drops databases, each with
// its private registry, resolving the transaction metric set of each through
// an overlay. Every handle set must become unreachable once its database is
// dropped: nothing process-wide may keep it.
func TestMetricHandlesDieWithTheirDatabase(t *testing.T) {
	const n = 16
	var collected atomic.Int32
	for i := 0; i < n; i++ {
		db := newStore(t, item(int64(i), 1))
		met := NewOverlay(db).met
		if met == nullTxnMetrics || met.statements == nil {
			t.Fatal("a database with a registry resolved the disabled handle set")
		}
		if NewOverlay(db).met != met {
			t.Fatal("a second overlay re-resolved the handle set")
		}
		runtime.SetFinalizer(met, func(*txnMetrics) { collected.Add(1) })
	}
	deadline := time.Now().Add(5 * time.Second)
	for collected.Load() < n && time.Now().Before(deadline) {
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
	if got := collected.Load(); got < n {
		t.Fatalf("%d of %d handle sets were collected after their databases were dropped", got, n)
	}
}
