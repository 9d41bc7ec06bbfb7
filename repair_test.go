// Repair atomicity tests: a repaired transaction is one optimistic unit —
// original statements, repair actions and residual checks execute, validate
// and retry together — and repair writes flow through the same commit epoch
// as everything else, index maintenance included.
package repro

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/obs"
)

// seqTracer records events in arrival order.
type seqTracer struct {
	mu     sync.Mutex
	events []obs.Event
}

func (s *seqTracer) Event(e obs.Event) {
	s.mu.Lock()
	s.events = append(s.events, e)
	s.mu.Unlock()
}

func (s *seqTracer) snapshot() []obs.Event {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]obs.Event(nil), s.events...)
}

func (s *seqTracer) count(k obs.EventKind) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, e := range s.events {
		if e.Kind == k {
			n++
		}
	}
	return n
}

// gateTracer parks the first transaction that reaches its enqueue point
// (the only tracing site emitted lock-free, so blocking there stalls just
// that submitter) until released, creating a deterministic validation
// conflict window for a rival transaction.
type gateTracer struct {
	seqTracer
	gate    atomic.Int32  // 0 unarmed, 1 armed, 2 leader parked, 3 rival seen
	arrived chan struct{} // closed when the first armed enqueue parks
	second  chan struct{} // closed when a second enqueue joins the queue
	release chan struct{} // closing it unparks the leader
}

func newGateTracer() *gateTracer {
	return &gateTracer{
		arrived: make(chan struct{}),
		second:  make(chan struct{}),
		release: make(chan struct{}),
	}
}

func (g *gateTracer) arm() { g.gate.Store(1) }

func (g *gateTracer) Event(e obs.Event) {
	g.seqTracer.Event(e)
	if e.Kind != obs.EvTxnEnqueue {
		return
	}
	// CAS, not sync.Once: a Once would block the rival's enqueue callback
	// until the parked first caller returns, deadlocking the test.
	if g.gate.CompareAndSwap(1, 2) {
		close(g.arrived)
		<-g.release
	} else if g.gate.CompareAndSwap(2, 3) {
		close(g.second)
	}
}

// TestRepairedTxnRetriesAsOneUnit forces a validation conflict on a
// repaired transaction. Both A and B decrement the same row guarded by a
// clamp repair. A enqueues first and parks as the epoch leader; B executes
// against the same qty=5 snapshot (where neither decrement violates, so
// each clamp selects nothing) and enqueues behind A; the gate then
// releases. A validates first and commits 5-3=2; B loses validation and
// must retry. The retry re-executes B's decrement, clamp and residual
// check as one unit against the fresh qty=2 snapshot — where the clamp now
// fires — so the committed result is exactly the bound, never a stale or
// unrepaired value.
func TestRepairedTxnRetriesAsOneUnit(t *testing.T) {
	tr := newGateTracer()
	db := Open(&Options{Tracer: tr})
	db.MustCreateRelation(`relation stock(id int, qty int)`)
	db.MustDefineConstraint("nonneg",
		`forall x (x in stock implies x.qty >= 0) on violation clamp`)
	if _, err := db.Submit(`begin insert(stock, values[(1, 5)]); end`); err != nil {
		t.Fatal(err)
	}
	tr.arm() // the seeding insert above must not consume the gate

	type outcome struct {
		res *Result
		err error
	}
	submit := func() chan outcome {
		ch := make(chan outcome, 1)
		go func() {
			res, err := db.Submit(`begin update(stock, id = 1, [qty = qty - 3]); end`)
			ch <- outcome{res, err}
		}()
		return ch
	}
	aDone := submit()
	<-tr.arrived // A executed against qty=5 and parked as epoch leader
	bDone := submit()
	<-tr.second // B executed against the same snapshot and enqueued behind A
	close(tr.release)

	a, b := <-aDone, <-bDone
	for _, o := range []outcome{a, b} {
		if o.err != nil {
			t.Fatal(o.err)
		}
		if !o.res.Committed {
			t.Fatalf("decrement aborted: %s", o.res.Reason)
		}
		if o.res.Report.ChecksRepaired == 0 {
			t.Fatal("repaired transaction reported ChecksRepaired = 0")
		}
	}
	if a.res.Retries+b.res.Retries == 0 {
		t.Fatal("neither transaction retried; the conflict window failed")
	}
	if tr.count(obs.EvTxnRetry) == 0 {
		t.Fatal("tracer saw no txn-retry event")
	}

	// One unit: the retried rival saw 5-3=2, applied its own decrement to
	// -1 and its clamp in the same attempt, committing exactly the bound.
	rows, err := db.Query(`select(stock, id = 1)`)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows.Data) != 1 || rows.Data[0][1] != int64(0) {
		t.Fatalf("final stock row %v, want qty clamped to exactly 0", rows.Data)
	}
	if got := db.Metrics().Counters["repro_txn_checks_repaired_total"]; got == 0 {
		t.Fatal("repro_txn_checks_repaired_total = 0, want > 0")
	}
}

// TestRepairCascadeUpdatesIndexesSameEpoch deletes a referenced item so the
// referential repair cascades into the indexed ord relation. The cascade's
// deletes must maintain ord's secondary index within the same commit epoch:
// an indexed probe immediately afterwards finds no ghost rows.
func TestRepairCascadeUpdatesIndexesSameEpoch(t *testing.T) {
	db := Open(&Options{Indexes: []string{"ord(item)"}})
	db.MustCreateRelation(`relation item(id int, qty int)`)
	db.MustCreateRelation(`relation ord(id int, item int, n int)`)
	db.MustDefineConstraint("fk",
		`forall x (x in ord implies exists y (y in item and x.item = y.id)) on violation cascade delete`)
	for _, src := range []string{
		`begin insert(item, values[(1, 5), (2, 7), (3, 9)]); end`,
		`begin insert(ord, values[(10, 2, 1), (11, 2, 2), (12, 3, 1)]); end`,
	} {
		if _, err := db.Submit(src); err != nil {
			t.Fatal(err)
		}
	}

	res, err := db.Submit(`begin delete(item, select(item, id = 2)); end`)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Committed {
		t.Fatalf("cascade delete aborted: %s", res.Reason)
	}
	if res.Report.ChecksRepaired == 0 {
		t.Fatal("delete of a referenced item reported no repair")
	}

	// The indexed probe for the dangling key must see the cascade's deletes.
	probes0 := db.Metrics().Counters["repro_index_probes_total"]
	rows, err := db.Query(`select(ord, item = 2)`)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows.Data) != 0 {
		t.Fatalf("index probe found ghost ord rows after cascade: %v", rows.Data)
	}
	if db.Metrics().Counters["repro_index_probes_total"] == probes0 {
		t.Fatal("equality selection on ord(item) did not use the index; the probe proves nothing")
	}
	if n, err := db.Count("ord"); err != nil || n != 1 {
		t.Fatalf("ord count %d (err %v), want 1 surviving row", n, err)
	}
}

// TestRepairReadSetAndTraceSequence pins the lifecycle of one serial
// repaired transaction: a single execution attempt whose read set includes
// the repaired relation (the repair's selection is a recorded read), then
// enqueue, validate-OK and commit, in that order, with no retry.
func TestRepairReadSetAndTraceSequence(t *testing.T) {
	tr := &seqTracer{}
	db := Open(&Options{Tracer: tr})
	db.MustCreateRelation(`relation stock(id int, qty int)`)
	db.MustDefineConstraint("nonneg",
		`forall x (x in stock implies x.qty >= 0) on violation clamp`)
	if _, err := db.Submit(`begin insert(stock, values[(1, 2)]); end`); err != nil {
		t.Fatal(err)
	}

	before := len(tr.snapshot())
	res, err := db.Submit(`begin update(stock, id = 1, [qty = qty - 5]); end`)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Committed || res.Report.ChecksRepaired == 0 {
		t.Fatalf("want a committed, repaired transaction; got committed=%v repaired=%d reason=%q",
			res.Committed, res.Report.ChecksRepaired, res.Reason)
	}

	events := tr.snapshot()[before:]
	idx := func(k obs.EventKind) int {
		for i, e := range events {
			if e.Kind == k {
				return i
			}
		}
		return -1
	}
	begin, enqueue, validate, commit := idx(obs.EvTxnBegin), idx(obs.EvTxnEnqueue), idx(obs.EvTxnValidate), idx(obs.EvTxnCommit)
	for name, i := range map[string]int{"begin": begin, "enqueue": enqueue, "validate": validate, "commit": commit} {
		if i < 0 {
			t.Fatalf("tracer never saw txn-%s (events: %v)", name, eventKinds(events))
		}
	}
	if !(begin < enqueue && enqueue < validate && validate < commit) {
		t.Fatalf("lifecycle out of order: begin=%d enqueue=%d validate=%d commit=%d", begin, enqueue, validate, commit)
	}
	for _, e := range events {
		if e.Kind == obs.EvTxnBegin && e.N != 0 {
			t.Fatalf("serial repaired txn took attempt %d, want a single attempt", e.N)
		}
		if e.Kind == obs.EvTxnRetry {
			t.Fatal("serial repaired txn retried")
		}
		if e.Kind == obs.EvTxnValidate && !e.OK {
			t.Fatal("serial repaired txn failed validation")
		}
	}
	// The repair's selection over stock is part of the transaction's read
	// set: some read event (scan or probe) on stock must precede enqueue.
	readAt := -1
	for i, e := range events {
		if (e.Kind == obs.EvTxnScan || e.Kind == obs.EvTxnProbe || e.Kind == obs.EvTxnRangeProbe) && e.Relation == "stock" {
			readAt = i
			break
		}
	}
	if readAt < 0 {
		t.Fatalf("no recorded read of stock (events: %v)", eventKinds(events))
	}
	if readAt > enqueue {
		t.Fatalf("read of stock recorded at %d, after enqueue at %d", readAt, enqueue)
	}
	if h := db.Metrics().Histograms["repro_txn_read_relations_size"]; h.Count == 0 {
		t.Fatal("repro_txn_read_relations_size has no observations; read sets untracked")
	}
}

func eventKinds(events []obs.Event) []string {
	out := make([]string, len(events))
	for i, e := range events {
		out[i] = fmt.Sprint(e.Kind)
	}
	return out
}
