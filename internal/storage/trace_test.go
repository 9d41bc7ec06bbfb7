package storage

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/relation"
	"repro/internal/wal"
)

// seqTracer records every event in arrival order and blocks the leader's
// enqueue callback until the follower has enqueued — EvTxnEnqueue is the one
// event emitted while holding no engine lock, so parking there steers both
// commits into a single shared epoch deterministically.
type seqTracer struct {
	mu     sync.Mutex
	events []obs.Event
	gate   chan struct{} // closed once the follower's enqueue is recorded
}

func (s *seqTracer) Event(e obs.Event) {
	s.mu.Lock()
	s.events = append(s.events, e)
	if e.Kind == obs.EvTxnEnqueue && e.Txn == "B" {
		close(s.gate)
	}
	s.mu.Unlock()
	if e.Kind == obs.EvTxnEnqueue && e.Txn == "A" {
		<-s.gate // park the leader until B is queued behind it
	}
}

func (s *seqTracer) snapshot() []obs.Event {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]obs.Event(nil), s.events...)
}

func (s *seqTracer) has(kind obs.EventKind, txn string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, e := range s.events {
		if e.Kind == kind && e.Txn == txn {
			return true
		}
	}
	return false
}

// TestTracerSequenceSharedEpoch pins the exact lifecycle-event order for one
// committed and one conflicted transaction sharing a group-commit epoch:
// both enqueues, the per-member validation verdicts in queue order, the
// epoch's WAL append, the winner's commit and the epoch publish.
func TestTracerSequenceSharedEpoch(t *testing.T) {
	tr := &seqTracer{gate: make(chan struct{})}
	db, err := Open(t.TempDir(), storageSchema(), DurOptions{Sync: wal.SyncOff, Tracer: tr})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	dA := mkDelta(t, db, 1)
	dB := mkDelta(t, db, 2)
	var wg sync.WaitGroup
	var ctA, ctB uint64
	var cfA, cfB *Conflict
	wg.Add(1)
	go func() {
		defer wg.Done()
		// A reads and writes tuple 1; its enqueue event blocks in the
		// tracer until B is behind it in the queue.
		ctA, cfA, _ = db.CommitValidated(Commit{
			Label: "A", BaseTime: 0, Reads: keyRead("r", intTuple(1)), Ins: dA,
		})
	}()
	deadline := time.Now().Add(5 * time.Second)
	for !tr.has(obs.EvTxnEnqueue, "A") {
		if time.Now().After(deadline) {
			t.Fatal("leader never reached its enqueue event")
		}
		time.Sleep(time.Millisecond)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		// B reads the tuple A writes (same base snapshot), so intra-epoch
		// validation in queue order must reject it with A's key.
		ctB, cfB, _ = db.CommitValidated(Commit{
			Label: "B", BaseTime: 0, Reads: keyRead("r", intTuple(1), intTuple(2)), Ins: dB,
		})
	}()
	wg.Wait()

	if cfA != nil || ctA != 1 {
		t.Fatalf("A: time=%d conflict=%v, want commit at t=1", ctA, cfA)
	}
	if cfB == nil || ctB != 0 {
		t.Fatalf("B: time=%d conflict=%v, want an intra-epoch conflict", ctB, cfB)
	}
	if cfB.Relation != "r" || cfB.Key != intTuple(1).Key() {
		t.Errorf("B conflict = %+v, want relation r key %q", cfB, intTuple(1).Key())
	}

	type want struct {
		kind obs.EventKind
		txn  string
		ok   bool
	}
	wants := []want{
		{obs.EvTxnEnqueue, "A", false},
		{obs.EvTxnEnqueue, "B", false},
		{obs.EvTxnValidate, "A", true},
		{obs.EvTxnValidate, "B", false},
		{obs.EvWALAppend, "", false},
		{obs.EvTxnCommit, "A", false},
		{obs.EvEpochPublish, "", false},
	}
	got := tr.snapshot()
	if len(got) != len(wants) {
		t.Fatalf("recorded %d events %v, want %d", len(got), got, len(wants))
	}
	for i, w := range wants {
		e := got[i]
		if e.Kind != w.kind || e.Txn != w.txn {
			t.Fatalf("event %d = {%s %q}, want {%s %q}\nfull sequence: %v", i, e.Kind, e.Txn, w.kind, w.txn, got)
		}
		if e.Kind == obs.EvTxnValidate && e.OK != w.ok {
			t.Errorf("event %d (%s %s): OK=%v, want %v", i, e.Kind, e.Txn, e.OK, w.ok)
		}
	}
	// Every epoch-scoped event carries the shared epoch's published time.
	for _, e := range got {
		switch e.Kind {
		case obs.EvWALAppend, obs.EvTxnCommit, obs.EvEpochPublish:
			if e.Epoch != 1 {
				t.Errorf("%s: epoch %d, want 1", e.Kind, e.Epoch)
			}
		}
	}
	if got[5].Time != 1 {
		t.Errorf("commit event at t=%d, want 1", got[5].Time)
	}
	if got[6].N != 1 {
		t.Errorf("publish event installed %d members, want 1", got[6].N)
	}
	if got[4].Bytes == 0 || got[4].LSN == 0 {
		t.Errorf("WAL append event = %+v, want non-zero LSN and bytes", got[4])
	}

	// The losing member's conflict is visible in the registry view too.
	st := db.Stats()
	if st.Commits != 1 || st.Conflicts != 1 || st.Epochs != 1 {
		t.Errorf("stats = %+v, want 1 commit, 1 conflict, 1 epoch", st)
	}
}

// panicOnceTracer panics on the first validation verdict it is shown — under
// the commit lock, on the drainer — and is silent afterwards.
type panicOnceTracer struct{ fired atomic.Bool }

func (p *panicOnceTracer) Event(e obs.Event) {
	if e.Kind == obs.EvTxnValidate && p.fired.CompareAndSwap(false, true) {
		panic("tracer bug")
	}
}

// TestTracerPanicDoesNotWedgeCommits: a tracer callback that panics inside
// the commit pipeline loses its event and is counted; it must not unwind the
// drainer with the commit lock held and the drainer role taken, which would
// park every later commit for good.
func TestTracerPanicDoesNotWedgeCommits(t *testing.T) {
	db := New(storageSchema())
	db.SetObservability(db.Registry(), &panicOnceTracer{})

	for v := int64(1); v <= 2; v++ {
		c := Commit{BaseTime: db.Time(), Reads: keyRead("r", intTuple(v)), Ins: mkDelta(t, db, v)}
		errc := make(chan error, 1) // one send, never blocks the committer
		go func() {
			defer func() {
				if r := recover(); r != nil {
					errc <- fmt.Errorf("commit %d panicked: %v", v, r)
				}
			}()
			ct, cf, err := db.CommitValidated(c)
			if err != nil || cf != nil || ct != uint64(v) {
				err = fmt.Errorf("commit %d: time=%d conflict=%v err=%v", v, ct, cf, err)
			}
			errc <- err
		}()
		select {
		case err := <-errc:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("commit %d never returned: the commit queue is wedged", v)
		}
	}
	if n := db.Registry().Counter("repro_storage_tracer_panics_total").Value(); n != 1 {
		t.Errorf("tracer panics counted = %d, want 1", n)
	}
}

// replayPanicTracer panics on every recovery-replay event and records
// nothing else.
type replayPanicTracer struct{}

func (replayPanicTracer) Event(e obs.Event) {
	if e.Kind == obs.EvRecoveryReplay {
		panic("tracer bug during replay")
	}
}

// TestTracerPanicDuringReplayDoesNotFailOpen: recovery replay reports its
// progress to the tracer like every other stage, through the same guard. A
// tracer that panics on those events loses them and is counted; it must not
// fail Open of a directory with a WAL tail to replay.
func TestTracerPanicDuringReplayDoesNotFailOpen(t *testing.T) {
	dir := t.TempDir()
	db := openDur(t, dir, DurOptions{CheckpointBytes: -1})
	for i := int64(1); i <= 3; i++ {
		durCommit(t, db, map[string][]relation.Tuple{"alpha": {durTuple(i, fmt.Sprint(i))}}, nil)
	}
	want := dumpState(db.Snapshot())
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	reg := obs.NewRegistry()
	db2, err := Open(dir, durSchema(), DurOptions{CheckpointBytes: -1, Metrics: reg, Tracer: replayPanicTracer{}})
	if err != nil {
		t.Fatalf("Open with a panicking tracer: %v", err)
	}
	defer db2.Close()
	if got := dumpState(db2.Snapshot()); got != want {
		t.Fatalf("recovered state:\n%s\nwant:\n%s", got, want)
	}
	if n := reg.Counter("repro_recovery_replayed_records_total").Value(); n != 3 {
		t.Errorf("replayed records = %d, want 3", n)
	}
	if n := reg.Counter("repro_storage_tracer_panics_total").Value(); n != 1 {
		t.Errorf("tracer panics counted = %d, want 1", n)
	}
}
