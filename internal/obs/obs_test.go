package obs

import (
	"bytes"
	"encoding/json"
	"expvar"
	"flag"
	"math"
	"os"
	"sync"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// TestObsConcurrentHammer drives counters, gauges and histograms from 16
// goroutines while a snapshotter reads concurrently (the -race CI stress
// runs this); the final totals must be exact.
func TestObsConcurrentHammer(t *testing.T) {
	const (
		workers = 16
		perG    = 10000
	)
	reg := NewRegistry()
	c := reg.Counter("repro_txn_statements_total")
	g := reg.Gauge("repro_wal_flush_queue_depth")
	h := reg.Histogram("repro_wal_fsync_seconds")

	stop := make(chan struct{})
	var snaps sync.WaitGroup
	snaps.Add(1)
	go func() {
		defer snaps.Done()
		var last uint64
		for {
			select {
			case <-stop:
				return
			default:
			}
			s := reg.Snapshot()
			if v := s.Counters["repro_txn_statements_total"]; v < last {
				t.Errorf("counter went backwards: %d -> %d", last, v)
				return
			} else {
				last = v
			}
			if hs := s.Histograms["repro_wal_fsync_seconds"]; hs.Quantile(0.99) < 0 {
				t.Error("negative quantile")
				return
			}
		}
	}()

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				c.Add(1)
				g.Add(1)
				h.Observe(uint64(w*perG + i))
				g.Add(-1)
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	snaps.Wait()

	if got := c.Value(); got != workers*perG {
		t.Fatalf("counter = %d, want %d", got, workers*perG)
	}
	if got := g.Value(); got != 0 {
		t.Fatalf("gauge = %d, want 0", got)
	}
	hs := h.Snapshot()
	if hs.Count != workers*perG {
		t.Fatalf("histogram count = %d, want %d", hs.Count, workers*perG)
	}
	var wantSum uint64
	for i := uint64(0); i < workers*perG; i++ {
		wantSum += i
	}
	if hs.Sum != wantSum {
		t.Fatalf("histogram sum = %d, want %d", hs.Sum, wantSum)
	}
}

func TestNilMetricsAreNoOps(t *testing.T) {
	var (
		c *Counter
		g *Gauge
		h *Histogram
		r *Registry
	)
	c.Add(3)
	c.Inc()
	g.Set(5)
	g.Add(-2)
	h.Observe(7)
	if c.Value() != 0 || g.Value() != 0 || h.Snapshot().Count != 0 {
		t.Fatal("nil metrics must read zero")
	}
	if r.Counter("repro_txn_retries_total") != nil {
		t.Fatal("nil registry must hand out nil metrics")
	}
	if s := r.Snapshot(); s.Counters != nil {
		t.Fatal("nil registry snapshot must be empty")
	}
	var buf bytes.Buffer
	if err := WriteProm(&buf, r); err != nil || buf.Len() != 0 {
		t.Fatalf("nil registry exposition: err=%v len=%d", err, buf.Len())
	}
}

func TestMetricHotPathDoesNotAllocate(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("repro_txn_attempts_total")
	h := reg.Histogram("repro_txn_statement_seconds")
	if n := testing.AllocsPerRun(1000, func() { c.Add(1) }); n != 0 {
		t.Fatalf("Counter.Add allocates %v per op", n)
	}
	if n := testing.AllocsPerRun(1000, func() { h.Observe(123456) }); n != 0 {
		t.Fatalf("Histogram.Observe allocates %v per op", n)
	}
}

func TestRegistryIdempotentAndKindChecked(t *testing.T) {
	reg := NewRegistry()
	a := reg.Counter("repro_storage_commits_total")
	b := reg.Counter("repro_storage_commits_total")
	if a != b {
		t.Fatal("get-or-create must return the same counter")
	}
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: expected panic", name)
			}
		}()
		f()
	}
	mustPanic("kind mismatch", func() { reg.Gauge("repro_storage_commits_total") })
	mustPanic("bad layer", func() { reg.Counter("repro_bogus_things_total") })
	mustPanic("counter without _total", func() { reg.Counter("repro_txn_retries") })
	mustPanic("histogram without unit", func() { reg.Histogram("repro_wal_fsync") })
	mustPanic("gauge with _total", func() { reg.Gauge("repro_wal_depth_total") })
	mustPanic("uppercase", func() { reg.Counter("repro_txn_Retries_total") })
}

func TestHistogramQuantile(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("repro_storage_epoch_txns_size")
	for i := uint64(1); i <= 1000; i++ {
		h.Observe(i)
	}
	s := h.Snapshot()
	if s.Count != 1000 || s.Sum != 500500 {
		t.Fatalf("count=%d sum=%d", s.Count, s.Sum)
	}
	// Power-of-two buckets: the estimate must land within the true value's
	// bucket, i.e. within a factor of two.
	for _, tc := range []struct{ q, want float64 }{{0.5, 500}, {0.99, 990}, {1, 1000}} {
		got := s.Quantile(tc.q)
		if got < tc.want/2 || got > tc.want*2 {
			t.Errorf("Quantile(%v) = %v, want within 2x of %v", tc.q, got, tc.want)
		}
	}
	if m := s.Mean(); math.Abs(m-500.5) > 1e-9 {
		t.Errorf("Mean = %v, want 500.5", m)
	}
	if (HistSnapshot{}).Quantile(0.5) != 0 {
		t.Error("empty histogram quantile must be 0")
	}
}

// TestPromGolden pins the exposition format byte for byte. Regenerate with
// go test ./internal/obs -run TestPromGolden -update.
func TestPromGolden(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("repro_storage_commits_total").Add(42)
	reg.Counter("repro_storage_conflicts_total") // registered, never hit
	reg.Gauge("repro_wal_flush_queue_depth").Set(3)
	h := reg.Histogram("repro_wal_fsync_seconds")
	for _, ns := range []uint64{0, 900, 1000, 1500, 2_000_000} {
		h.Observe(ns)
	}
	reg.Histogram("repro_storage_epoch_txns_size").Observe(5)

	var buf bytes.Buffer
	if err := WriteProm(&buf, reg); err != nil {
		t.Fatal(err)
	}
	const path = "testdata/prom.golden"
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("exposition drifted from golden file:\n--- got ---\n%s\n--- want ---\n%s", buf.Bytes(), want)
	}
}

func TestPublishExpvar(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("repro_recovery_replayed_records_total").Add(9)
	PublishExpvar("repro-test-metrics", reg)
	PublishExpvar("repro-test-metrics", reg) // second publish is a no-op
	v := expvar.Get("repro-test-metrics")
	if v == nil {
		t.Fatal("expvar not published")
	}
	var s Snapshot
	if err := json.Unmarshal([]byte(v.String()), &s); err != nil {
		t.Fatal(err)
	}
	if s.Counters["repro_recovery_replayed_records_total"] != 9 {
		t.Fatalf("snapshot = %+v", s)
	}
}
