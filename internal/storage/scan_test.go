package storage

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/obs"
	"repro/internal/pmap"
	"repro/internal/relation"
	"repro/internal/value"
	"repro/internal/wal"
)

// scanRow is row i of the scan tests' relation: an int and a padded string
// of width bytes, so the node blocks have the size of real rows.
func scanRow(i int64, width int) relation.Tuple {
	s := fmt.Sprintf("%08d-", i)
	return durTuple(i, s+strings.Repeat("x", max(width-len(s), 0)))
}

// writeScanRelation loads rows scanRow tuples into alpha of a fresh durable
// database under dir, checkpoints it and closes it, and returns the bytes
// its checkpoint files take on disk.
func writeScanRelation(tb testing.TB, dir string, rows, width int) int64 {
	tb.Helper()
	db, err := Open(dir, durSchema(), DurOptions{Sync: wal.SyncOff, CheckpointBytes: -1})
	if err != nil {
		tb.Fatal(err)
	}
	tuples := make([]relation.Tuple, rows)
	for i := range tuples {
		tuples[i] = scanRow(int64(i), width)
	}
	rs, _ := db.Schema().Relation("alpha")
	if err := db.Load(relation.MustFromTuples(rs, tuples...)); err != nil {
		tb.Fatal(err)
	}
	if err := db.Checkpoint(); err != nil {
		tb.Fatal(err)
	}
	if err := db.Close(); err != nil {
		tb.Fatal(err)
	}
	var size int64
	ents, err := os.ReadDir(dir)
	if err != nil {
		tb.Fatal(err)
	}
	for _, e := range ents {
		if filepath.Ext(e.Name()) == ".ck" {
			fi, err := e.Info()
			if err != nil {
				tb.Fatal(err)
			}
			size += fi.Size()
		}
	}
	return size
}

// scanAll scans r and returns the number of tuples it saw and the sum of
// their first columns; it fails the test on a tuple it sees twice.
func scanAll(t *testing.T, r *relation.Relation) (n int, sum int64) {
	t.Helper()
	seen := map[int64]bool{}
	if err := r.ForEach(func(tp relation.Tuple) error {
		a := tp[0].AsInt()
		if seen[a] {
			return fmt.Errorf("tuple %d seen twice", a)
		}
		seen[a] = true
		n++
		sum += a
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return n, sum
}

// TestPagedScanDoesNotEvict scans a relation four times larger than the
// cache: the scan sees exactly the stored tuples, evicts nothing, and the
// nodes probes cached before it still hit after it.
func TestPagedScanDoesNotEvict(t *testing.T) {
	const (
		rows   = 12000
		width  = 104
		budget = int64(256 << 10)
	)
	dir := t.TempDir()
	if size := writeScanRelation(t, dir, rows, width); size < 4*budget {
		t.Fatalf("dataset too small for the test: %d bytes on disk, want >= 4x the %d budget", size, budget)
	}
	reg := obs.NewRegistry()
	db := openDur(t, dir, pagedOpts(budget, reg))
	defer db.Close()
	r := db.Snapshot().tabs["alpha"].inst
	counter := func(name string) uint64 { return reg.Snapshot().Counters[name] }

	probe := func() {
		t.Helper()
		for i := int64(0); i < rows; i += 1501 {
			if !r.ContainsKey(scanRow(i, width).Key()) {
				t.Fatalf("probe missed row %d", i)
			}
		}
	}
	probe()
	evictions := counter("repro_storage_cache_evictions_total")
	misses := counter("repro_storage_cache_misses_total")
	probe()
	if got := counter("repro_storage_cache_misses_total"); got != misses {
		t.Fatalf("the probes' nodes do not fit the budget: the second round missed %d times", got-misses)
	}

	n, sum := scanAll(t, r)
	if want := int64(rows) * (rows - 1) / 2; n != rows || sum != want {
		t.Fatalf("scan saw %d tuples summing to %d, want %d summing to %d", n, sum, rows, want)
	}
	if got := counter("repro_storage_cache_evictions_total"); got != evictions {
		t.Fatalf("the scan evicted %d nodes; a scan must only fill free budget", got-evictions)
	}
	if counter("repro_storage_cache_streamed_total") == 0 {
		t.Fatal("no read was streamed; the relation did not outgrow the cache")
	}
	misses = counter("repro_storage_cache_misses_total")
	probe()
	if got := counter("repro_storage_cache_misses_total"); got != misses {
		t.Fatalf("probes after the scan missed %d times; the scan displaced their nodes", got-misses)
	}
}

// TestPagedScanFillsFreeBudget scans a relation smaller than the cache
// twice: the first scan admits every node it reads, so the second reads
// nothing from disk.
func TestPagedScanFillsFreeBudget(t *testing.T) {
	const (
		rows  = 2000
		width = 64
	)
	dir := t.TempDir()
	writeScanRelation(t, dir, rows, width)
	reg := obs.NewRegistry()
	db := openDur(t, dir, pagedOpts(16<<20, reg))
	defer db.Close()
	r := db.Snapshot().tabs["alpha"].inst
	counter := func(name string) uint64 { return reg.Snapshot().Counters[name] }

	if n, _ := scanAll(t, r); n != rows {
		t.Fatalf("first scan saw %d tuples, want %d", n, rows)
	}
	misses := counter("repro_storage_cache_misses_total")
	if misses == 0 {
		t.Fatal("the first scan read nothing; the relation is not paged")
	}
	if n, _ := scanAll(t, r); n != rows {
		t.Fatalf("second scan saw %d tuples, want %d", n, rows)
	}
	if got := counter("repro_storage_cache_misses_total"); got != misses {
		t.Fatalf("the second scan missed %d times; want 0", got-misses)
	}
	if s := counter("repro_storage_cache_streamed_total"); s != 0 {
		t.Fatalf("%d reads were streamed past a cache with room for the relation", s)
	}
	if e := counter("repro_storage_cache_evictions_total"); e != 0 {
		t.Fatalf("%d evictions under a budget larger than the relation", e)
	}
}

// TestConcurrentScanWhileCheckpoint streams scans of an old and of fresh
// snapshots while commits run and full checkpoints unlink the files the
// old snapshot's stubs address. Every scan sees exactly its snapshot's
// tuples, and a scan after Close fails with the node-cache-closed fault.
func TestConcurrentScanWhileCheckpoint(t *testing.T) {
	const (
		rows    = 3000
		width   = 48
		commits = 60
	)
	dir := t.TempDir()
	writeScanRelation(t, dir, rows, width)
	opts := pagedOpts(32<<10, nil)
	opts.FullEvery = 2
	db := openDur(t, dir, opts)
	old := db.Snapshot()

	// Commit i inserts row rows+i, so a snapshot of Len rows+k holds rows
	// 0 .. rows+k-1.
	wantSum := func(n int) int64 { return int64(n) * int64(n-1) / 2 }
	var wg sync.WaitGroup
	var done atomic.Bool
	errs := make(chan error, 3) // one per scanner
	scanner := func(snap func() *Snapshot) {
		defer wg.Done()
		for first := true; first || !done.Load(); first = false {
			r := snap().tabs["alpha"].inst
			want := r.Len()
			n, sum := 0, int64(0)
			if err := r.ForEach(func(tp relation.Tuple) error {
				n++
				sum += tp[0].AsInt()
				return nil
			}); err != nil {
				errs <- err
				return
			}
			if n != want || sum != wantSum(want) {
				errs <- fmt.Errorf("scan of a %d-tuple snapshot saw %d tuples summing to %d, want %d", want, n, sum, wantSum(want))
				return
			}
		}
	}
	// stop ends the scanners and waits for them, also when a failed commit
	// ends the test early.
	stop := func() {
		done.Store(true)
		wg.Wait()
	}
	defer stop()
	wg.Add(3)
	go scanner(func() *Snapshot { return old })
	go scanner(func() *Snapshot { return old })
	go scanner(db.Snapshot)
	for i := 0; i < commits; i++ {
		durCommit(t, db, map[string][]relation.Tuple{"alpha": {scanRow(rows+int64(i), width)}}, nil)
		if i%10 == 9 {
			if err := db.Checkpoint(); err != nil {
				t.Error(err)
				break
			}
		}
	}
	stop()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, ckptName(1))); !os.IsNotExist(err) {
		t.Fatalf("the file the old snapshot was opened from was not unlinked (stat: %v)", err)
	}
	if n, sum := scanAll(t, old.tabs["alpha"].inst); n != rows || sum != wantSum(rows) {
		t.Fatalf("old snapshot after the checkpoints: %d tuples summing to %d", n, sum)
	}

	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	err := func() (err error) {
		defer func() {
			if r := recover(); r != nil {
				fe, ok := r.(*pmap.FaultError)
				if !ok {
					panic(r)
				}
				err = fe
			}
		}()
		return old.tabs["alpha"].inst.ForEach(func(relation.Tuple) error { return nil })
	}()
	var fe *pmap.FaultError
	if !errors.As(err, &fe) || !errors.Is(err, errCacheClosed) {
		t.Fatalf("scan after Close: err = %v, want the node-cache-closed pmap.FaultError", err)
	}
}

// TestPagedScanReadsAndAllocations pins what a scan of a relation larger
// than the cache costs: a 40 000-row scan behind a 1 MiB cache reads its
// checkpoint file a window at a time (at most 400 ReadAt calls, where a
// read per node block makes about 6 700) and decodes into chunks (at most
// 1 000 allocations, where per-block arrays make about 16 500).
func TestPagedScanReadsAndAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	const rows = 40000
	dir := t.TempDir()
	writeScanRelation(t, dir, rows, 64)
	reg := obs.NewRegistry()
	db := openDur(t, dir, pagedOpts(1<<20, reg))
	defer db.Close()
	r := db.Snapshot().tabs["alpha"].inst
	scan := func() {
		if n, _ := scanAll(t, r); n != rows {
			t.Fatalf("scan saw %d tuples, want %d", n, rows)
		}
	}
	counter := func(name string) uint64 { return reg.Snapshot().Counters[name] }
	scan() // the first scan admits what fits the cache
	reads, misses := counter("repro_storage_cache_reads_total"), counter("repro_storage_cache_misses_total")
	count := func(tp relation.Tuple) error { return nil }
	allocs := testing.AllocsPerRun(3, func() {
		if err := r.ForEach(count); err != nil {
			t.Fatal(err)
		}
	})
	perScan := (counter("repro_storage_cache_reads_total") - reads) / 4
	missed := (counter("repro_storage_cache_misses_total") - misses) / 4
	t.Logf("a scan misses %d node blocks, makes %d reads and allocates %.0f times", missed, perScan, allocs)
	if missed < 5000 {
		t.Fatalf("a scan missed only %d node blocks; the relation does not outgrow the cache", missed)
	}
	if perScan > 400 {
		t.Errorf("a scan makes %d ReadAt calls, want at most 400", perScan)
	}
	if allocs > 1000 {
		t.Errorf("a scan allocates %.0f times, want at most 1000", allocs)
	}
}

// TestConcurrentScansShareNothing runs two scans of one paged relation at
// once while the test's goroutine commits and runs full checkpoints, which
// unlink the files the scans read. Each scan sees every tuple, and the
// tuples a scan handed out keep their values after later scans, in either
// goroutine, have decoded into their own chunks.
func TestConcurrentScansShareNothing(t *testing.T) {
	const (
		rows  = 4000
		width = 56
	)
	dir := t.TempDir()
	writeScanRelation(t, dir, rows, width)
	opts := pagedOpts(64<<10, nil)
	opts.FullEvery = 1
	db := openDur(t, dir, opts)
	defer db.Close()
	r := db.Snapshot().tabs["alpha"].inst

	var wg sync.WaitGroup
	var done atomic.Bool
	errs := make(chan error, 2)
	kept := make([][]relation.Tuple, 2)
	for g := range kept {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for first := true; first || !done.Load(); first = false {
				var got []relation.Tuple
				if err := r.ForEach(func(tp relation.Tuple) error {
					got = append(got, tp)
					return nil
				}); err != nil {
					errs <- err
					return
				}
				if len(got) != rows {
					errs <- fmt.Errorf("scanner %d saw %d tuples, want %d", g, len(got), rows)
					return
				}
				kept[g] = append(kept[g][:0:0], got...)
			}
		}()
	}
	// stop ends the scanners and waits for them, also when a failed commit
	// ends the test early.
	stop := func() {
		done.Store(true)
		wg.Wait()
	}
	defer stop()
	for i := 0; i < 6; i++ {
		durCommit(t, db, map[string][]relation.Tuple{"alpha": {scanRow(rows+int64(i), width)}}, nil)
		if err := db.Checkpoint(); err != nil {
			t.Fatal(err)
		}
	}
	stop()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	for g, ts := range kept {
		seen := make(map[int64]bool, rows)
		for _, tp := range ts {
			i := tp[0].AsInt()
			if want := scanRow(i, width); seen[i] || !tp.Equal(want) {
				t.Fatalf("scanner %d kept tuple %v (seen before: %v), want %v", g, tp, seen[i], want)
			}
			seen[i] = true
		}
	}
}

// TestStreamedNodeAllocations pins what a streamed leaf costs: its
// allocations do not grow with its tuples (its tuples take the free room of
// the scan's chunks, whatever it holds).
func TestStreamedNodeAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	allocs := func(tuples int) float64 {
		dir := t.TempDir()
		body := binary.AppendUvarint(nil, uint64(1)<<tuples-1)
		body = append(body, 0)
		body = binary.AppendUvarint(body, uint64(tuples))
		for i := 0; i < tuples; i++ {
			body = append(body, 0)
			body = relation.AppendTuple(body, relation.Tuple{
				value.Int(int64(i)), value.String(fmt.Sprintf("row-%04d", i)), value.Float(1.5)})
		}
		file := append(make([]byte, 8), binary.AppendUvarint(nil, uint64(len(body)))...)
		file = append(file, body...)
		if err := os.WriteFile(filepath.Join(dir, ckptName(1)), file, 0o644); err != nil {
			t.Fatal(err)
		}
		p := newPager(dir, 0, nil) // no free budget: every read streams
		defer p.Close()
		addr := pmap.Addr(1<<addrShift | 8)
		sc := p.Scan()
		defer sc.Close()
		buf, err := sc.Stream(addr, nil)
		if err != nil || len(buf) != tuples {
			t.Fatalf("stream of a %d-tuple leaf: %d slots, err %v", tuples, len(buf), err)
		}
		return testing.AllocsPerRun(100, func() {
			if buf, err = sc.Stream(addr, buf[:0]); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(4), allocs(40)
	t.Logf("a streamed leaf allocates %.0f times at 4 tuples and %.0f at 40", small, large)
	if small != large {
		t.Fatalf("a streamed leaf allocates %.0f times at 4 tuples but %.0f at 40; want the same", small, large)
	}
}

// BenchmarkPagedScan scans a 40 000-row relation (an int and a 64-byte
// string per row) behind a 1 MiB node cache, and reports the ReadAt calls
// a scan makes (reads/op).
func BenchmarkPagedScan(b *testing.B) {
	const rows = 40000
	dir := b.TempDir()
	writeScanRelation(b, dir, rows, 64)
	reg := obs.NewRegistry()
	db, err := Open(dir, durSchema(), DurOptions{Sync: wal.SyncOff, CheckpointBytes: -1, CacheBytes: 1 << 20, Metrics: reg})
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	r := db.Snapshot().tabs["alpha"].inst
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		if err := r.ForEach(func(relation.Tuple) error { n++; return nil }); err != nil {
			b.Fatal(err)
		}
		if n != rows {
			b.Fatalf("scan saw %d tuples, want %d", n, rows)
		}
	}
	b.StopTimer()
	reads := reg.Snapshot().Counters["repro_storage_cache_reads_total"]
	b.ReportMetric(float64(reads)/float64(b.N), "reads/op")
}
