package storage

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/pmap"
	"repro/internal/relation"
	"repro/internal/wal"
)

// pagedOpts returns DurOptions for a paged database with the given cache
// budget. Automatic checkpoints are disabled so the tests control the chain
// shape explicitly.
func pagedOpts(cacheBytes int64, reg *obs.Registry) DurOptions {
	return DurOptions{
		Sync:            wal.SyncOff,
		CheckpointBytes: -1,
		FullEvery:       3,
		CacheBytes:      cacheBytes,
		Metrics:         reg,
	}
}

// TestPagedMatchesResident drives a paged database (cache budget far below
// the data size) through several generations of commits, checkpoints and
// reopens, and checks after every generation that it agrees with a model map
// and, at every reopen, with a fully resident open of the same directory.
func TestPagedMatchesResident(t *testing.T) {
	dir := t.TempDir()
	opts := pagedOpts(4096, nil)
	db := openDur(t, dir, opts)
	names := []string{"alpha", "beta", "gamma"}
	model := map[string]map[int64]string{}
	for _, n := range names {
		model[n] = map[int64]string{}
	}
	next := int64(0)

	checkAgainstModel := func(gen int) {
		t.Helper()
		s := db.Snapshot()
		for _, n := range names {
			r := s.tabs[n].inst
			if r.Len() != len(model[n]) {
				t.Fatalf("gen %d: %s: Len=%d want %d", gen, n, r.Len(), len(model[n]))
			}
			for k, v := range model[n] {
				if !r.ContainsKey(durTuple(k, v).Key()) {
					t.Fatalf("gen %d: %s: missing tuple (%d,%q)", gen, n, k, v)
				}
			}
			if r.ContainsKey(durTuple(-1, "absent").Key()) {
				t.Fatalf("gen %d: %s: contains a tuple that was never inserted", gen, n)
			}
		}
	}

	for gen := 0; gen < 9; gen++ {
		ins := map[string][]relation.Tuple{}
		del := map[string][]relation.Tuple{}
		for _, n := range names {
			// Deletes come from earlier generations only; a tuple inserted
			// and deleted in the same commit is not a meaningful delta.
			var doomed []int64
			for k := range model[n] {
				if len(doomed) >= 8 {
					break
				}
				doomed = append(doomed, k)
			}
			for _, k := range doomed {
				del[n] = append(del[n], durTuple(k, model[n][k]))
				delete(model[n], k)
			}
			for i := 0; i < 25; i++ {
				next++
				v := fmt.Sprintf("g%02d-%06d", gen, next)
				ins[n] = append(ins[n], durTuple(next, v))
				model[n][next] = v
			}
		}
		durCommit(t, db, ins, del)
		if gen%2 == 0 {
			if err := db.Checkpoint(); err != nil {
				t.Fatalf("gen %d: checkpoint: %v", gen, err)
			}
		}
		checkAgainstModel(gen)

		if gen%3 == 2 {
			// Reopen fully resident and compare the canonical dump, then
			// continue on a fresh paged open of the same directory.
			if err := db.Close(); err != nil {
				t.Fatalf("gen %d: close: %v", gen, err)
			}
			res := openDur(t, dir, DurOptions{Sync: wal.SyncOff, CheckpointBytes: -1})
			wantDump := dumpState(res.Snapshot())
			if err := res.Close(); err != nil {
				t.Fatalf("gen %d: close resident: %v", gen, err)
			}
			db = openDur(t, dir, opts)
			if got := dumpState(db.Snapshot()); got != wantDump {
				t.Fatalf("gen %d: paged reopen diverges from resident open:\npaged:\n%s\nresident:\n%s", gen, got, wantDump)
			}
			checkAgainstModel(gen)
		}
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestPagedOpenIsShallow checks that opening a paged database faults no node
// blocks: the relations come up as stubs over the checkpoint chain and the
// first read is what pages data in.
func TestPagedOpenIsShallow(t *testing.T) {
	dir := t.TempDir()
	db := openDur(t, dir, DurOptions{Sync: wal.SyncOff, CheckpointBytes: -1})
	ins := map[string][]relation.Tuple{}
	for i := int64(0); i < 500; i++ {
		ins["alpha"] = append(ins["alpha"], durTuple(i, fmt.Sprintf("row-%04d", i)))
	}
	durCommit(t, db, ins, nil)
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	reg := obs.NewRegistry()
	db = openDur(t, dir, pagedOpts(1<<20, reg))
	defer db.Close()
	if m := reg.Snapshot().Counters["repro_storage_cache_misses_total"]; m != 0 {
		t.Fatalf("open faulted %d node blocks; want a shallow open (0)", m)
	}
	if !db.Snapshot().tabs["alpha"].inst.ContainsKey(durTuple(123, "row-0123").Key()) {
		t.Fatal("probe after shallow open missed a committed tuple")
	}
	if m := reg.Snapshot().Counters["repro_storage_cache_misses_total"]; m == 0 {
		t.Fatal("probe after shallow open faulted nothing; relation is not paged")
	}
}

// TestLargerThanCachePaging builds a dataset several times larger than the
// cache budget, reopens paged and checks that scans and probes return the
// full data while the cache occupancy stays within the budget and the CLOCK
// hand actually evicts.
func TestLargerThanCachePaging(t *testing.T) {
	const (
		rows   = 12000
		budget = int64(256 << 10)
	)
	dir := t.TempDir()
	db := openDur(t, dir, DurOptions{Sync: wal.SyncOff, CheckpointBytes: -1})
	pad := make([]byte, 96)
	for i := range pad {
		pad[i] = 'x'
	}
	var tuples []relation.Tuple
	for i := int64(0); i < rows; i++ {
		tuples = append(tuples, durTuple(i, fmt.Sprintf("%08d-%s", i, pad)))
	}
	rs, _ := db.Schema().Relation("alpha")
	if err := db.Load(relation.MustFromTuples(rs, tuples...)); err != nil {
		t.Fatal(err)
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	var dataBytes int64
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if filepath.Ext(e.Name()) == ".ck" {
			fi, _ := e.Info()
			dataBytes += fi.Size()
		}
	}
	if dataBytes < 4*budget {
		t.Fatalf("dataset too small for the test: %d bytes on disk, want >= 4x the %d budget", dataBytes, budget)
	}

	reg := obs.NewRegistry()
	db = openDur(t, dir, pagedOpts(budget, reg))
	defer db.Close()
	r := db.Snapshot().tabs["alpha"].inst

	n := 0
	if err := r.ForEach(func(tp relation.Tuple) error { n++; return nil }); err != nil {
		t.Fatal(err)
	}
	if n != rows {
		t.Fatalf("cold scan saw %d tuples, want %d", n, rows)
	}
	for i := int64(0); i < rows; i += 97 {
		if !r.ContainsKey(durTuple(i, fmt.Sprintf("%08d-%s", i, pad)).Key()) {
			t.Fatalf("probe missed row %d", i)
		}
	}

	s := reg.Snapshot()
	if s.Counters["repro_storage_cache_misses_total"] == 0 {
		t.Fatal("no cache misses; the dataset did not page")
	}
	if s.Counters["repro_storage_cache_evictions_total"] == 0 {
		t.Fatal("no evictions; budget was never exceeded")
	}
	if s.Counters["repro_storage_cache_hits_total"] == 0 {
		t.Fatal("no cache hits; repeated probes should reuse resident nodes")
	}
	if occ := s.Gauges["repro_storage_cache_occupancy"]; occ > budget {
		t.Fatalf("cache occupancy %d exceeds the %d budget", occ, budget)
	}

	// The paged instance must still accept commits (O(delta) path on stubs).
	durCommit(t, db, map[string][]relation.Tuple{
		"beta": {durTuple(1, "post-paging")},
	}, map[string][]relation.Tuple{
		"alpha": {durTuple(42, fmt.Sprintf("%08d-%s", 42, pad))},
	})
	s2 := db.Snapshot()
	if s2.tabs["alpha"].inst.Len() != rows-1 {
		t.Fatalf("delete through the paged trie: Len=%d want %d", s2.tabs["alpha"].inst.Len(), rows-1)
	}
	if !s2.tabs["beta"].inst.ContainsKey(durTuple(1, "post-paging").Key()) {
		t.Fatal("insert on the paged instance lost")
	}
}

// TestSupersededFilesUnlinkedAtFullCheckpoint checks what replaced the
// checkpoint-chain GC gate: the full checkpoint that supersedes files 1 and 2
// unlinks them itself, a snapshot taken before it still reads every tuple
// through the handles the pager holds, and once Close has dropped those
// handles a fault fails with an error instead of reading a closed file.
func TestSupersededFilesUnlinkedAtFullCheckpoint(t *testing.T) {
	dir := t.TempDir()
	opts := pagedOpts(2048, nil)
	opts.FullEvery = 2
	db := openDur(t, dir, opts)

	commit := func(base int64, tag string) {
		ins := map[string][]relation.Tuple{}
		for i := int64(0); i < 200; i++ {
			ins["alpha"] = append(ins["alpha"], durTuple(base+i, fmt.Sprintf("%s-%04d", tag, i)))
		}
		durCommit(t, db, ins, nil)
	}
	ckpt := func() {
		t.Helper()
		if err := db.Checkpoint(); err != nil {
			t.Fatal(err)
		}
	}
	exists := func(id uint64) bool {
		_, err := os.Stat(filepath.Join(dir, ckptName(id)))
		return err == nil
	}
	scan := func(s *Snapshot) (seen int, err error) {
		defer func() {
			if r := recover(); r != nil {
				fe, ok := r.(*pmap.FaultError)
				if !ok {
					panic(r)
				}
				err = fe
			}
		}()
		err = s.tabs["alpha"].inst.ForEach(func(relation.Tuple) error { seen++; return nil })
		return seen, err
	}

	commit(0, "a")
	ckpt() // file 1: full (empty chain)
	commit(1000, "b")
	ckpt() // file 2: incremental
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen paged, so alpha is stubs addressed into files 1 and 2, and make
	// the next checkpoint a full one.
	reg := obs.NewRegistry()
	opts = pagedOpts(2048, reg)
	opts.FullEvery = 1
	db = openDur(t, dir, opts)
	defer db.Close()
	oldSnap := db.Snapshot()
	if !exists(1) || !exists(2) {
		t.Fatal("chain files 1 and 2 missing before the full checkpoint")
	}

	commit(2000, "c")
	ckpt() // file 3: full, supersedes files 1 and 2

	if exists(1) || exists(2) {
		t.Fatal("superseded chain files still on disk after the full checkpoint")
	}
	if !exists(3) {
		t.Fatal("the full checkpoint's own file is missing")
	}
	// The pre-checkpoint snapshot reads every tuple; the 2 KiB cache makes
	// the scan fault, and its root still addresses the unlinked files.
	misses := reg.Snapshot().Counters["repro_storage_cache_misses_total"]
	if seen, err := scan(oldSnap); err != nil || seen != 400 {
		t.Fatalf("scan of the pre-full-checkpoint snapshot: %d tuples, err %v; want 400", seen, err)
	}
	if reg.Snapshot().Counters["repro_storage_cache_misses_total"] == misses {
		t.Fatal("the old snapshot's scan faulted nothing; the test does not exercise the held handles")
	}
	if got := db.Snapshot().tabs["alpha"].inst.Len(); got != 600 {
		t.Fatalf("current Len=%d want 600", got)
	}

	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := scan(oldSnap); err == nil || !strings.Contains(err.Error(), "node cache closed") {
		t.Fatalf("scan after Close: err = %v, want a node-cache-closed fault", err)
	}
}
