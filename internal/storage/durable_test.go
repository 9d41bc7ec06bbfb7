package storage

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/index"
	"repro/internal/obs"
	"repro/internal/relation"
	"repro/internal/schema"
	"repro/internal/value"
	"repro/internal/wal"
)

func durSchema() *schema.Database {
	var rels []*schema.Relation
	for _, n := range []string{"alpha", "beta", "gamma"} {
		rels = append(rels, schema.MustRelation(n,
			schema.Attribute{Name: "a", Type: value.KindInt},
			schema.Attribute{Name: "b", Type: value.KindString}))
	}
	return schema.MustDatabase(rels...)
}

func durTuple(a int64, b string) relation.Tuple {
	return relation.Tuple{value.Int(a), value.String(b)}
}

func openDur(t *testing.T, dir string, opts DurOptions) *Database {
	t.Helper()
	db, err := Open(dir, durSchema(), opts)
	if err != nil {
		t.Fatalf("Open(%s): %v", dir, err)
	}
	return db
}

// durCommit commits one keyed-read transaction inserting and deleting the
// given tuples, serially (its own epoch).
func durCommit(t *testing.T, db *Database, ins, del map[string][]relation.Tuple) {
	t.Helper()
	c := Commit{
		BaseTime: db.Time(),
		Reads:    map[string]*ReadInfo{},
		Ins:      map[string]*relation.Relation{},
		Del:      map[string]*relation.Relation{},
	}
	touch := func(name string, tuples []relation.Tuple, into map[string]*relation.Relation) {
		if len(tuples) == 0 {
			return
		}
		rs, _ := db.Schema().Relation(name)
		into[name] = relation.MustFromTuples(rs, tuples...)
		ri := c.Reads[name]
		if ri == nil {
			ri = &ReadInfo{Keys: map[string]bool{}}
			c.Reads[name] = ri
		}
		for _, tp := range tuples {
			ri.Keys[tp.Key()] = true
		}
	}
	for name, tuples := range ins {
		touch(name, tuples, c.Ins)
	}
	for name, tuples := range del {
		touch(name, tuples, c.Del)
	}
	if _, cf, err := db.CommitValidated(c); err != nil {
		t.Fatalf("commit: %v", err)
	} else if cf != nil {
		t.Fatalf("commit conflicted: %s", cf)
	}
}

// dumpState renders the snapshot's full contents canonically: every
// relation's sorted tuples plus the index definition counts.
func dumpState(s *Snapshot) string {
	var names []string
	for name := range s.tabs {
		names = append(names, name)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, name := range names {
		r := s.tabs[name].inst
		var keys []string
		_ = r.ForEach(func(tp relation.Tuple) error {
			keys = append(keys, tp.String())
			return nil
		})
		sort.Strings(keys)
		set := s.tabs[name].idx
		var sigs []string
		for _, x := range set.All() {
			sigs = append(sigs, index.Sig(x.Cols()))
		}
		fmt.Fprintf(&b, "%s[%s]: %s\n", name, strings.Join(sigs, ";"), strings.Join(keys, " "))
	}
	return b.String()
}

func TestDurableOpenFreshAndReopen(t *testing.T) {
	dir := t.TempDir()
	db := openDur(t, dir, DurOptions{})
	if !db.Durable() || db.Dir() != dir {
		t.Fatalf("Durable=%v Dir=%q", db.Durable(), db.Dir())
	}
	durCommit(t, db, map[string][]relation.Tuple{
		"alpha": {durTuple(1, "one"), durTuple(2, "two")},
		"beta":  {durTuple(10, "ten")},
	}, nil)
	durCommit(t, db,
		map[string][]relation.Tuple{"alpha": {durTuple(3, "three")}},
		map[string][]relation.Tuple{"alpha": {durTuple(1, "one")}})
	if err := db.DefineIndex("alpha", []int{0}); err != nil {
		t.Fatal(err)
	}
	if err := db.DefineIndex("beta", []int{1, 0}); err != nil {
		t.Fatal(err)
	}
	rs, _ := db.Schema().Relation("gamma")
	if err := db.Load(relation.MustFromTuples(rs, durTuple(7, "seven"))); err != nil {
		t.Fatal(err)
	}
	extra := schema.MustRelation("delta", schema.Attribute{Name: "x", Type: value.KindFloat})
	if err := db.Schema().Add(extra); err != nil {
		t.Fatal(err)
	}
	if err := db.AddRelation(extra); err != nil {
		t.Fatal(err)
	}
	want := dumpState(db.Snapshot())
	wantTime, wantLSN := db.Time(), db.DurableLSN()
	if wantLSN == 0 {
		t.Fatal("no WAL records were written")
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db2 := openDur(t, dir, DurOptions{})
	defer db2.Close()
	if got := dumpState(db2.Snapshot()); got != want {
		t.Fatalf("recovered state mismatch\n got:\n%s\nwant:\n%s", got, want)
	}
	if db2.Time() != wantTime || db2.DurableLSN() != wantLSN {
		t.Fatalf("recovered time/lsn = %d/%d, want %d/%d", db2.Time(), db2.DurableLSN(), wantTime, wantLSN)
	}
	if fmt.Sprint(db2.IndexDefs("alpha"), db2.IndexDefs("beta")) != "[[0]] [[1 0]]" {
		t.Fatalf("index defs not recovered: %v %v", db2.IndexDefs("alpha"), db2.IndexDefs("beta"))
	}
	// The recovered database keeps working.
	durCommit(t, db2, map[string][]relation.Tuple{"beta": {durTuple(11, "eleven")}}, nil)
	r, err := db2.Relation("beta")
	if err != nil || r.Len() != 2 {
		t.Fatalf("post-recovery commit: len=%v err=%v", r.Len(), err)
	}
}

// TestCrashPointRecovery is the crash-point property test: a workload of
// logged operations runs to completion, a model records the expected state
// after every WAL record, and then the log is cut at every record boundary
// and at offsets inside frames — simulating a crash whose last write was
// torn — one segment file at a time (tiny segments, so a cut in an early
// file leaves intact successors behind a gap). Every cut must recover to
// exactly the model state of the longest surviving prefix of the log — a
// cut inside the frame of the three-relation epoch to the state before it,
// with none of its relations written — and the recovered database must
// accept new commits that themselves survive a second crash/recover cycle.
func TestCrashPointRecovery(t *testing.T) {
	dir := t.TempDir()
	db := openDur(t, dir, DurOptions{CheckpointBytes: -1, SegmentBytes: 100})

	model := map[uint64]string{0: dumpState(db.Snapshot())}
	record := func() {
		lsn := db.DurableLSN()
		model[lsn] = dumpState(db.Snapshot())
	}
	// A workload touching every record type: single-relation deltas,
	// multi-relation epochs, deletes, a bulk load, index definitions and a
	// relation added mid-flight.
	durCommit(t, db, map[string][]relation.Tuple{"alpha": {durTuple(1, "a1"), durTuple(2, "a2")}}, nil)
	record()
	durCommit(t, db, map[string][]relation.Tuple{"beta": {durTuple(1, "b1")}}, nil)
	record()
	durCommit(t, db, map[string][]relation.Tuple{ // three relations, one frame
		"alpha": {durTuple(3, "a3")},
		"beta":  {durTuple(2, "b2")},
		"gamma": {durTuple(1, "g1")},
	}, nil)
	record()
	threeLSN := db.DurableLSN()
	if err := db.DefineIndex("alpha", []int{0}); err != nil {
		t.Fatal(err)
	}
	record()
	durCommit(t, db,
		map[string][]relation.Tuple{"alpha": {durTuple(4, "a4")}},
		map[string][]relation.Tuple{"alpha": {durTuple(1, "a1")}})
	record()
	rs, _ := db.Schema().Relation("gamma")
	if err := db.Load(relation.MustFromTuples(rs, durTuple(8, "g8"), durTuple(9, "g9"))); err != nil {
		t.Fatal(err)
	}
	record()
	extra := schema.MustRelation("delta", schema.Attribute{Name: "x", Type: value.KindInt})
	if err := db.Schema().Add(extra); err != nil {
		t.Fatal(err)
	}
	if err := db.AddRelation(extra); err != nil {
		t.Fatal(err)
	}
	record()
	durCommit(t, db, map[string][]relation.Tuple{
		"delta": {relation.Tuple{value.Int(100)}},
		"beta":  {durTuple(3, "b3")},
	}, nil)
	record()
	finalLSN := db.DurableLSN()
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	segs, err := wal.Scan(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) < 3 {
		t.Fatalf("workload produced only %d segment files; want cuts with intact successors", len(segs))
	}

	cycle, tornThree := 0, false
	for _, seg := range segs {
		// Cut points: before everything, at every frame boundary, and
		// inside every frame (torn write). wantLSN is the last record of
		// the longest prefix the cut leaves contiguous; torn is the LSN of
		// the frame a mid-frame cut tears.
		type cutPoint struct {
			at            int64
			wantLSN, torn uint64
		}
		cuts := []cutPoint{{at: 0, wantLSN: seg.First - 1}}
		prev, prevLSN := int64(0), seg.First-1
		for _, rec := range seg.Records {
			cuts = append(cuts,
				cutPoint{at: prev + (rec.End-prev)/2, wantLSN: prevLSN, torn: rec.LSN},
				cutPoint{at: rec.End, wantLSN: rec.LSN})
			prev, prevLSN = rec.End, rec.LSN
		}
		cuts[len(cuts)-1].wantLSN = finalLSN // the whole file survives: nothing was cut
		for _, cut := range cuts {
			name := fmt.Sprintf("%s@%d", filepath.Base(seg.Path), cut.at)
			crash := t.TempDir()
			copyDir(t, dir, crash)
			if cut.at == 0 {
				if err := os.Remove(filepath.Join(crash, filepath.Base(seg.Path))); err != nil {
					t.Fatal(err)
				}
			} else if err := os.Truncate(filepath.Join(crash, filepath.Base(seg.Path)), cut.at); err != nil {
				t.Fatal(err)
			}

			rec := openDur(t, crash, DurOptions{CheckpointBytes: -1})
			lsn := rec.DurableLSN()
			if lsn != cut.wantLSN {
				rec.Close()
				t.Fatalf("%s: recovered to lsn %d, want the surviving prefix's %d", name, lsn, cut.wantLSN)
			}
			if got := dumpState(rec.Snapshot()); got != model[lsn] {
				rec.Close()
				t.Fatalf("%s: state at lsn %d diverges from model\n got:\n%s\nwant:\n%s", name, lsn, got, model[lsn])
			}
			tornThree = tornThree || cut.torn == threeLSN

			// The recovered database must keep accepting commits, and those
			// must survive a second crash/recover cycle.
			durCommit(t, rec, map[string][]relation.Tuple{"alpha": {durTuple(999, "resumed")}}, nil)
			wantAfter := dumpState(rec.Snapshot())
			if err := rec.Close(); err != nil {
				t.Fatalf("%s: close: %v", name, err)
			}
			again := openDur(t, crash, DurOptions{CheckpointBytes: -1})
			if got := dumpState(again.Snapshot()); got != wantAfter {
				again.Close()
				t.Fatalf("%s: second recovery diverges\n got:\n%s\nwant:\n%s", name, got, wantAfter)
			}
			again.Close()
			cycle++
		}
	}
	if !tornThree {
		t.Fatal("no cut landed inside the three-relation epoch's frame")
	}
	if _, ok := model[finalLSN]; !ok || cycle == 0 {
		t.Fatalf("test exercised %d crash points (final lsn %d)", cycle, finalLSN)
	}
}

// TestOneFsyncPerEpoch: under SyncAlways an epoch is one frame in one
// segment, so it costs exactly one fsync however many relations it wrote.
func TestOneFsyncPerEpoch(t *testing.T) {
	reg := obs.NewRegistry()
	db := openDur(t, t.TempDir(), DurOptions{Sync: wal.SyncAlways, CheckpointBytes: -1, Metrics: reg})
	defer db.Close()
	durCommit(t, db, map[string][]relation.Tuple{"alpha": {durTuple(0, "warm")}}, nil) // creates the segment
	before := reg.Snapshot().Counters["repro_wal_fsyncs_total"]
	durCommit(t, db, map[string][]relation.Tuple{
		"alpha": {durTuple(1, "a")},
		"beta":  {durTuple(1, "b")},
		"gamma": {durTuple(1, "g")},
	}, nil)
	if got := reg.Snapshot().Counters["repro_wal_fsyncs_total"] - before; got != 1 {
		t.Fatalf("a three-relation epoch cost %d fsyncs, want 1", got)
	}
}

// TestWALFailureFailsTheEpoch: once the WAL refuses appends, every commit
// returns its error and installs nothing — no counted commit, no tuple —
// while each failed epoch's swap still uses up its times, so eight failed
// commits move the clock from 1 to 9 however they batch.
func TestWALFailureFailsTheEpoch(t *testing.T) {
	db := openDur(t, t.TempDir(), DurOptions{Sync: wal.SyncAlways, CheckpointBytes: -1})
	defer db.Close()
	durCommit(t, db, map[string][]relation.Tuple{"alpha": {durTuple(0, "kept")}}, nil)
	before := db.Stats().Commits
	if err := db.dur.w.Close(); err != nil {
		t.Fatalf("closing the WAL: %v", err)
	}

	rs, _ := db.Schema().Relation("alpha")
	type outcome struct {
		time uint64
		cf   *Conflict
		err  error
	}
	out := make([]outcome, 8)
	var wg sync.WaitGroup
	for i := range out {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tp := durTuple(int64(i+1), "lost")
			tm, cf, err := db.CommitValidated(Commit{
				BaseTime: 1,
				Reads:    map[string]*ReadInfo{"alpha": {Keys: map[string]bool{tp.Key(): true}}},
				Ins:      map[string]*relation.Relation{"alpha": relation.MustFromTuples(rs, tp)},
			})
			out[i] = outcome{tm, cf, err}
		}()
	}
	wg.Wait()

	for i, o := range out {
		if o.err == nil || !strings.Contains(o.err.Error(), "writer closed") || o.cf != nil || o.time != 0 {
			t.Errorf("commit %d: time=%d conflict=%v err=%v, want the WAL's error", i, o.time, o.cf, o.err)
		}
	}
	if got := db.Stats().Commits; got != before {
		t.Errorf("Stats().Commits = %d after failed epochs, want %d", got, before)
	}
	if alpha, _ := db.Relation("alpha"); alpha.Len() != 1 {
		t.Errorf("alpha holds %d tuples after failed epochs, want 1", alpha.Len())
	}
	if db.Time() != 9 {
		t.Errorf("t=%d after eight failed commits from t=1, want 9", db.Time())
	}
}

// TestOpenRefusesV1Log: a directory holding s<n>-<lsn>.seg segment files is
// a log format Open cannot replay; it must say so and leave the directory as
// it found it, not skip the files and recover a shorter history.
func TestOpenRefusesV1Log(t *testing.T) {
	dir := t.TempDir()
	old := filepath.Join(dir, "s003-0000000000000001.seg")
	if err := os.WriteFile(old, []byte("frames of another format"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := Open(dir, durSchema(), DurOptions{})
	if !errors.Is(err, wal.ErrV1Log) {
		t.Fatalf("Open = %v, want wal.ErrV1Log", err)
	}
	entries, rerr := os.ReadDir(dir)
	if rerr != nil {
		t.Fatal(rerr)
	}
	data, _ := os.ReadFile(old)
	if len(entries) != 1 || string(data) != "frames of another format" {
		t.Fatalf("refused Open edited the directory: %d entries, segment = %q", len(entries), data)
	}
}

// TestOpenRefusesOldCheckpointVersion: an RPRCKPT2 checkpoint placed its
// tuples in the trie by another key encoding, so reading its nodes would
// misplace every tuple. Open, resident and paged, must refuse it by name
// rather than open it, and a current checkpoint of the same data reopens.
func TestOpenRefusesOldCheckpointVersion(t *testing.T) {
	dir := t.TempDir()
	db := openDur(t, dir, DurOptions{CheckpointBytes: -1})
	durCommit(t, db, map[string][]relation.Tuple{"alpha": {durTuple(1, "one"), durTuple(2, "two")}}, nil)
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	for _, opts := range []DurOptions{{}, pagedOpts(4096, nil)} {
		db, err := Open(dir, durSchema(), opts)
		if err != nil {
			t.Fatalf("reopen (CacheBytes %d): %v", opts.CacheBytes, err)
		}
		if r, _ := db.Relation("alpha"); r.Len() != 2 {
			t.Fatalf("reopen (CacheBytes %d): alpha holds %d tuples, want 2", opts.CacheBytes, r.Len())
		}
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
	}
	files, _ := filepath.Glob(filepath.Join(dir, "ckpt-*.ck"))
	if len(files) == 0 {
		t.Fatal("no checkpoint file written")
	}
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		copy(data, "RPRCKPT2")
		if err := os.WriteFile(f, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for _, opts := range []DurOptions{{}, pagedOpts(4096, nil)} {
		db, err := Open(dir, durSchema(), opts)
		if err == nil {
			db.Close()
			t.Fatalf("Open (CacheBytes %d) accepted an RPRCKPT2 checkpoint", opts.CacheBytes)
		}
		if !strings.Contains(err.Error(), "unsupported checkpoint version RPRCKPT2") {
			t.Fatalf("Open (CacheBytes %d) = %v, want the unsupported version named", opts.CacheBytes, err)
		}
	}
}

func copyDir(t *testing.T, src, dst string) {
	t.Helper()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestCheckpointChainRecovery drives several incremental checkpoints (with
// commits in between) through a full-checkpoint rollover, verifying that
// superseded files are deleted, the WAL is truncated, and recovery from
// checkpoint + tail reproduces the live state.
func TestCheckpointChainRecovery(t *testing.T) {
	dir := t.TempDir()
	db := openDur(t, dir, DurOptions{CheckpointBytes: -1, FullEvery: 3})
	if err := db.DefineIndex("alpha", []int{0}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 7; i++ {
		for j := 0; j < 5; j++ {
			v := int64(i*10 + j)
			durCommit(t, db, map[string][]relation.Tuple{
				"alpha": {durTuple(v, "x")},
				"beta":  {durTuple(v, "y")},
			}, nil)
		}
		if i == 3 { // exercise deletes across a checkpoint boundary
			durCommit(t, db, nil, map[string][]relation.Tuple{"alpha": {durTuple(0, "x")}})
		}
		if err := db.Checkpoint(); err != nil {
			t.Fatalf("checkpoint %d: %v", i, err)
		}
	}
	// 7 checkpoints with FullEvery=3: fulls at counts 0, 3, 6 — after the
	// last full only files >= its id survive.
	entries, _ := os.ReadDir(dir)
	ckpts := 0
	for _, e := range entries {
		if _, ok := parseCkptName(e.Name()); ok {
			ckpts++
		}
	}
	if ckpts == 0 || ckpts > 3 {
		t.Fatalf("chain holds %d checkpoint files, want 1..3", ckpts)
	}

	// Tail past the last checkpoint.
	durCommit(t, db, map[string][]relation.Tuple{"gamma": {durTuple(1, "tail")}}, nil)
	want := dumpState(db.Snapshot())
	wantTime := db.Time()
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db2 := openDur(t, dir, DurOptions{CheckpointBytes: -1, FullEvery: 3})
	defer db2.Close()
	if got := dumpState(db2.Snapshot()); got != want {
		t.Fatalf("recovered state mismatch\n got:\n%s\nwant:\n%s", got, want)
	}
	if db2.Time() != wantTime {
		t.Fatalf("recovered time = %d, want %d", db2.Time(), wantTime)
	}
	// Checkpointing must keep working on the recovered chain.
	durCommit(t, db2, map[string][]relation.Tuple{"gamma": {durTuple(2, "more")}}, nil)
	if err := db2.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	want2 := dumpState(db2.Snapshot())
	if err := db2.Close(); err != nil {
		t.Fatal(err)
	}
	db3 := openDur(t, dir, DurOptions{CheckpointBytes: -1, FullEvery: 3})
	defer db3.Close()
	if got := dumpState(db3.Snapshot()); got != want2 {
		t.Fatalf("post-checkpoint recovery mismatch\n got:\n%s\nwant:\n%s", got, want2)
	}
}

// TestConcurrentCommitWhileCheckpoint hammers the store with concurrent
// keyed commits while checkpoints run, then recovers and verifies nothing
// acknowledged was lost. Run under -race this also proves the checkpoint
// walk (which stamps trie nodes) does not race the commit pipeline.
func TestConcurrentCommitWhileCheckpoint(t *testing.T) {
	dir := t.TempDir()
	db := openDur(t, dir, DurOptions{CheckpointBytes: -1})
	if err := db.DefineIndex("alpha", []int{0}); err != nil {
		t.Fatal(err)
	}

	const workers = 4
	const perWorker = 60
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			names := []string{"alpha", "beta", "gamma"}
			for i := 0; i < perWorker; i++ {
				name := names[(w+i)%len(names)]
				rs, _ := db.Schema().Relation(name)
				tp := durTuple(int64(w*10_000+i), "w")
				ins := relation.MustFromTuples(rs, tp)
				c := Commit{
					BaseTime: db.Time(),
					Reads:    map[string]*ReadInfo{name: {Keys: map[string]bool{tp.Key(): true}}},
					Ins:      map[string]*relation.Relation{name: ins},
				}
				for {
					_, cf, err := db.CommitValidated(c)
					if err != nil {
						errs <- err
						return
					}
					if cf == nil {
						break
					}
					c.BaseTime = db.Time() // disjoint keys: retries only on log truncation
				}
			}
		}(w)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	for {
		if err := db.Checkpoint(); err != nil {
			t.Errorf("checkpoint: %v", err)
			break
		}
		select {
		case <-done:
			goto drained
		default:
		}
	}
drained:
	<-done
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	total := 0
	for _, name := range []string{"alpha", "beta", "gamma"} {
		r, _ := db.Relation(name)
		total += r.Len()
	}
	if total != workers*perWorker {
		t.Fatalf("live store holds %d tuples, want %d", total, workers*perWorker)
	}
	want := dumpState(db.Snapshot())
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db2 := openDur(t, dir, DurOptions{CheckpointBytes: -1})
	defer db2.Close()
	if got := dumpState(db2.Snapshot()); got != want {
		t.Fatalf("recovered state mismatch\n got:\n%s\nwant:\n%s", got, want)
	}
}

// TestAutoCheckpointTriggers verifies the byte-threshold background trigger
// fires and truncates the WAL.
func TestAutoCheckpointTriggers(t *testing.T) {
	dir := t.TempDir()
	db := openDur(t, dir, DurOptions{CheckpointBytes: 1024})
	for i := 0; i < 200; i++ {
		durCommit(t, db, map[string][]relation.Tuple{
			"alpha": {durTuple(int64(i), strings.Repeat("x", 64))},
		}, nil)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	entries, _ := os.ReadDir(dir)
	ckpts := 0
	for _, e := range entries {
		if _, ok := parseCkptName(e.Name()); ok {
			ckpts++
		}
	}
	if ckpts == 0 {
		t.Fatal("no automatic checkpoint was written")
	}
	db2 := openDur(t, dir, DurOptions{})
	defer db2.Close()
	r, _ := db2.Relation("alpha")
	if r.Len() != 200 {
		t.Fatalf("recovered alpha holds %d tuples, want 200", r.Len())
	}
}

// TestDurableSyncPolicies exercises each sync policy end-to-end (same data
// path, different fsync cadence) including clean-close durability under
// SyncOff.
func TestDurableSyncPolicies(t *testing.T) {
	for _, sync := range []wal.SyncPolicy{wal.SyncAlways, wal.SyncBatched, wal.SyncOff} {
		t.Run(sync.String(), func(t *testing.T) {
			dir := t.TempDir()
			db := openDur(t, dir, DurOptions{Sync: sync})
			durCommit(t, db, map[string][]relation.Tuple{"alpha": {durTuple(1, "x")}}, nil)
			durCommit(t, db, map[string][]relation.Tuple{"beta": {durTuple(2, "y")}}, nil)
			want := dumpState(db.Snapshot())
			if err := db.Close(); err != nil {
				t.Fatal(err)
			}
			db2 := openDur(t, dir, DurOptions{Sync: sync})
			defer db2.Close()
			if got := dumpState(db2.Snapshot()); got != want {
				t.Fatalf("recovered state mismatch under %v", sync)
			}
		})
	}
}

// legacyIndexDef encodes a recDefineIndex payload as the engine wrote it
// while equality and ordered indexes were two kinds: the relation name,
// kind 0 (equality, ascending columns) or 1 (ordered), and the column list.
func legacyIndexDef(rel string, kind byte, cols ...int) []byte {
	b := binary.AppendUvarint(nil, uint64(len(rel)))
	b = append(b, rel...)
	b = append(b, kind)
	b = binary.AppendUvarint(b, uint64(len(cols)))
	for _, c := range cols {
		b = binary.AppendUvarint(b, uint64(c))
	}
	return b
}

// TestOpenAcceptsBothIndexDefinitionKinds: a directory whose log, and then
// whose checkpoint, defines an equality and an ordered index over the same
// column — as the engine wrote them while those were two kinds — reopens,
// resident and paged, with one index over that column and no error, and its
// checkpoints keep the RPRCKPT3 magic.
func TestOpenAcceptsBothIndexDefinitionKinds(t *testing.T) {
	dir := t.TempDir()
	db := openDur(t, dir, DurOptions{CheckpointBytes: -1})
	durCommit(t, db, map[string][]relation.Tuple{"alpha": {durTuple(1, "one"), durTuple(2, "two")}}, nil)
	for _, kind := range []byte{0, 1} {
		if _, err := db.dur.appendSchemaRecord(recDefineIndex, db.Time(), legacyIndexDef("alpha", kind, 0)); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	reopen := func(stage string) {
		t.Helper()
		for _, opts := range []DurOptions{{CheckpointBytes: -1}, pagedOpts(4096, nil)} {
			db, err := Open(dir, durSchema(), opts)
			if err != nil {
				t.Fatalf("%s: reopen (CacheBytes %d): %v", stage, opts.CacheBytes, err)
			}
			if n, got := db.Snapshot().IndexSet("alpha").Len(), fmt.Sprint(db.IndexDefs("alpha")); n != 1 || got != "[[0]]" {
				t.Errorf("%s: reopen (CacheBytes %d): alpha has %d indexes %s, want one, [[0]]", stage, opts.CacheBytes, n, got)
			}
			x := db.Snapshot().IndexSet("alpha").Exact([]int{0})
			if x == nil || len(x.Probe(durTuple(2, "two").KeyOn([]int{0}))) != 1 {
				t.Errorf("%s: reopen (CacheBytes %d): alpha(0) does not find tuple 2", stage, opts.CacheBytes)
			}
			if err := db.Close(); err != nil {
				t.Fatal(err)
			}
		}
	}
	reopen("log")

	// Checkpoint, then give the checkpoint's directory the two definition
	// lists of that layout: kind 0 in the first, kind 1 in the second.
	db = openDur(t, dir, DurOptions{CheckpointBytes: -1})
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	files, _ := filepath.Glob(filepath.Join(dir, "ckpt-*.ck"))
	if len(files) == 0 {
		t.Fatal("no checkpoint file written")
	}
	sort.Strings(files)
	newest := files[len(files)-1]
	data, err := os.ReadFile(newest)
	if err != nil {
		t.Fatal(err)
	}
	foot := data[len(data)-ckptFooterLen:]
	dirOff := binary.LittleEndian.Uint64(foot)
	dirBytes := data[dirOff : len(data)-ckptFooterLen]
	written := append(append([]byte{1}, legacyIndexDef("alpha", 0, 0)...), 0)
	if !bytes.HasSuffix(dirBytes, written) {
		t.Fatalf("checkpoint directory does not end with one definition list and an empty one: %x", dirBytes)
	}
	legacy := append(append([]byte{1}, legacyIndexDef("alpha", 0, 0)...), 1)
	legacy = append(legacy, legacyIndexDef("alpha", 1, 0)...)
	dirBytes = append(dirBytes[:len(dirBytes)-len(written):len(dirBytes)-len(written)], legacy...)
	out := append(data[:dirOff:dirOff], dirBytes...)
	var footer [ckptFooterLen]byte
	binary.LittleEndian.PutUint64(footer[:], dirOff)
	binary.LittleEndian.PutUint32(footer[8:], crc32.Checksum(dirBytes, crcTable))
	copy(footer[12:], ckptEndMagic)
	out = append(out, footer[:]...)
	if err := os.WriteFile(newest, out, 0o644); err != nil {
		t.Fatal(err)
	}
	reopen("checkpoint")
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		if string(data[:len(ckptMagic)]) != "RPRCKPT3" {
			t.Errorf("%s has magic %q, want RPRCKPT3", f, data[:len(ckptMagic)])
		}
	}
}
