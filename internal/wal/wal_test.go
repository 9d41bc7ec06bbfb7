package wal

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func openT(t *testing.T, dir string, next uint64, opts Options) *Writer {
	t.Helper()
	w, err := Open(dir, next, opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return w
}

func scanT(t *testing.T, dir string) []*Segment {
	t.Helper()
	segs, err := Scan(dir)
	if err != nil {
		t.Fatalf("Scan: %v", err)
	}
	return segs
}

func TestAppendScanRoundTrip(t *testing.T) {
	dir := t.TempDir()
	w := openT(t, dir, 7, Options{Sync: SyncOff})
	lsn, n, err := w.AppendRecord(1, 100, []byte("alpha"))
	if err != nil {
		t.Fatalf("append: %v", err)
	}
	if lsn != 7 {
		t.Fatalf("lsn = %d, want 7", lsn)
	}
	if _, _, err := w.AppendRecord(2, 101, nil); err != nil {
		t.Fatalf("append 2: %v", err)
	}
	if w.NextLSN() != 9 {
		t.Fatalf("NextLSN = %d, want 9", w.NextLSN())
	}
	if err := w.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	segs := scanT(t, dir)
	if len(segs) != 1 || segs[0].First != 7 || segs[0].Torn {
		t.Fatalf("segments = %+v, want one clean segment starting at lsn 7", segs)
	}
	recs := segs[0].Records
	if len(recs) != 2 {
		t.Fatalf("records = %d, want 2", len(recs))
	}
	if r := recs[0]; r.LSN != 7 || r.Time != 100 || r.Type != 1 || !bytes.Equal(r.Payload, []byte("alpha")) || r.End != n {
		t.Fatalf("record 0 = %+v (appended %d bytes)", r, n)
	}
	if r := recs[1]; r.LSN != 8 || r.Time != 101 || r.Type != 2 || len(r.Payload) != 0 {
		t.Fatalf("record 1 = %+v", r)
	}
}

func TestTornTailDetection(t *testing.T) {
	dir := t.TempDir()
	w := openT(t, dir, 0, Options{Sync: SyncOff})
	for i := 0; i < 3; i++ {
		if _, _, err := w.AppendRecord(1, uint64(i), bytes.Repeat([]byte{byte(i)}, 20)); err != nil {
			t.Fatalf("append: %v", err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	segs := scanT(t, dir)
	full := segs[0]
	if len(full.Records) != 3 || full.Torn {
		t.Fatalf("pre-truncation: %d records torn=%v", len(full.Records), full.Torn)
	}

	// Truncate at every byte offset inside the file: the scan must yield
	// exactly the records whose frames survive whole, flagging any remainder.
	data, err := os.ReadFile(full.Path)
	if err != nil {
		t.Fatal(err)
	}
	ends := []int64{full.Records[0].End, full.Records[1].End, full.Records[2].End}
	for cut := 0; cut <= len(data); cut++ {
		sub := t.TempDir()
		if err := os.WriteFile(filepath.Join(sub, filepath.Base(full.Path)), data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		segs := scanT(t, sub)
		if len(segs) != 1 {
			t.Fatalf("cut %d: %d segments", cut, len(segs))
		}
		want := 0
		for _, e := range ends {
			if int64(cut) >= e {
				want++
			}
		}
		got := len(segs[0].Records)
		if got != want {
			t.Fatalf("cut %d: %d records, want %d", cut, got, want)
		}
		wantTorn := want < 3 && int64(cut) != ends[0] && int64(cut) != ends[1] && cut != 0
		if segs[0].Torn != wantTorn {
			t.Fatalf("cut %d: torn = %v, want %v", cut, segs[0].Torn, wantTorn)
		}
	}
}

func TestCorruptFrameStopsScan(t *testing.T) {
	dir := t.TempDir()
	w := openT(t, dir, 0, Options{Sync: SyncOff})
	for i := 0; i < 2; i++ {
		if _, _, err := w.AppendRecord(1, uint64(i), []byte("payload")); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	segs := scanT(t, dir)
	path := segs[0].Path
	firstEnd := segs[0].Records[0].End
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a payload byte of the second record: CRC must reject it.
	data[firstEnd+frameHd+3] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	segs = scanT(t, dir)
	if len(segs[0].Records) != 1 || !segs[0].Torn {
		t.Fatalf("after corruption: %d records torn=%v, want 1 true", len(segs[0].Records), segs[0].Torn)
	}
}

func TestRotationAndTruncateThrough(t *testing.T) {
	dir := t.TempDir()
	// Tiny segments: every record seals the previous segment.
	w := openT(t, dir, 0, Options{Sync: SyncOff, SegmentBytes: 1})
	for i := 0; i < 4; i++ {
		if _, _, err := w.AppendRecord(1, uint64(i), []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	segs := scanT(t, dir)
	if len(segs) != 4 {
		t.Fatalf("segments = %d, want 4", len(segs))
	}
	// Records 0 and 1 live in segments wholly below lsn 2.
	if err := w.TruncateThrough(1); err != nil {
		t.Fatal(err)
	}
	segs = scanT(t, dir)
	if len(segs) != 2 || segs[0].First != 2 {
		t.Fatalf("after truncate: %d segments first=%d, want 2 first=2", len(segs), segs[0].First)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen resumes the highest segment and the caller-supplied lsn.
	w = openT(t, dir, 4, Options{Sync: SyncOff, SegmentBytes: 1 << 20})
	if _, _, err := w.AppendRecord(1, 4, []byte("y")); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	segs = scanT(t, dir)
	last := segs[len(segs)-1]
	recs := last.Records
	if recs[len(recs)-1].LSN != 4 {
		t.Fatalf("resumed lsn = %d, want 4", recs[len(recs)-1].LSN)
	}
}

func TestBatchedSyncFlushes(t *testing.T) {
	dir := t.TempDir()
	w := openT(t, dir, 0, Options{Sync: SyncBatched, BatchInterval: time.Millisecond})
	if _, _, err := w.AppendRecord(1, 1, []byte("z")); err != nil {
		t.Fatal(err)
	}
	// The background flusher must sync the dirty segment shortly.
	deadline := time.Now().Add(time.Second)
	for {
		w.mu.Lock()
		dirty := w.dirty
		w.mu.Unlock()
		if !dirty {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("dirty segment never synced")
		}
		time.Sleep(time.Millisecond)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestV1SegmentNamesRefused: neither Scan nor Open skips an
// s<n>-<lsn>.seg file — both fail with ErrV1Log.
func TestV1SegmentNamesRefused(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "s003-0000000000000001.seg"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Scan(dir); !errors.Is(err, ErrV1Log) {
		t.Errorf("Scan = %v, want ErrV1Log", err)
	}
	if w, err := Open(dir, 0, Options{Sync: SyncOff}); !errors.Is(err, ErrV1Log) {
		t.Errorf("Open = %v, want ErrV1Log", err)
		if w != nil {
			w.Close()
		}
	}
}
