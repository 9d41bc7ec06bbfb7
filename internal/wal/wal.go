// Package wal implements the write-ahead log of the durable storage engine:
// one stream of segment files holding length-prefixed, CRC-framed records.
//
// The group-commit drainer in package storage appends one record per epoch
// during its validate stage — every relation the epoch wrote travels in the
// one payload — and, under SyncAlways, fsyncs once, amortizing the fsync
// over the whole batch the same way the epoch already amortizes validation
// and the snapshot swap.
//
// # Framing
//
// Every record is one frame:
//
//	uint32  body length (little-endian)
//	uint32  CRC-32C of the body (Castagnoli, little-endian)
//	body := type(1 byte) | uvarint lsn | uvarint time | payload
//
// lsn is the record's log sequence number: records take consecutive lsns in
// append order. time is the logical clock after applying the record; payload
// bytes belong to the caller (package storage owns the codec). One frame
// under one CRC is the unit of atomicity: a record is either wholly in the
// log or not in it.
//
// A reader stops a file at the first frame that is short, oversized, or
// fails its CRC — the torn tail — and recovery stops the replay there or at
// the first missing lsn, so the recovered state is always a prefix of the
// logged history.
//
// # Segments
//
// Segment files are named wal-<first lsn>.seg. A segment seals when it
// outgrows Options.SegmentBytes and a new one starts at the next record's
// lsn, so the segments cover disjoint ascending lsn intervals and the file
// name alone tells the checkpointer which sealed segments fall wholly below
// a checkpoint watermark and can be deleted (TruncateThrough). Files named
// s<n>-<lsn>.seg are segments of the v1 log format, which this package
// cannot read; Scan refuses a directory holding one (ErrV1Log).
package wal

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"runtime/pprof"
	"sort"
	"sync"
	"time"

	"repro/internal/obs"
)

// SyncPolicy selects when appended records are fsynced to stable storage.
type SyncPolicy int

const (
	// SyncAlways fsyncs once per AppendRecord, before the call returns.
	// Under group commit that is one fsync per epoch — the whole batch
	// shares it — and a record is durable before any committer is
	// acknowledged.
	SyncAlways SyncPolicy = iota
	// SyncBatched acknowledges appends after the buffered write reaches the
	// OS and fsyncs in the background every Options.BatchInterval: commits
	// never wait on the disk, at the price of losing up to one interval of
	// acknowledged commits in a power failure (a process crash alone loses
	// nothing the OS had accepted).
	SyncBatched
	// SyncOff never fsyncs during operation (Close still does): the OS
	// flushes at its own pace. The throughput ceiling, for workloads that
	// can replay their input.
	SyncOff
)

func (p SyncPolicy) String() string {
	switch p {
	case SyncAlways:
		return "always"
	case SyncBatched:
		return "batched"
	case SyncOff:
		return "off"
	default:
		return fmt.Sprintf("sync(%d)", int(p))
	}
}

// Options configure a Writer.
type Options struct {
	Sync SyncPolicy
	// SegmentBytes seals a segment once it grows past this size; 0 means
	// the default (4 MiB).
	SegmentBytes int64
	// BatchInterval is the background fsync period under SyncBatched; 0
	// means the default (2ms).
	BatchInterval time.Duration
	// Metrics, when non-nil, receives append/fsync latencies and byte
	// counts, segment rotations and truncations, and the batched-flusher
	// queue depth (see NewMetrics).
	Metrics *Metrics
	// Tracer, when non-nil, receives EvWALFsync events for batched
	// background fsync passes and EvWALTruncate for segment truncation.
	Tracer obs.Tracer
}

const (
	defaultSegmentBytes  = 4 << 20
	defaultBatchInterval = 2 * time.Millisecond
	// maxBody bounds a frame's body length; anything larger is treated as
	// torn-tail garbage by the reader.
	maxBody = 1 << 30
	frameHd = 8 // length + crc
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

func (o Options) withDefaults() Options {
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = defaultSegmentBytes
	}
	if o.BatchInterval <= 0 {
		o.BatchInterval = defaultBatchInterval
	}
	return o
}

// Record is one parsed frame.
type Record struct {
	LSN     uint64
	Time    uint64
	Type    byte
	Payload []byte
	// End is the file offset just past this record's frame; truncating the
	// file here removes the record's successors but keeps the record.
	End int64
}

// Segment is one scanned segment file.
type Segment struct {
	First uint64 // first lsn, from the file name
	Path  string
	// Records holds the frames that parsed cleanly, in file order.
	Records []Record
	// Torn reports that trailing bytes after the last clean frame failed to
	// parse (a torn write); recovery truncates them.
	Torn bool
}

func segName(first uint64) string { return fmt.Sprintf("wal-%016d.seg", first) }

func parseSegName(name string) (first uint64, ok bool) {
	if _, err := fmt.Sscanf(name, "wal-%016d.seg", &first); err != nil {
		return 0, false
	}
	return first, true
}

// ErrV1Log reports a directory holding segment files of the v1 log format
// (s<n>-<lsn>.seg), which this package cannot replay.
var ErrV1Log = errors.New("wal: unsupported v1 log (s<n>-<lsn>.seg segment files); re-load the data")

func isV1SegName(name string) bool {
	var n int
	var first uint64
	_, err := fmt.Sscanf(name, "s%d-%d.seg", &n, &first)
	return err == nil
}

// Scan parses every segment file under dir, in first-lsn order. Unparseable
// trailing bytes mark the segment Torn; files that are not segments are
// ignored, except that a v1 segment file fails the scan with ErrV1Log —
// skipping it would recover a shorter history than the directory holds. A
// missing dir scans as empty.
func Scan(dir string) ([]*Segment, error) {
	entries, err := os.ReadDir(dir)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("wal: scan %s: %w", dir, err)
	}
	var segs []*Segment
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		if isV1SegName(e.Name()) {
			return nil, fmt.Errorf("wal: scan %s: %s: %w", dir, e.Name(), ErrV1Log)
		}
		first, ok := parseSegName(e.Name())
		if !ok {
			continue
		}
		seg := &Segment{First: first, Path: filepath.Join(dir, e.Name())}
		if err := seg.parse(); err != nil {
			return nil, err
		}
		segs = append(segs, seg)
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].First < segs[j].First })
	return segs, nil
}

func (s *Segment) parse() error {
	data, err := os.ReadFile(s.Path)
	if err != nil {
		return fmt.Errorf("wal: read %s: %w", s.Path, err)
	}
	off := int64(0)
	for int64(len(data))-off >= frameHd {
		body, rec, ok := parseFrame(data[off:])
		if !ok {
			break
		}
		rec.End = off + frameHd + int64(len(body))
		s.Records = append(s.Records, rec)
		off = rec.End
	}
	s.Torn = off < int64(len(data))
	return nil
}

// parseFrame decodes one frame from the front of data; ok is false on any
// framing, CRC, or body-header defect.
func parseFrame(data []byte) ([]byte, Record, bool) {
	if len(data) < frameHd {
		return nil, Record{}, false
	}
	n := binary.LittleEndian.Uint32(data)
	crc := binary.LittleEndian.Uint32(data[4:])
	if n == 0 || n > maxBody || uint64(len(data)-frameHd) < uint64(n) {
		return nil, Record{}, false
	}
	body := data[frameHd : frameHd+int(n)]
	if crc32.Checksum(body, crcTable) != crc {
		return nil, Record{}, false
	}
	rec := Record{Type: body[0]}
	rest := body[1:]
	var k int
	if rec.LSN, k = binary.Uvarint(rest); k <= 0 {
		return nil, Record{}, false
	}
	rest = rest[k:]
	if rec.Time, k = binary.Uvarint(rest); k <= 0 {
		return nil, Record{}, false
	}
	rec.Payload = rest[k:]
	return body, rec, true
}

// appendFrame encodes one frame into dst.
func appendFrame(dst []byte, typ byte, lsn, time uint64, payload []byte) []byte {
	var hdr [1 + 2*binary.MaxVarintLen64]byte
	hdr[0] = typ
	n := 1
	n += binary.PutUvarint(hdr[n:], lsn)
	n += binary.PutUvarint(hdr[n:], time)
	bodyLen := n + len(payload)
	crc := crc32.Update(crc32.Checksum(hdr[:n], crcTable), crcTable, payload)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(bodyLen))
	dst = binary.LittleEndian.AppendUint32(dst, crc)
	dst = append(dst, hdr[:n]...)
	return append(dst, payload...)
}

// Writer appends records to the segment files of one directory. It is safe
// for concurrent use; in the engine the group-commit drainer and the
// (serialized) schema-management calls are the only appenders.
type Writer struct {
	dir  string
	opts Options

	mu      sync.Mutex
	nextLSN uint64
	active  *segment // the highest-first segment; nil until the first append
	// firsts tracks every live segment's first lsn, ascending;
	// TruncateThrough deletes sealed segments from the front.
	firsts []uint64
	dirty  bool  // the active segment has writes since its last fsync (SyncBatched)
	err    error // sticky I/O error: the log is unusable after one

	met *Metrics   // nil when disabled
	tr  obs.Tracer // nil when disabled

	stop chan struct{} // closes the batched-sync flusher
	done chan struct{}
}

type segment struct {
	first uint64
	f     *os.File
	w     *bufio.Writer
	size  int64
}

// Open attaches a writer to dir (created if missing), resuming the highest
// segment for appending. nextLSN is the lsn the next record will take;
// recovery computes it as one past the last applied record, after
// truncating the torn tail. Like Scan, Open refuses a directory holding v1
// segment files.
func Open(dir string, nextLSN uint64, opts Options) (*Writer, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	w := &Writer{
		dir:     dir,
		opts:    opts.withDefaults(),
		nextLSN: nextLSN,
		met:     opts.Metrics,
		tr:      opts.Tracer,
	}
	for _, e := range entries {
		if isV1SegName(e.Name()) {
			return nil, fmt.Errorf("wal: open %s: %s: %w", dir, e.Name(), ErrV1Log)
		}
		if first, ok := parseSegName(e.Name()); ok {
			w.firsts = append(w.firsts, first)
		}
	}
	sort.Slice(w.firsts, func(i, j int) bool { return w.firsts[i] < w.firsts[j] })
	if n := len(w.firsts); n > 0 {
		first := w.firsts[n-1]
		f, err := os.OpenFile(w.segPath(first), os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return nil, fmt.Errorf("wal: %w", err)
		}
		st, err := f.Stat()
		if err != nil {
			f.Close()
			return nil, fmt.Errorf("wal: %w", err)
		}
		w.active = &segment{first: first, f: f, w: bufio.NewWriter(f), size: st.Size()}
	}
	if w.opts.Sync == SyncBatched {
		w.stop = make(chan struct{})
		w.done = make(chan struct{})
		go w.flushLoop()
	}
	return w, nil
}

func (w *Writer) segPath(first uint64) string {
	return filepath.Join(w.dir, segName(first))
}

// NextLSN returns the lsn the next appended record will take.
func (w *Writer) NextLSN() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.nextLSN
}

// AppendRecord appends one record as one frame and returns its lsn and the
// bytes written. Under SyncAlways the segment is fsynced before the call
// returns. An error poisons the writer: every later call returns it, so a
// half-written frame can never be followed by acknowledged successors.
func (w *Writer) AppendRecord(typ byte, ltime uint64, payload []byte) (uint64, int64, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil {
		return 0, 0, w.err
	}
	var start time.Time
	if w.met != nil {
		start = time.Now()
	}
	lsn := w.nextLSN
	seg, err := w.segmentFor(lsn)
	if err != nil {
		w.err = err
		return 0, 0, err
	}
	frame := appendFrame(nil, typ, lsn, ltime, payload)
	if _, err := seg.w.Write(frame); err != nil {
		w.err = fmt.Errorf("wal: append: %w", err)
		return 0, 0, w.err
	}
	n := int64(len(frame))
	seg.size += n
	// Reach the OS before acknowledging so a process crash (as opposed to a
	// power failure) loses nothing, whatever the sync policy.
	if err := seg.w.Flush(); err != nil {
		w.err = fmt.Errorf("wal: flush: %w", err)
		return 0, 0, w.err
	}
	if w.met != nil {
		w.met.observeAppend(time.Since(start), n)
	}
	switch w.opts.Sync {
	case SyncAlways:
		if err := w.fsync(); err != nil {
			return 0, 0, err
		}
	case SyncBatched:
		w.dirty = true
		w.met.setQueueDepth(1)
	}
	w.nextLSN = lsn + 1
	return lsn, n, nil
}

// fsync makes the active segment durable, recording the latency; a failure
// poisons the writer.
func (w *Writer) fsync() error {
	var fs time.Time
	if w.met != nil {
		fs = time.Now()
	}
	if err := w.active.f.Sync(); err != nil {
		w.err = fmt.Errorf("wal: fsync: %w", err)
		return w.err
	}
	if w.met != nil {
		w.met.observeFsync(time.Since(fs))
	}
	return nil
}

// segmentFor returns the active segment, sealing and rotating it first when
// it has outgrown the segment size; lsn names the new segment.
func (w *Writer) segmentFor(lsn uint64) (*segment, error) {
	if w.active != nil && w.active.size >= w.opts.SegmentBytes {
		if err := w.seal(); err != nil {
			return nil, err
		}
		w.met.addRotation()
	}
	if w.active == nil {
		f, err := os.OpenFile(w.segPath(lsn), os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
		if err != nil {
			return nil, fmt.Errorf("wal: rotate: %w", err)
		}
		w.active = &segment{first: lsn, f: f, w: bufio.NewWriter(f)}
		w.firsts = append(w.firsts, lsn)
	}
	return w.active, nil
}

// seal flushes, fsyncs and closes the active segment (sealed segments are
// immutable, so they must be durable through rotation regardless of the
// sync policy).
func (w *Writer) seal() error {
	seg := w.active
	if err := seg.w.Flush(); err != nil {
		return fmt.Errorf("wal: seal: %w", err)
	}
	if err := seg.f.Sync(); err != nil {
		return fmt.Errorf("wal: seal: %w", err)
	}
	if err := seg.f.Close(); err != nil {
		return fmt.Errorf("wal: seal: %w", err)
	}
	w.dirty = false
	w.active = nil
	return nil
}

// Sync flushes and fsyncs the active segment if it has unsynced writes.
func (w *Writer) Sync() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil {
		return w.err
	}
	if !w.dirty {
		return nil
	}
	var start time.Time
	if w.tr != nil {
		start = time.Now()
	}
	if err := w.active.w.Flush(); err != nil {
		w.err = fmt.Errorf("wal: flush: %w", err)
		return w.err
	}
	if err := w.fsync(); err != nil {
		return err
	}
	w.dirty = false
	w.met.setQueueDepth(0)
	if w.tr != nil {
		w.tr.Event(obs.Event{Kind: obs.EvWALFsync, N: 1, Dur: time.Since(start)})
	}
	return nil
}

// flushLoop is the SyncBatched background fsync goroutine; the pprof label
// attributes its CPU time in profiles.
func (w *Writer) flushLoop() {
	defer close(w.done)
	pprof.Do(context.Background(), pprof.Labels("stage", "wal-flusher"), func(context.Context) {
		t := time.NewTicker(w.opts.BatchInterval)
		defer t.Stop()
		for {
			select {
			case <-w.stop:
				return
			case <-t.C:
				_ = w.Sync()
			}
		}
	})
}

// TruncateThrough deletes sealed segments all of whose records have
// lsn <= upTo: a segment is deletable when the next segment starts at or
// below upTo+1. The active segment is never deleted. Called by the
// checkpointer with the checkpoint's watermark.
func (w *Writer) TruncateThrough(upTo uint64) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	// All but the last entry are sealed; segment i covers
	// [firsts[i], firsts[i+1]).
	removed := 0
	for removed < len(w.firsts)-1 && w.firsts[removed+1] <= upTo+1 {
		if err := os.Remove(w.segPath(w.firsts[removed])); err != nil && !os.IsNotExist(err) {
			return fmt.Errorf("wal: truncate: %w", err)
		}
		removed++
	}
	if removed > 0 {
		w.firsts = append(w.firsts[:0:0], w.firsts[removed:]...)
		w.met.addTruncated(removed)
	}
	if w.tr != nil {
		w.tr.Event(obs.Event{Kind: obs.EvWALTruncate, LSN: upTo, N: uint64(removed)})
	}
	return nil
}

// Close stops the background flusher, then flushes, fsyncs and closes the
// active segment — a cleanly closed log is fully durable even under
// SyncOff. The writer is unusable afterwards.
func (w *Writer) Close() error {
	if w.stop != nil {
		close(w.stop)
		<-w.done
		w.stop = nil
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	firstErr := w.err
	if seg := w.active; seg != nil {
		if err := seg.w.Flush(); err != nil && firstErr == nil {
			firstErr = err
		}
		if err := seg.f.Sync(); err != nil && firstErr == nil {
			firstErr = err
		}
		if err := seg.f.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	w.active = nil
	w.dirty = false
	if w.err == nil {
		w.err = fmt.Errorf("wal: writer closed")
	}
	return firstErr
}
