// Durable storage engine: the write-ahead log hook of the commit pipeline.
//
// A durable Database (constructed by Open, not New) carries a durability
// sidecar: a wal.Writer plus the checkpoint bookkeeping (checkpoint.go). The
// commit pipeline touches it in exactly one place — the log stage of an epoch
// (group.go) appends one record per epoch, under the commit lock, before the
// commit log is updated and the snapshot swapped — so the write-ahead
// invariant is structural: nothing a later epoch can validate against, and
// nothing a reader can observe, exists before its log record does. Under
// wal.SyncAlways the append also fsyncs (one group fsync per epoch,
// amortized over the whole batch) before any committer is acknowledged. An
// epoch writing several relations is atomic by construction: all of them
// travel in the one frame, under the one CRC.
//
// Schema-management calls (AddRelation, Load, DefineIndex) log themselves
// too. They hold the commit lock (beginSchemaChange) so their record's
// position in the log matches the state they observed and edited — without
// it, a schema record could land between an epoch's record and its snapshot
// swap, and replay would order them wrong.
//
// Log sequence numbers are sequential and monotone in logical time: an epoch
// runs serially from validation to swap under the commit lock (one drainer
// at a time, schema calls hold the same lock), so the choice of a time block
// and the append of its record cannot interleave with another epoch's. Each
// published snapshot is stamped with the LSN of the record that produced
// it; that stamp is the checkpoint watermark — a checkpoint of snapshot S
// plus the records with LSN > S.lsn is exactly the logged history.
package storage

import (
	"context"
	"encoding/binary"
	"fmt"
	"runtime/pprof"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/relation"
	"repro/internal/schema"
	"repro/internal/value"
	"repro/internal/wal"
)

// WAL record types.
const (
	// recEpoch carries one group-commit epoch's aggregated writes: the net
	// ins/del delta of every relation the epoch wrote, sorted by name.
	recEpoch byte = 1
	// recLoad carries a bulk Load: the relation's full replacement instance.
	recLoad byte = 2
	// recAddRelation carries a new relation's schema.
	recAddRelation byte = 3
	// recDefineIndex carries an index definition (encodeIndexDef).
	recDefineIndex byte = 4
)

// DurOptions configure Open.
type DurOptions struct {
	// Sync is the WAL sync policy (see wal.SyncPolicy; the zero value is
	// SyncAlways).
	Sync wal.SyncPolicy
	// SegmentBytes and BatchInterval pass through to the WAL writer; zero
	// values mean its defaults.
	SegmentBytes  int64
	BatchInterval time.Duration
	// CheckpointBytes triggers an automatic background checkpoint once that
	// many WAL bytes accumulated since the last one. 0 means the default
	// (8 MiB); negative disables automatic checkpoints (Checkpoint still
	// works).
	CheckpointBytes int64
	// FullEvery makes every n-th checkpoint full (self-contained) instead of
	// incremental, bounding the chain a recovery must read; 0 means the
	// default (8).
	FullEvery int
	// CacheBytes, when positive, pages the database: relations open as
	// shallow stubs over the checkpoint chain and trie nodes fault in
	// through a shared node cache bounded near this many bytes (CLOCK
	// eviction; pinned roots and in-flight faults can exceed it
	// transiently). 0 keeps the database fully memory-resident.
	CacheBytes int64
	// Metrics, when non-nil, receives every engine metric: the WAL writer,
	// the recovery replay and the opened database all resolve their handles
	// from it. Nil disables metrics (Open still builds a private registry for
	// the database so Stats keeps working; the WAL stays uninstrumented).
	Metrics *obs.Registry
	// Tracer, when non-nil, receives lifecycle events from the WAL writer,
	// recovery replay and the opened database's commit pipeline.
	Tracer obs.Tracer
}

const (
	defaultCheckpointBytes = 8 << 20
	defaultFullEvery       = 8
)

func (o DurOptions) withDefaults() DurOptions {
	if o.CheckpointBytes == 0 {
		o.CheckpointBytes = defaultCheckpointBytes
	}
	if o.FullEvery <= 0 {
		o.FullEvery = defaultFullEvery
	}
	return o
}

func (o DurOptions) walOptions() wal.Options {
	return wal.Options{
		Sync: o.Sync, SegmentBytes: o.SegmentBytes, BatchInterval: o.BatchInterval,
		Metrics: wal.NewMetrics(o.Metrics), Tracer: o.Tracer,
	}
}

// durability is the sidecar state of a durable Database.
type durability struct {
	dir  string
	opts DurOptions
	w    *wal.Writer

	// ckptMu serializes checkpoint writers (and so the pmap node stamping
	// they perform); the fields below it describe the committed checkpoint
	// chain.
	ckptMu sync.Mutex
	// nextFile is the id the next checkpoint file will take; ids are never
	// reused, so addresses stamped by a failed attempt can never resolve to
	// a later file.
	nextFile uint64
	// lastFull is the id of the newest full checkpoint — the chain base:
	// recovery reads the live files in [lastFull, newest].
	lastFull uint64
	// live holds the ids of the committed, undeleted checkpoint files; only
	// their addresses may be reused by an incremental checkpoint.
	live map[uint64]bool
	// count counts committed checkpoints; every FullEvery-th (starting with
	// the first) is full.
	count uint64
	// pager is the shared node cache of a paged database (CacheBytes > 0);
	// nil for a resident one. It is the Loader behind every relation stub.
	pager *pager

	// bytes accumulates WAL bytes since the last checkpoint, the automatic
	// checkpoint trigger.
	bytes  atomic.Int64
	inCkpt atomic.Bool
	// spawnMu orders background-checkpoint spawns against Close.
	spawnMu sync.Mutex
	closed  bool
	wg      sync.WaitGroup
}

// Durable reports whether the database persists to disk (built by Open).
func (d *Database) Durable() bool { return d.dur != nil }

// Dir returns the durable database's directory, or "" for an in-memory one.
func (d *Database) Dir() string {
	if d.dur == nil {
		return ""
	}
	return d.dur.dir
}

// DurableLSN returns the log sequence number of the record that produced the
// current snapshot — 0 for a fresh or in-memory database. It only moves when
// a logged mutation commits (read-only epochs advance the clock but not the
// LSN).
func (d *Database) DurableLSN() uint64 { return d.Snapshot().lsn }

// Close stops background checkpointing and closes the WAL, flushing and
// fsyncing its active segments (so a cleanly closed database is fully
// durable even under wal.SyncOff). The database must not be used afterwards.
// Close on an in-memory database is a no-op.
func (d *Database) Close() error {
	if d.dur == nil {
		return nil
	}
	d.dur.spawnMu.Lock()
	closed := d.dur.closed
	d.dur.closed = true
	d.dur.spawnMu.Unlock()
	if closed {
		return nil
	}
	d.dur.wg.Wait()
	err := d.dur.w.Close()
	if d.dur.pager != nil {
		// After the WAL: no more commits, no more checkpoints, so no more
		// faults on behalf of new work. Readers still holding old snapshots
		// of a paged database fault-fail from here on (documented: Close
		// invalidates the database).
		if cerr := d.dur.pager.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// appendString / decodeString are the string framing shared by the WAL
// payloads and the checkpoint directory.
func appendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

func decodeString(data []byte) (string, []byte, error) {
	l, n := binary.Uvarint(data)
	if n <= 0 || uint64(len(data)-n) < l {
		return "", nil, fmt.Errorf("storage: decode string: truncated")
	}
	return string(data[n : n+int(l)]), data[n+int(l):], nil
}

// appendRelTuples is relation.AppendTuples tolerating a nil relation (an
// absent delta side encodes as an empty list).
func appendRelTuples(dst []byte, r *relation.Relation) []byte {
	if r == nil {
		return binary.AppendUvarint(dst, 0)
	}
	return relation.AppendTuples(dst, r)
}

// appendEpoch appends the epoch's record — every written relation's write
// record in one payload, sorted by name — and returns its LSN and byte size.
// Called from the log stage under the commit lock.
func (du *durability) appendEpoch(last uint64, writes map[string]writeSet) (uint64, int64, error) {
	names := make([]string, 0, len(writes))
	for name := range writes {
		names = append(names, name)
	}
	sort.Strings(names)
	payload := binary.AppendUvarint(nil, uint64(len(names)))
	for _, name := range names {
		// Deletes precede inserts, matching the successor derivation
		// (table.apply) so replay streams in application order.
		w := writes[name]
		payload = appendString(payload, name)
		payload = appendRelTuples(payload, w.del)
		payload = appendRelTuples(payload, w.ins)
	}
	return du.w.AppendRecord(recEpoch, last, payload)
}

// appendSchemaRecord appends a schema-management record and returns its
// LSN.
func (du *durability) appendSchemaRecord(typ byte, time uint64, payload []byte) (uint64, error) {
	lsn, n, err := du.w.AppendRecord(typ, time, payload)
	if err != nil {
		return 0, err
	}
	du.bytes.Add(n)
	return lsn, nil
}

// encodeRelationSchema serializes a relation schema for recAddRelation and
// the checkpoint directory.
func encodeRelationSchema(dst []byte, rs *schema.Relation) []byte {
	dst = appendString(dst, rs.Name)
	dst = binary.AppendUvarint(dst, uint64(len(rs.Attrs)))
	for _, a := range rs.Attrs {
		dst = appendString(dst, a.Name)
		dst = binary.AppendUvarint(dst, uint64(a.Type))
	}
	return dst
}

func decodeRelationSchema(data []byte) (*schema.Relation, []byte, error) {
	name, data, err := decodeString(data)
	if err != nil {
		return nil, nil, err
	}
	n, k := binary.Uvarint(data)
	if k <= 0 || n > uint64(len(data)) {
		return nil, nil, fmt.Errorf("storage: decode schema %q: bad arity", name)
	}
	data = data[k:]
	attrs := make([]schema.Attribute, n)
	for i := range attrs {
		attrs[i].Name, data, err = decodeString(data)
		if err != nil {
			return nil, nil, err
		}
		kind, k := binary.Uvarint(data)
		if k <= 0 {
			return nil, nil, fmt.Errorf("storage: decode schema %q: bad attr kind", name)
		}
		attrs[i].Type = value.Kind(kind)
		data = data[k:]
	}
	rs, err := schema.NewRelation(name, attrs...)
	if err != nil {
		return nil, nil, fmt.Errorf("storage: decode schema: %w", err)
	}
	return rs, data, nil
}

// encodeIndexDef serializes a recDefineIndex payload: the relation, a kind
// byte, and the column list. Earlier versions wrote kind 1 for an ordered
// index and kind 0, over ascending columns, for an equality index; both
// name the index over the same column list now, so the writer always
// writes 0 and the reader ignores the byte.
func encodeIndexDef(rel string, cols []int) []byte {
	dst := appendString(nil, rel)
	dst = append(dst, 0)
	dst = binary.AppendUvarint(dst, uint64(len(cols)))
	for _, c := range cols {
		dst = binary.AppendUvarint(dst, uint64(c))
	}
	return dst
}

func decodeIndexDef(data []byte) (rel string, cols []int, rest []byte, err error) {
	rel, data, err = decodeString(data)
	if err != nil {
		return "", nil, nil, err
	}
	if len(data) == 0 {
		return "", nil, nil, fmt.Errorf("storage: decode index def: truncated")
	}
	data = data[1:] // the kind byte (see encodeIndexDef)
	n, k := binary.Uvarint(data)
	if k <= 0 || n > uint64(len(data)) {
		return "", nil, nil, fmt.Errorf("storage: decode index def: bad column count")
	}
	data = data[k:]
	cols = make([]int, n)
	for i := range cols {
		c, k := binary.Uvarint(data)
		if k <= 0 {
			return "", nil, nil, fmt.Errorf("storage: decode index def: bad column")
		}
		cols[i] = int(c)
		data = data[k:]
	}
	return rel, cols, data, nil
}

// maybeCheckpoint spawns a background checkpoint when enough WAL bytes have
// accumulated. Called by the drainer after releasing the commit lock; never
// blocks the commit path (at most one checkpoint runs at a time, and extra
// triggers are dropped).
func (du *durability) maybeCheckpoint(d *Database) {
	if du.opts.CheckpointBytes <= 0 || du.bytes.Load() < du.opts.CheckpointBytes {
		return
	}
	if !du.inCkpt.CompareAndSwap(false, true) {
		return
	}
	du.spawnMu.Lock()
	if du.closed {
		du.spawnMu.Unlock()
		du.inCkpt.Store(false)
		return
	}
	du.wg.Add(1)
	du.spawnMu.Unlock()
	go func() {
		defer du.wg.Done()
		defer du.inCkpt.Store(false)
		pprof.Do(context.Background(), pprof.Labels("stage", "checkpointer"), func(context.Context) {
			// A failed background checkpoint leaves the WAL intact — recovery
			// just replays more — so the error is dropped; explicit Checkpoint
			// calls surface theirs.
			_ = d.Checkpoint()
		})
	}()
}
