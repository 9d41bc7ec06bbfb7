// Crash recovery: Open rebuilds a durable database from its directory.
//
// The recovery invariant is that checkpoint + replayed WAL tail ≡ the last
// acknowledged state the sync policy guaranteed: the newest committed
// checkpoint supplies the schema, the relation instances and the index
// definitions as of its LSN watermark, and the WAL records with larger LSNs
// replay on top, in LSN order, exactly the way the commit pipeline applied
// them (deletes before inserts, Load replacing wholesale). Replay is linear
// over the one segment stream and stops at the first torn frame or missing
// LSN, so the recovered state is always a prefix-consistent image of the
// logged history — a record is one frame, so an epoch is replayed whole or
// not at all. Everything past the stop point is physically truncated from
// the segment files, and the writer resumes at the next LSN. Replay is
// idempotent: recovering twice, or crashing during recovery before the
// truncation, converges to the same state.
package storage

import (
	"encoding/binary"
	"fmt"
	"os"
	"time"

	"repro/internal/obs"
	"repro/internal/relation"
	"repro/internal/schema"
	"repro/internal/wal"
)

// Open opens (or creates) a durable database in dir. A fresh directory
// starts from sch with empty instances at logical time 0; an existing one is
// recovered from its checkpoint chain and WAL, in which case the stored
// schema supersedes sch entirely (use AddRelation to grow it after the
// fact). The returned database behaves exactly like an in-memory one, plus
// Checkpoint, Close and crash-safety per opts.Sync.
func Open(dir string, sch *schema.Database, opts DurOptions) (*Database, error) {
	opts = opts.withDefaults()
	tOpen := time.Now()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("storage: open %s: %w", dir, err)
	}
	// Scanned before anything else reads or edits the directory: a log in a
	// format this version cannot replay must fail the open untouched.
	segs, err := wal.Scan(dir)
	if err != nil {
		return nil, fmt.Errorf("storage: open %s: %w", dir, err)
	}

	// A positive CacheBytes pages the database: the pager is the shared node
	// cache every relation stub faults through, and Open reads only
	// checkpoint headers and directories instead of decoding every node.
	var pg *pager
	if opts.CacheBytes > 0 {
		pg = newPager(dir, opts.CacheBytes, opts.Metrics)
	}
	fail := func(err error) (*Database, error) {
		if pg != nil {
			pg.Close()
		}
		return nil, err
	}

	ck, err := loadCheckpoint(dir, pg)
	if err != nil {
		return fail(err)
	}
	met := newStoreMetrics(opts.Metrics)
	rs := &replayState{
		sch:  sch,
		rels: make(map[string]*relation.Relation),
		met:  met,
		tr:   opts.Tracer,
	}
	du := &durability{dir: dir, opts: opts, live: map[uint64]bool{}, nextFile: 1, pager: pg}
	if ck != nil {
		rs.sch = ck.sch
		rs.rels = ck.rels
		rs.indexes = ck.indexes
		rs.time = ck.time
		rs.lsn = ck.lsn
		du.nextFile = ck.fileID + 1
		du.lastFull = ck.lastFull
		du.live = ck.live
		du.count = 1 // a committed chain exists; next checkpoint may be incremental
	} else {
		for _, name := range sch.Names() {
			relSch, _ := sch.Relation(name)
			rs.rels[name] = relation.New(relSch)
		}
	}

	if err := replayWAL(segs, rs); err != nil {
		return fail(err)
	}

	w, err := wal.Open(dir, rs.lsn+1, opts.walOptions())
	if err != nil {
		return fail(err)
	}
	du.w = w

	// Assemble the database around the recovered state: sealed instances,
	// indexes rebuilt from them (exactly like a bulk Load), the clock and
	// the commit log's truncation watermark at the recovered time — a commit
	// based on anything older predates this incarnation's commit log and is
	// conservatively refused.
	d := New(rs.sch)
	d.dur = du
	if opts.Metrics != nil || opts.Tracer != nil {
		reg := opts.Metrics
		if reg == nil {
			reg = d.Registry() // keep the private registry, attach the tracer
		}
		d.SetObservability(reg, opts.Tracer)
	}
	tabs := make(map[string]table, len(rs.rels))
	for name, r := range rs.rels {
		tabs[name] = table{}.reload(r)
	}
	if err := buildIndexes(tabs, rs.indexes); err != nil {
		w.Close()
		return fail(err)
	}
	d.truncated = rs.time
	d.snap.Store(&Snapshot{sch: rs.sch, tabs: tabs, time: rs.time, lsn: rs.lsn})
	met.openSeconds.Observe(uint64(time.Since(tOpen)))
	return d, nil
}

// replayState accumulates the recovered image as the WAL tail applies.
type replayState struct {
	sch     *schema.Database
	rels    map[string]*relation.Relation // mutable working copies
	indexes [][]byte                      // encoded index defs, definition order
	time    uint64
	lsn     uint64 // last applied LSN

	met *storeMetrics // replay counters (all-nil set when metrics are off)
	tr  obs.Tracer
}

// replayWAL applies the scanned records with LSN > rs.lsn in contiguous LSN
// order, stopping at the first torn frame or missing LSN, and truncates
// whatever did not apply so the resumed writer never collides with stale
// frames.
func replayWAL(segs []*wal.Segment, rs *replayState) error {
	var nRecs, nBytes, lastEmit uint64
replay:
	for _, seg := range segs {
		for _, rec := range seg.Records {
			if rec.LSN <= rs.lsn {
				continue // already covered by the checkpoint
			}
			if rec.LSN != rs.lsn+1 {
				break replay
			}
			if err := applyRecord(rs, rec); err != nil {
				return err
			}
			rs.lsn, rs.time = rec.LSN, rec.Time
			nBytes += uint64(len(rec.Payload))
			nRecs++
			if nRecs-lastEmit >= 1024 {
				guardedEmit(rs.tr, rs.met, obs.Event{Kind: obs.EvRecoveryReplay, N: nRecs, Bytes: nBytes, LSN: rs.lsn})
				lastEmit = nRecs
			}
		}
		if seg.Torn {
			break
		}
	}
	rs.met.replayRecords.Add(nRecs)
	rs.met.replayBytes.Add(nBytes)
	if nRecs > 0 {
		guardedEmit(rs.tr, rs.met, obs.Event{Kind: obs.EvRecoveryReplay, N: nRecs, Bytes: nBytes, LSN: rs.lsn})
	}

	// Physical truncation: every frame past the applied prefix goes, so the
	// writer's next append (at rs.lsn+1) cannot collide with a stale frame
	// carrying the same LSN.
	for _, seg := range segs {
		keep := int64(0)
		for _, rec := range seg.Records {
			if rec.LSN <= rs.lsn {
				keep = rec.End
			}
		}
		st, err := os.Stat(seg.Path)
		if err != nil {
			return fmt.Errorf("storage: recover: %w", err)
		}
		switch {
		case keep == 0:
			if err := os.Remove(seg.Path); err != nil {
				return fmt.Errorf("storage: recover: %w", err)
			}
		case keep < st.Size():
			if err := os.Truncate(seg.Path, keep); err != nil {
				return fmt.Errorf("storage: recover: %w", err)
			}
		}
	}
	return nil
}

// applyRecord replays one WAL record onto the working state. The
// epoch-delta application order (deletes, then inserts) matches the
// pipeline's successor derivation.
func applyRecord(rs *replayState, rec wal.Record) error {
	switch rec.Type {
	case recEpoch:
		data := rec.Payload
		n, k := binary.Uvarint(data)
		if k <= 0 {
			return fmt.Errorf("storage: replay lsn %d: bad relation count", rec.LSN)
		}
		data = data[k:]
		for i := uint64(0); i < n; i++ {
			name, rest, err := decodeString(data)
			if err != nil {
				return fmt.Errorf("storage: replay lsn %d: %w", rec.LSN, err)
			}
			data = rest
			r := rs.rels[name]
			if r == nil {
				return fmt.Errorf("storage: replay lsn %d: unknown relation %q", rec.LSN, name)
			}
			// Deletes first, then inserts — the payload is written in
			// application order.
			if data, err = relation.DecodeTuples(data, func(t relation.Tuple) {
				r.Delete(t)
			}); err != nil {
				return fmt.Errorf("storage: replay lsn %d: %w", rec.LSN, err)
			}
			if data, err = relation.DecodeTuples(data, func(t relation.Tuple) {
				r.InsertUnchecked(t)
			}); err != nil {
				return fmt.Errorf("storage: replay lsn %d: %w", rec.LSN, err)
			}
		}
		return nil
	case recLoad:
		name, data, err := decodeString(rec.Payload)
		if err != nil {
			return fmt.Errorf("storage: replay load lsn %d: %w", rec.LSN, err)
		}
		relSch, ok := rs.sch.Relation(name)
		if !ok {
			return fmt.Errorf("storage: replay load lsn %d: unknown relation %q", rec.LSN, name)
		}
		fresh := relation.New(relSch)
		if _, err := relation.DecodeTuples(data, func(t relation.Tuple) {
			fresh.InsertUnchecked(t)
		}); err != nil {
			return fmt.Errorf("storage: replay load lsn %d: %w", rec.LSN, err)
		}
		rs.rels[name] = fresh
		return nil
	case recAddRelation:
		relSch, _, err := decodeRelationSchema(rec.Payload)
		if err != nil {
			return fmt.Errorf("storage: replay lsn %d: %w", rec.LSN, err)
		}
		if _, ok := rs.sch.Relation(relSch.Name); ok {
			return nil // idempotent against a caller-supplied schema
		}
		if err := rs.sch.Add(relSch); err != nil {
			return fmt.Errorf("storage: replay lsn %d: %w", rec.LSN, err)
		}
		rs.rels[relSch.Name] = relation.New(relSch)
		return nil
	case recDefineIndex:
		if _, _, _, err := decodeIndexDef(rec.Payload); err != nil {
			return fmt.Errorf("storage: replay lsn %d: %w", rec.LSN, err)
		}
		rs.indexes = append(rs.indexes, rec.Payload)
		return nil
	default:
		return fmt.Errorf("storage: replay lsn %d: unknown record type %d", rec.LSN, rec.Type)
	}
}

// buildIndexes rebuilds every defined index from the recovered tables'
// instances — same bulk path DefineIndex takes. A definition repeating a
// column list already built counts as present: a log written before
// equality and ordered indexes were one kind may define both over the same
// column.
func buildIndexes(tabs map[string]table, defs [][]byte) error {
	for _, enc := range defs {
		rel, cols, _, err := decodeIndexDef(enc)
		if err != nil {
			return err
		}
		t, ok := tabs[rel]
		if !ok {
			return fmt.Errorf("storage: recover: index on unknown relation %q", rel)
		}
		tabs[rel], _ = t.withIndex(cols)
	}
	return nil
}
