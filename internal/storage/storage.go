// Package storage implements the main-memory database store: named relation
// instances over a database schema, with a logical clock counting committed
// transitions (Definition 2.3). It plays the role PRISMA/DB's storage layer
// plays in the paper — transactions execute against it through the overlay
// in package txn.
//
// The store is snapshot-isolated: the committed state is an immutable
// Snapshot behind an atomically swapped pointer, so any number of readers
// (and transaction overlays) can pin a consistent state without locking.
// Snapshots also carry the secondary indexes (package index) defined on
// their relations; commits derive successor indexes from their net deltas —
// O(delta) per index — and publish them in the same atomic swap, so a
// snapshot's indexes always exactly describe its sealed instances.
//
// The commit point is a group-commit sequencer (see group.go): a commit
// request enqueues and waits; the goroutine that finds the queue idle
// becomes the drainer and claims the whole queue as one epoch. The epoch is
// validated as a unit — every member against the same base snapshot, each
// against the commit log (first-committer-wins, at tuple-key / probed-key /
// interval granularity where the overlay recorded it) and then against the
// members accepted before it in queue order, so commuting members of one
// epoch merge into a shared successor instead of retrying. Per written
// relation the epoch derives ONE successor trie instance (O(1) clone +
// O(batch delta) path copies on the shared persistent trie, package pmap)
// and ONE successor of every secondary index on it (path copies again, package
// index); it appends ONE commit-log record and
// installs everything in a single snapshot swap. Validation of epoch N+1 is
// pipelined with publication of epoch N: the log record lands under the
// commit lock before the swap, and the shadow map of derived tables lets the
// next epoch build on predecessors that have not been swapped in yet;
// snapshot swaps themselves are ordered by the epoch clock.
//
// There is one commit lock, one commit log and one logical clock. The log
// holds the net ins/del deltas of the epochs that wrote anything, keyed by
// the epoch's last logical time. It is trimmed by covered logical-time
// span, not record count — one epoch record may cover many transactions —
// and a commit whose base snapshot predates the retained window is refused
// as a conflict, forcing a retry from a fresh snapshot.
//
// Databases built by Open (rather than New) are durable: the
// drainer serializes each epoch's aggregate writes into the write-ahead log
// (package wal) before acknowledging its members, background checkpoints
// bound the log, and Open recovers checkpoint + log tail after a crash —
// see durable.go, checkpoint.go and recover.go here, and, for the full
// picture, docs/ARCHITECTURE.md (the commit pipeline end to end) and
// docs/RECOVERY.md (on-disk formats and the recovery invariant) at the
// repository root.
package storage

import (
	"errors"
	"fmt"
	"maps"
	"sync"
	"sync/atomic"

	"repro/internal/index"
	"repro/internal/obs"
	"repro/internal/relation"
	"repro/internal/schema"
)

// defaultRetainSpan bounds the commit log by the span of logical time it
// covers: records whose commit time trails the newest record by more than
// the span are discarded. A span, not a record count, because one epoch
// record covers a whole batch of transactions — counting records would
// evict base windows faster the better batching works. A commit whose base
// snapshot predates the retained window can no longer be validated and is
// reported as a conflict, forcing a retry from a fresh snapshot.
const defaultRetainSpan = 1024

// table is one relation's state: a sealed instance and the secondary indexes
// (nil when it has none) that exactly describe it. The two are only ever
// derived, shadowed, installed and checkpointed together, through apply and
// reload.
type table struct {
	inst *relation.Relation
	idx  *index.Set
}

// apply derives the successor after a net delta — deletes, then inserts, the
// order WAL replay repeats — sharing all but O(delta · log n) nodes of the
// instance and of every index with the receiver. Either side may be nil; the
// deltas are sealed by the call.
func (t table) apply(ins, del *relation.Relation) table {
	succ := t.inst.Clone()
	if del != nil {
		succ.DiffInPlace(del.Seal())
	}
	if ins != nil {
		succ.UnionInPlace(ins.Seal())
	}
	return table{inst: succ.Seal(), idx: t.idx.Apply(ins, del)}
}

// reload replaces the instance wholesale (sealing r) and rebuilds every
// index from it — the bulk path, where no delta exists to maintain them by.
func (t table) reload(r *relation.Relation) table {
	return table{inst: r.Seal(), idx: t.idx.Rebuild(r)}
}

// withIndex adds an index over the column list cols, built from the
// instance; ok is false when the set already holds one over the same list.
func (t table) withIndex(cols []int) (_ table, ok bool) {
	if t.idx.Exact(cols) != nil {
		return t, false
	}
	t.idx = t.idx.With(index.Build(t.inst, cols))
	return t, true
}

// Snapshot is an immutable database state D^t (Definition 2.2) at a logical
// time: one table — sealed instance plus its indexes — per relation.
// Snapshots are shared freely between goroutines; they never change after
// publication, and the whole map is swapped in one atomic pointer store.
type Snapshot struct {
	sch  *schema.Database
	tabs map[string]table
	time uint64
	// lsn is the WAL sequence number of the record that produced this state
	// (0 in-memory or before any logged mutation) — the checkpoint
	// watermark of a durable database; see durable.go.
	lsn uint64
}

// Schema returns the database schema the snapshot instantiates.
func (s *Snapshot) Schema() *schema.Database { return s.sch }

// Time returns the logical time of the state.
func (s *Snapshot) Time() uint64 { return s.time }

// Relation returns the named relation instance. The instance is sealed;
// callers needing a mutable copy must Clone it.
func (s *Snapshot) Relation(name string) (*relation.Relation, error) {
	t, ok := s.tabs[name]
	if !ok {
		return nil, fmt.Errorf("storage: unknown relation %q", name)
	}
	return t.inst, nil
}

// IndexSet returns the secondary indexes defined on the named relation, or
// nil when it has none. The set and its indexes are immutable.
func (s *Snapshot) IndexSet(name string) *index.Set { return s.tabs[name].idx }

// writeSet is the per-relation write record of one epoch: the net inserted
// and net deleted tuples (the union of the accepted members' differential
// relations; either side may be nil). The same value is the fold aggregate,
// the source of the WAL payload and the commit-log entry.
type writeSet struct {
	ins, del *relation.Relation
}

// Delta is the commit-log record of one epoch: the write record of every
// relation it wrote, keyed by the logical time of the state the epoch
// produced. It holds deltas only, never a successor table — the log retains
// a span of records, and a table in each would pin every path copy made
// across the span.
type Delta struct {
	Time   uint64
	writes map[string]writeSet
}

// ProbeRead records the index probes a transaction issued against one
// relation on one column list: the keys (relation.Tuple.KeyOn over Cols) its
// equality probes looked up, and the half-open intervals (index.KeyRange
// over the same encoding) its range probes walked. A probe observes every
// tuple whose projection matches a key or falls in an interval — including
// the absence of any — so a concurrent delta conflicts iff one of its tuples
// does.
type ProbeRead struct {
	Cols   []int
	Keys   map[string]bool
	Ranges []index.KeyRange
}

// covers reports whether an encoded projection onto Cols matches a probed
// key or falls in a probed interval. The string(key) conversions in map
// lookups and comparisons do not allocate.
func (pr *ProbeRead) covers(key []byte) bool {
	if pr.Keys[string(key)] {
		return true
	}
	for _, kr := range pr.Ranges {
		if kr.Lo <= string(key) && string(key) < kr.Hi {
			return true
		}
	}
	return false
}

// ReadInfo describes how a transaction read one relation, at the finest
// granularity the overlay could record.
type ReadInfo struct {
	// Full marks a whole-relation read (a scan, or any materialization of
	// the current or pre-transaction instance): every concurrent write to
	// the relation conflicts.
	Full bool
	// Keys holds the canonical tuple keys (relation.Tuple.Key) the
	// transaction probed or wrote when Full is false: a concurrent write
	// conflicts only if its delta touches one of them.
	Keys map[string]bool
	// Probes holds the probe records, one per probed column list and keyed
	// by its signature (index.Sig), when Full is false: a concurrent write
	// conflicts only if one of its tuples projects onto a probed key or
	// into a probed interval.
	Probes map[string]*ProbeRead
}

// Commit is a commit request: the outcome of a transaction that executed
// against the snapshot at BaseTime, read the relations in Reads, and wants
// to apply the net differentials Ins/Del. The relations it writes are the
// keys of Ins and Del; a nil delta under a key is malformed.
//
// The store never installs an instance a committer built: it derives each
// successor from the latest sealed instance plus the delta, O(delta), so
// consecutive snapshots share trie structure and the deltas of concurrent
// committers that validation found disjoint all survive. Validation checks
// exactly what Reads records, so a committer must record a read (the keys
// it wrote, at least) for every relation it writes — the overlay does.
type Commit struct {
	BaseTime uint64
	Reads    map[string]*ReadInfo
	Ins      map[string]*relation.Relation
	Del      map[string]*relation.Relation
	// Label is an optional diagnostic identifier (the transaction's label)
	// carried into tracer events; it plays no role in validation.
	Label string
}

// Conflict explains a failed first-committer-wins validation: a transaction
// that committed at Time — after the requester's base snapshot — wrote
// Relation, which the requester read. Key holds the clashing tuple key when
// the conflict was detected at tuple granularity. Relation is empty when the
// commit log no longer covers the requester's base time and validation was
// refused conservatively.
type Conflict struct {
	Time     uint64
	Relation string
	Key      string
}

func (c *Conflict) String() string {
	switch {
	case c.Relation == "":
		return fmt.Sprintf("base snapshot predates the retained commit log (oldest validated time %d)", c.Time)
	case c.Key != "":
		return fmt.Sprintf("tuple %x of relation %q written by commit at t=%d", c.Key, c.Relation, c.Time)
	default:
		return fmt.Sprintf("relation %q written by commit at t=%d", c.Relation, c.Time)
	}
}

// Stats is a snapshot of the store's commit counters.
type Stats struct {
	// Commits counts validated commits installed (including read-only and
	// empty commits, which still advance the clock).
	Commits uint64
	// Conflicts counts first-committer-wins validation failures reported to
	// callers (each typically triggers one transaction retry).
	Conflicts uint64
	// MergedCommits counts installed commits that had to merge concurrently
	// committed disjoint deltas into their write set — commits that a
	// relation-granular validator would have rejected.
	MergedCommits uint64
	// Epochs counts group-commit epochs that installed at least one commit;
	// Commits/Epochs is the mean batch size the sequencer achieved.
	Epochs uint64
	// IntraBatchMerges counts installed commits that merged with a disjoint
	// co-writer inside their own epoch (a subset of MergedCommits).
	IntraBatchMerges uint64
}

// Database is a database state D of a database schema (Definition 2.2) plus
// a logical clock. Reads (Snapshot, Relation, Time) are lock-free and safe
// for any number of concurrent goroutines; commits validate under the commit
// lock and publish through a short publish mutex.
type Database struct {
	sch *schema.Database

	// commitMu is the commit lock: the drainer holds it through stage V of
	// each epoch and schema calls hold it for their whole edit. It guards
	// the three fields below it. Lock order: commitMu before pubMu.
	commitMu sync.Mutex
	// log holds the records of the epochs that wrote anything, in ascending
	// commit-time order.
	log []*Delta
	// truncated is the highest commit time whose record may have been
	// dropped from log; validation of base snapshots before it must be
	// refused conservatively.
	truncated uint64
	// shadow holds the newest derived table of each relation an epoch has
	// written, including epochs whose snapshot swap is still in flight — the
	// pipelined successor base. A missing entry (or a nil map) falls back to
	// the published snapshot. Schema calls (Load, AddRelation,
	// DefineIndex...) clear it.
	shadow map[string]table

	pubMu sync.Mutex // publish point: snapshot swap ordering; also Load/AddRelation
	snap  atomic.Pointer[Snapshot]

	// Group-commit state: the global pending queue, the epoch clock that
	// reserves commit-time blocks ahead of publication, and the condition
	// (under pubMu) that orders the snapshot swaps of pipelined epochs.
	gq      groupQueue
	clock   atomic.Uint64
	pubCond *sync.Cond
	// retain is the commit-log retention span in logical time, configured
	// before concurrent use.
	retain uint64

	// Observability (see obs.go): the registry the metric handles in met
	// were resolved from (Stats() is a thin view over it), and the optional
	// lifecycle tracer. met is never nil; reg and tr may be.
	reg *obs.Registry
	met *storeMetrics
	tr  obs.Tracer
	// layerMet caches the handle set the layer above resolved from reg (see
	// LayerMetrics), so that it lives exactly as long as the database.
	layerMet atomic.Pointer[any]

	// dur is the durability sidecar (WAL writer + checkpoint state) of a
	// database built by Open; nil for the in-memory constructors.
	dur *durability
}

// New returns an empty database state (all relations empty, logical time 0)
// for the given schema.
func New(sch *schema.Database) *Database {
	tabs := make(map[string]table, sch.Len())
	for _, name := range sch.Names() {
		rs, _ := sch.Relation(name)
		tabs[name] = table{}.reload(relation.New(rs))
	}
	db := &Database{sch: sch, retain: defaultRetainSpan}
	db.pubCond = sync.NewCond(&db.pubMu)
	// Metrics are on by default — Stats() is a view over the registry — and
	// re-pointable (or disabled) via SetObservability before concurrent use.
	db.reg = obs.NewRegistry()
	db.met = newStoreMetrics(db.reg)
	db.snap.Store(&Snapshot{sch: sch, tabs: tabs})
	return db
}

// Stats returns a snapshot of the commit counters. Since the obs migration
// this is a thin view over the metrics registry (the counters live there,
// striped); with observability disabled via SetObservability(nil, ...) it
// reads zero.
func (d *Database) Stats() Stats {
	m := d.met
	return Stats{
		Commits:          m.commits.Value(),
		Conflicts:        m.conflicts.Value(),
		MergedCommits:    m.merged.Value(),
		Epochs:           m.epochs.Value(),
		IntraBatchMerges: m.intraMerged.Value(),
	}
}

// Schema returns the database schema.
func (d *Database) Schema() *schema.Database { return d.sch }

// Snapshot returns the current committed state. The call is lock-free; the
// returned snapshot is immutable and stays valid (pinned by the caller)
// regardless of later commits.
func (d *Database) Snapshot() *Snapshot { return d.snap.Load() }

// Time returns the logical time of the current state.
func (d *Database) Time() uint64 { return d.Snapshot().time }

// Relation returns the current instance of the named relation. The instance
// is sealed; callers needing a mutable copy must Clone it.
func (d *Database) Relation(name string) (*relation.Relation, error) {
	return d.Snapshot().Relation(name)
}

// beginSchemaChange brackets a snapshot edit made outside the epoch
// machinery (Load, AddRelation, index definition): it takes the commit lock
// and the publish lock, waits until every reserved epoch has published —
// so the state the caller reads and logs is the state its record's log
// position implies, and no new epoch can reserve times meanwhile — and
// clears the epoch shadow state, so a later epoch cannot paper over the
// edit with a stale shadow instance. The caller runs the returned unlock
// when done.
func (d *Database) beginSchemaChange() (unlock func()) {
	d.commitMu.Lock()
	d.pubMu.Lock()
	for d.snap.Load().time != d.clock.Load() {
		d.pubCond.Wait()
	}
	d.shadow = nil
	return func() {
		d.pubMu.Unlock()
		d.commitMu.Unlock()
	}
}

// AddRelation registers a new relation schema after creation, with an empty
// instance. The schema must already be present in the database schema (the
// caller updates both in step); duplicate instances are rejected.
func (d *Database) AddRelation(rs *schema.Relation) error {
	defer d.beginSchemaChange()()
	cur := d.snap.Load()
	if _, ok := cur.tabs[rs.Name]; ok {
		return fmt.Errorf("storage: relation %q already exists", rs.Name)
	}
	if _, ok := d.sch.Relation(rs.Name); !ok {
		return fmt.Errorf("storage: relation %q missing from database schema", rs.Name)
	}
	next := cur.withInstalled(map[string]table{rs.Name: table{}.reload(relation.New(rs))}, cur.time)
	if d.dur != nil {
		lsn, err := d.dur.appendSchemaRecord(recAddRelation, cur.time, encodeRelationSchema(nil, rs))
		if err != nil {
			return err
		}
		next.lsn = lsn
	}
	d.snap.Store(next)
	return nil
}

// Load bulk-replaces the instance of a relation; intended for test fixtures
// and workload generators, outside any transaction. The relation is sealed
// by the call, and any secondary indexes on it are rebuilt from the new
// instance. The logical clock is not advanced and no commit-log record is
// written (a durable database logs the full replacement instance to its
// WAL, though — replay replaces wholesale).
func (d *Database) Load(r *relation.Relation) error {
	defer d.beginSchemaChange()()
	cur := d.snap.Load()
	name := r.Schema().Name
	old, ok := cur.tabs[name]
	if !ok {
		return fmt.Errorf("storage: unknown relation %q", name)
	}
	next := cur.withInstalled(map[string]table{name: old.reload(r)}, cur.time)
	if d.dur != nil {
		payload := appendRelTuples(appendString(nil, name), r)
		lsn, err := d.dur.appendSchemaRecord(recLoad, cur.time, payload)
		if err != nil {
			return err
		}
		next.lsn = lsn
	}
	d.snap.Store(next)
	return nil
}

// DefineIndex declares a secondary index on the named relation over the
// given column list, builds it from the current instance, and publishes it
// with the snapshot. The column order is kept: it is the index's sort order,
// and the index serves an equality on any leading prefix of the columns
// plus a range on the next one. Like AddRelation, DefineIndex is a
// schema-management call: it must not run concurrently with commits. A
// second definition over the same column list is rejected.
func (d *Database) DefineIndex(rel string, cols []int) error {
	if len(cols) == 0 {
		return fmt.Errorf("storage: index on %q needs at least one column", rel)
	}
	rs, ok := d.sch.Relation(rel)
	if !ok {
		return fmt.Errorf("storage: index on unknown relation %q", rel)
	}
	seen := make(map[int]bool, len(cols))
	for _, c := range cols {
		if c < 0 || c >= rs.Arity() {
			return fmt.Errorf("storage: index on %q: column %d out of range (arity %d)", rel, c, rs.Arity())
		}
		if seen[c] {
			return fmt.Errorf("storage: index on %q repeats column %d", rel, c)
		}
		seen[c] = true
	}
	defer d.beginSchemaChange()()
	cur := d.snap.Load()
	old, ok := cur.tabs[rel]
	if !ok {
		return fmt.Errorf("storage: index on relation %q with no instance", rel)
	}
	indexed, ok := old.withIndex(cols)
	if !ok {
		return fmt.Errorf("storage: duplicate index on %q(%s)", rel, index.Sig(cols))
	}
	next := cur.withInstalled(map[string]table{rel: indexed}, cur.time)
	if d.dur != nil {
		lsn, err := d.dur.appendSchemaRecord(recDefineIndex, cur.time, encodeIndexDef(rel, cols))
		if err != nil {
			return err
		}
		next.lsn = lsn
	}
	d.snap.Store(next)
	return nil
}

// DefineOrderedIndex is DefineIndex. It is kept for benchmarks/txbench,
// which calls it.
func (d *Database) DefineOrderedIndex(rel string, cols []int) error { return d.DefineIndex(rel, cols) }

// IndexDefs returns the column lists of the indexes defined on the named
// relation, ordered by signature; nil when it has none.
func (d *Database) IndexDefs(rel string) [][]int {
	set := d.Snapshot().IndexSet(rel)
	if set.Len() == 0 {
		return nil
	}
	out := make([][]int, 0, set.Len())
	for _, x := range set.All() {
		out = append(out, append([]int(nil), x.Cols()...))
	}
	return out
}

// OrderedIndexDefs is IndexDefs. It is kept for benchmarks/txbench, which
// calls it.
func (d *Database) OrderedIndexDefs(rel string) [][]int { return d.IndexDefs(rel) }

// writes reports whether the commit writes the named relation.
func (c *Commit) writes(name string) bool { return c.Ins[name] != nil || c.Del[name] != nil }

// conflict is the one first-committer-wins check: the commit's reads against
// one set of write records — a commit-log record past its base time, or the
// aggregate of the members accepted before it in its own epoch. A
// whole-relation read conflicts with any write to the relation; a keyed,
// probed or interval read only with a write record that overlaps it (Key
// then names the clashing tuple). The caller stamps Conflict.Time. merged
// reports that a disjoint record touched a relation the commit also writes:
// its effect survives into the successor derived from the latest state.
func (c *Commit) conflict(ws map[string]writeSet) (cf *Conflict, merged bool) {
	for name, ri := range c.Reads {
		w, ok := ws[name]
		if !ok {
			continue
		}
		if ri.Full {
			return &Conflict{Relation: name}, false
		}
		if k := ri.overlapKey(w.ins, w.del); k != "" {
			return &Conflict{Relation: name, Key: k}, false
		}
		if c.writes(name) {
			merged = true
		}
	}
	return nil, merged
}

// overlapKey returns a tuple key from the delta relations that the read
// record depends on — its canonical key was observed directly (Keys), or
// its projection onto a probed column list matches a probed key or falls in
// a probed interval (Probes) — or "" when the delta is disjoint from
// everything read. The projections share one buffer, so the check
// allocates nothing per delta tuple; it starts at 64 bytes so that, for the
// usual projection widths, it never regrows whatever order Probes iterates.
func (ri *ReadInfo) overlapKey(ins, del *relation.Relation) string {
	var buf []byte
	if len(ri.Probes) > 0 {
		buf = make([]byte, 0, 64)
	}
	for _, r := range []*relation.Relation{ins, del} {
		if r == nil {
			continue
		}
		hit := ""
		_ = r.ForEachKey(func(k string, t relation.Tuple) error {
			if ri.Keys[k] {
				hit = k
				return errStopIteration
			}
			for _, pr := range ri.Probes {
				buf = t.AppendKeyOn(buf[:0], pr.Cols)
				if pr.covers(buf) {
					hit = k
					return errStopIteration
				}
			}
			return nil
		})
		if hit != "" {
			return hit
		}
	}
	return ""
}

var errStopIteration = errors.New("stop")

// CommitValidated is the optimistic commit point. The commit is checked for
// malformedness, enqueued on the group-commit queue, and claimed — together
// with every other pending commit — as one epoch by the drainer (see
// group.go): validation runs first-committer-wins against the commit log
// and then against the co-members accepted before it, at tuple
// granularity where c.Reads recorded keys; the whole epoch's successor
// tables derive in one O(batch delta) pass and install in one snapshot swap. The
// call blocks until its epoch's outcome is decided (this goroutine may be
// asked to run the epoch's publish stage itself — that is the pipeline). A
// non-nil Conflict (with nil error) means validation failed and the caller
// should re-execute against a fresh snapshot; errors are reserved for
// malformed commits, which never enqueue.
func (d *Database) CommitValidated(c Commit) (uint64, *Conflict, error) {
	cur := d.snap.Load()
	for _, side := range []map[string]*relation.Relation{c.Ins, c.Del} {
		for name, r := range side {
			if _, ok := cur.tabs[name]; !ok {
				return 0, nil, fmt.Errorf("storage: commit touches unknown relation %q", name)
			}
			if r == nil {
				return 0, nil, fmt.Errorf("storage: commit carries a nil delta for relation %q", name)
			}
		}
	}
	if c.BaseTime > cur.time {
		return 0, nil, fmt.Errorf("storage: commit base time %d is ahead of the store (t=%d)", c.BaseTime, cur.time)
	}

	p := &pending{c: &c, done: make(chan func(), 1)}
	d.gq.mu.Lock()
	d.gq.queue = append(d.gq.queue, p)
	lead := !d.gq.draining
	if lead {
		d.gq.draining = true
	}
	d.gq.mu.Unlock()
	// The enqueue event is the one tracer callback emitted while holding no
	// lock at all (the queue is claimed, the drain has not started), so a
	// test tracer may block here to steer commits into a shared epoch.
	d.emit(obs.Event{Kind: obs.EvTxnEnqueue, Txn: c.Label, Time: c.BaseTime})
	if lead {
		d.drain(p)
	}
	// Wait for the epoch outcome; a non-nil receive is this epoch's publish
	// stage, delegated here so the drainer can validate the next epoch.
	if fn := <-p.done; fn != nil {
		fn()
	}
	// p.err is only ever set by a durable database whose WAL append failed:
	// the epoch was accepted but could not be made durable, so it was not
	// installed and the store is effectively read-only (the WAL writer is
	// poisoned).
	return p.time, p.conflict, p.err
}

// withInstalled builds the successor snapshot: the receiver's table map
// with the changed tables swapped in, at logical time t. Unchanged tables are
// shared — the copy is O(relations), not O(tuples).
func (s *Snapshot) withInstalled(changed map[string]table, t uint64) *Snapshot {
	tabs := maps.Clone(s.tabs)
	maps.Copy(tabs, changed)
	return &Snapshot{sch: s.sch, tabs: tabs, time: t, lsn: s.lsn}
}

// Clone returns an independent database seeded with the current snapshot.
// Because snapshots are immutable the relations are shared, making Clone
// O(relations); commits to either database never affect the other. The
// clone's commit log is empty, so its truncation watermark starts at the
// seed time: a commit based on a
// snapshot older than the clone itself cannot be validated (the clone
// never saw those deltas) and is conservatively refused. The clone is
// always in-memory, even when the receiver is durable.
func (d *Database) Clone() *Database {
	cur := d.Snapshot()
	c := &Database{sch: d.sch, retain: d.retain, truncated: cur.time}
	c.pubCond = sync.NewCond(&c.pubMu)
	// The clone counts into its own fresh registry (its Stats start at
	// zero); use SetObservability to share the parent's.
	c.reg = obs.NewRegistry()
	c.met = newStoreMetrics(c.reg)
	c.clock.Store(cur.time)
	c.snap.Store(&Snapshot{sch: cur.sch, tabs: cur.tabs, time: cur.time})
	return c
}
