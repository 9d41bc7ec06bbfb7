// Group commit: the epoch-batched commit point. CommitValidated does not
// validate and install one transaction at a time — pending commits enqueue
// onto a global queue, the first enqueuer becomes the drainer, and the
// drainer claims the whole queue as one epoch (claim). The epoch is a value
// (type epoch) that runs through four stage methods, all under the commit
// lock:
//
//   - validate: every member is checked first-committer-wins against the
//     commit log (cross-epoch) and then against the aggregate of the members
//     accepted before it in queue order (intra-epoch) — the same conflict
//     function both times, so the granularity is the same and commuting
//     members merge instead of retrying — and the accepted members' net
//     deltas are aggregated into one write record per relation; the accepted
//     members then take the logical times that follow the published
//     snapshot's.
//   - fold: ONE successor table per written relation — the trie instance and
//     every index on it, O(batch delta · log n) path copies — for the whole
//     batch, from the published snapshot.
//   - log: the write records go to the WAL as one record (durable
//     databases) and become the commit-log record.
//   - swap: the whole batch's successor tables install in a single snapshot
//     swap at the epoch's last time.
//
// Validation through the swap is one critical section, so an epoch is one
// atomic change of (instances, indexes, clock), and the next epoch and every
// schema call start from the published snapshot. After unlocking, the
// drainer counts the epoch, emits its commit events and wakes every member
// (release). One drainer runs at a time, so the commit lock orders nothing
// between committers; it excludes schema calls from the epoch.
package storage

import (
	"context"
	"runtime"
	"runtime/pprof"
	"sort"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/relation"
)

// groupQueue is the global group-commit queue. The first goroutine to
// enqueue while no drain is running becomes the drainer; everyone else
// parks on their pending's done channel. Both the queue and the drainer
// hand-off are guarded by mu, so a late enqueuer either joins a batch the
// drainer is about to claim or observes the drain finished and takes over.
type groupQueue struct {
	mu       sync.Mutex
	queue    []*pending
	draining bool
}

// pending is one commit waiting in the group-commit queue, together with
// its outcome slots. The epoch that claims it closes done once the outcome
// fields are final.
type pending struct {
	c    *Commit
	done chan struct{}

	time     uint64    // assigned commit time (0 when conflicted)
	conflict *Conflict // non-nil when validation failed
	err      error     // non-nil when the epoch's WAL append failed (durable only)
	merged   bool      // absorbed a concurrent disjoint delta (cross- or intra-epoch)
	intra    bool      // the merge partner was a member of the same epoch
}

// epoch is one claimed batch on its way through the commit point: the stage
// methods below run in order — validate, fold, log and swap under the commit
// lock, release after it — and each reads what the stages before it left
// here.
type epoch struct {
	d     *Database
	batch []*pending

	// validate: the accepted members in queue order, their aggregated write
	// records, the intra-epoch conflicts still waiting for the epoch's time,
	// and its block of logical times (accepted[i] commits at first+i; the
	// swap and the log record are keyed by last).
	accepted    []*pending
	writes      map[string]writeSet
	late        []*Conflict
	first, last uint64

	// fold: the successor table of every written relation.
	install map[string]table

	// log: the WAL position of the epoch's record (durable only).
	lsn      uint64
	walBytes int64
	walErr   error
}

// drain is the epoch loop run by the goroutine that found the queue idle:
// claim every pending commit as one epoch, run it, repeat until the queue
// is empty.
func (d *Database) drain() {
	// The drainer role migrates between committer goroutines; the pprof
	// label attributes its CPU time (validation, derivation, WAL appends)
	// to the commit point regardless of which goroutine holds the role.
	pprof.Do(context.Background(), pprof.Labels("stage", "drainer"), func(context.Context) {
		self := 1 // the first epoch's first member is the drainer's own commit
		for e := d.claim(); e != nil; e = d.claim() {
			e.run()
			if len(e.batch) > self {
				// Waking a member readies it on this processor, and a drainer
				// that goes straight on to its next epoch does not park, so
				// the woken members wait behind it. On txbench durable_group
				// (8 clients, SyncAlways, 2 CPUs, 15 s runs) removing this
				// yield raised submit_p99_us from a median of 5.3 ms to
				// 13.3 ms, in 4 of 4 alternated pairs.
				runtime.Gosched()
			}
			self = 0
		}
	})
}

// claim takes the whole pending queue as one epoch, or, finding it empty,
// hands the drainer role back and returns nil.
func (d *Database) claim() *epoch {
	d.gq.mu.Lock()
	defer d.gq.mu.Unlock()
	if len(d.gq.queue) == 0 {
		d.gq.draining = false
		return nil
	}
	e := &epoch{d: d, batch: d.gq.queue}
	d.gq.queue = nil
	return e
}

// run takes a claimed epoch through validation, fold, log and swap under
// the commit lock, then releases its members.
func (e *epoch) run() {
	d := e.d
	d.commitMu.Lock()
	e.validate()
	e.fold()
	e.log()
	took := e.swap()
	d.commitMu.Unlock()

	if e.walBytes > 0 {
		d.dur.bytes.Add(e.walBytes)
		d.dur.maybeCheckpoint(d)
	}
	e.release(took)
}

// validate decides every member, in queue order, against the same view: the
// commit log past its base time, then the writes of the members accepted
// before it, which its own writes join on acceptance. The accepted members
// then take the logical times after the published snapshot's. Base times
// are always some epoch's last, so "record.Time > BaseTime" keeps selecting
// exactly the epochs a requester has not seen.
func (e *epoch) validate() {
	d, met := e.d, e.d.met
	met.epochTxns.Observe(uint64(len(e.batch)))
	var start time.Time
	if met.stageValidate != nil {
		start = time.Now()
	}
	e.writes = make(map[string]writeSet)
	e.accepted = make([]*pending, 0, len(e.batch))
	for _, p := range e.batch {
		cf := e.check(p)
		if cf == nil {
			d.emit(obs.Event{Kind: obs.EvTxnValidate, Txn: p.c.Label, OK: true})
			e.accepted = append(e.accepted, p)
			e.absorb(p.c)
			continue
		}
		p.conflict = cf
		p.merged, p.intra = false, false
		met.conflicts.Inc()
		if cf.Relation == "" {
			met.snapshotTooOld.Inc()
			d.emit(obs.Event{Kind: obs.EvSnapshotTooOld, Txn: p.c.Label, Time: cf.Time})
		}
		d.emit(obs.Event{Kind: obs.EvTxnValidate, Txn: p.c.Label, OK: false, Relation: cf.Relation, Key: cf.Key, Time: cf.Time})
	}
	if met.stageValidate != nil {
		met.stageValidate.Observe(uint64(time.Since(start)))
	}

	k := uint64(len(e.accepted))
	if k == 0 {
		return
	}
	e.first = d.snap.Load().time + 1
	e.last = e.first + k - 1
	for i, p := range e.accepted {
		p.time = e.first + uint64(i)
	}
	for _, cf := range e.late {
		cf.Time = e.last // the winning member commits within this epoch
	}
}

// check returns the conflict that rejects p, or nil, noting on p whether it
// absorbed a disjoint concurrent delta (merged) and whether the partner was
// a member of this epoch (intra). An intra-epoch conflict cannot know its
// time yet — the epoch's block is reserved once every member is decided —
// so it is queued on e.late. Callers hold the commit lock.
func (e *epoch) check(p *pending) *Conflict {
	d, c := e.d, p.c
	if len(c.Reads) == 0 {
		return nil
	}
	if d.truncated > c.BaseTime {
		// The log no longer covers the base snapshot; refuse conservatively
		// rather than risk a missed conflict.
		return &Conflict{Time: d.truncated}
	}
	// Log times ascend, so the relevant suffix starts at the first record
	// past the base time.
	unseen := sort.Search(len(d.log), func(i int) bool { return d.log[i].Time > c.BaseTime })
	for _, rec := range d.log[unseen:] {
		cf, merged := c.conflict(rec.writes)
		if cf != nil {
			cf.Time = rec.Time
			return cf
		}
		p.merged = p.merged || merged
	}
	cf, merged := c.conflict(e.writes)
	if cf != nil {
		e.late = append(e.late, cf)
		return cf
	}
	if merged {
		p.merged, p.intra = true, true
	}
	return nil
}

// absorb merges an accepted member's write set into the epoch's write
// records. Accepted members' deltas are tuple-disjoint (their written keys
// are in their read records, and check just proved those disjoint from the
// aggregate), so the per-relation record is a plain union with no
// cross-cancellation.
func (e *epoch) absorb(c *Commit) {
	for name, ins := range c.Ins {
		w := e.writes[name]
		w.ins = mergeDelta(w.ins, ins)
		e.writes[name] = w
	}
	for name, del := range c.Del {
		w := e.writes[name]
		w.del = mergeDelta(w.del, del)
		e.writes[name] = w
	}
}

// fold derives one successor table per written relation for the whole
// batch from the published snapshot. The pass is pure: nothing is visible to
// a later epoch until the WAL record has landed and the swap installed it.
func (e *epoch) fold() {
	d, met := e.d, e.d.met
	var start time.Time
	if met.stageDerive != nil {
		start = time.Now()
	}
	snap := d.snap.Load()
	e.install = make(map[string]table, len(e.writes))
	for name, w := range e.writes {
		e.install[name] = snap.tabs[name].apply(w.ins, w.del)
	}
	if met.stageDerive != nil {
		met.stageDerive.Observe(uint64(time.Since(start)))
	}
}

// log makes the epoch's writes durable and then visible to the next epoch's
// validation. Durable databases append the WAL record first (one frame,
// group-fsynced under SyncAlways) — the write-ahead point: no commit-log
// record and no installed table exists before it. A failed append aborts the
// epoch: its members fail with the error and nothing is installed, though the
// swap still uses up the epoch's times. Otherwise the write records are
// appended to the commit log.
func (e *epoch) log() {
	d, met := e.d, e.d.met
	if len(e.writes) == 0 {
		return
	}
	if d.dur != nil {
		timed := met.stageWAL != nil || d.tr != nil
		var start time.Time
		if timed {
			start = time.Now()
		}
		e.lsn, e.walBytes, e.walErr = d.dur.appendEpoch(e.last, e.writes)
		var took time.Duration
		if timed {
			took = time.Since(start)
		}
		if met.stageWAL != nil {
			met.stageWAL.Observe(uint64(took))
		}
		if e.walErr != nil {
			for _, p := range e.accepted {
				p.err = e.walErr
				p.time = 0
				p.merged, p.intra = false, false
			}
			e.install = nil
			return
		}
		d.emit(obs.Event{Kind: obs.EvWALAppend, Epoch: e.last, LSN: e.lsn, Bytes: uint64(e.walBytes), Dur: took})
	}
	d.appendLog(&Delta{Time: e.last, writes: e.writes})
}

// swap installs the whole epoch in one snapshot swap at its last time,
// stamped with its WAL position, and returns how long that took (measured
// only when a metric or the tracer reads it). An epoch that accepted nobody
// or whose WAL append failed changes no state, so it swaps nothing and the
// clock keeps counting state transitions only (Definition 2.3): the next
// epoch takes the failed one's times.
func (e *epoch) swap() (took time.Duration) {
	d, met := e.d, e.d.met
	if len(e.accepted) == 0 || e.walErr != nil {
		return 0
	}
	timed := met.stagePublish != nil || d.tr != nil
	var start time.Time
	if timed {
		start = time.Now()
	}
	next := d.snap.Load().withInstalled(e.install, e.last)
	if e.lsn != 0 {
		next.lsn = e.lsn
	}
	d.snap.Store(next)
	if timed {
		took = time.Since(start)
	}
	return took
}

// release runs after the commit lock: the counters and commit events of an
// installed epoch, the publish event with the swap's duration, then the
// wake-up of every member. A WAL-failed epoch installed nothing, so it
// counts and publishes nothing.
func (e *epoch) release(took time.Duration) {
	d, met := e.d, e.d.met
	if k := uint64(len(e.accepted)); k > 0 && e.walErr == nil {
		met.commits.Add(k)
		met.epochs.Inc()
		for _, p := range e.accepted {
			if p.merged {
				met.merged.Inc()
			}
			if p.intra {
				met.intraMerged.Inc()
			}
			d.emit(obs.Event{Kind: obs.EvTxnCommit, Txn: p.c.Label, Time: p.time, Epoch: e.last})
		}
		if met.stagePublish != nil {
			met.stagePublish.Observe(uint64(took))
		}
		d.emit(obs.Event{Kind: obs.EvEpochPublish, Epoch: e.last, N: k, Dur: took})
	}
	for _, p := range e.batch {
		close(p.done)
	}
}

// mergeDelta unions one member's delta into the aggregate. The aggregate
// aliases the first member's relation outright; a second writer clones it
// (O(1) trie share) before the in-place union, so no member's own delta is
// ever mutated.
func mergeDelta(acc, d *relation.Relation) *relation.Relation {
	if d == nil {
		return acc
	}
	if acc == nil {
		return d
	}
	m := acc.Clone()
	m.UnionInPlace(d)
	return m
}

// appendLog appends an epoch's record to the commit log and drops the
// records that fell out of the retention span. The dead prefix is cleared
// (so the dropped deltas are collectable) and sliced off rather than copied
// away: append reallocates, copying the retained window once, only when the
// capacity behind the window runs out, which makes the trim amortized O(1)
// per commit. Callers hold the commit lock.
func (d *Database) appendLog(rec *Delta) {
	d.log = append(d.log, rec)
	if rec.Time <= d.retain {
		return
	}
	cut := rec.Time - d.retain
	drop := sort.Search(len(d.log), func(i int) bool { return d.log[i].Time > cut })
	if drop > 0 {
		d.truncated = d.log[drop-1].Time
		clear(d.log[:drop])
		d.log = d.log[drop:]
	}
}
