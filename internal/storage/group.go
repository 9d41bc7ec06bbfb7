// Group commit: the epoch-batched commit point. CommitValidated does not
// validate and publish one transaction at a time — pending commits enqueue
// onto a global queue, the first enqueuer becomes the drainer, and the
// drainer claims the whole queue as one epoch.
// The epoch runs in two pipelined stages:
//
//   - Stage V (validate + derive), on the drainer, under the commit lock:
//     every member is validated first-committer-wins against the commit log
//     (cross-epoch) and then against the members accepted before it in
//     queue order (intra-epoch, at the same tuple-key / probed-key /
//     interval granularity — commuting members merge instead of retrying).
//     The accepted members' net deltas are aggregated per relation, ONE
//     successor trie instance and ONE successor of each of its indexes
//     (O(batch delta · log n) path copies) are derived per written
//     relation for the whole batch, a block of logical times is
//     reserved off the epoch clock, and one record is appended to the WAL
//     (durable databases) and then to the commit log. The derived instances
//     are parked in the shadow state (Database.latest/latestIdx) so the
//     next epoch can build on them before this one publishes.
//
//   - Stage P (publish), handed to a waiting member goroutine so the
//     drainer can start validating the next epoch immediately: wait for the
//     predecessor epoch's snapshot swap (epochs publish in clock order),
//     install the whole batch's successors in a single snapshot swap, bump
//     the counters and wake every member.
//
// Because stage V appends the epoch's log record under the commit lock
// before stage P runs, the next epoch validates against it even though the
// snapshot swap is still in flight — that is what makes the two-stage
// pipeline safe. One drainer runs at a time, so the commit lock orders
// nothing between committers; it excludes schema calls from stage V.
package storage

import (
	"context"
	"runtime/pprof"
	"sort"
	"sync"
	"time"

	"repro/internal/index"
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
// its outcome slots. The done channel carries at most one function value:
// a non-nil receive asks this member's goroutine to run the epoch's publish
// stage (pipelining); a nil receive means the outcome fields are final.
type pending struct {
	c    *Commit
	done chan func()

	time     uint64    // assigned commit time (0 when conflicted)
	conflict *Conflict // non-nil when validation failed
	err      error     // non-nil when the epoch's WAL append failed (durable only)
	merged   bool      // absorbed a concurrent disjoint delta (cross- or intra-epoch)
	intra    bool      // the merge partner was a member of the same epoch
}

// relAgg aggregates everything one epoch writes to one relation: the union
// of the accepted members' net deltas (tuple-disjoint by validation).
type relAgg struct {
	ins, del *relation.Relation
}

// drain is the epoch loop run by the goroutine that found the queue idle:
// claim every pending commit as one epoch, process it, repeat until the
// queue is empty, then hand the drainer role back. leader is the drainer's
// own pending (a member of the first epoch), which must not be chosen as a
// publish delegate — it is busy draining.
func (d *Database) drain(leader *pending) {
	// The drainer role migrates between committer goroutines; the pprof
	// label attributes its CPU time (validation, derivation, WAL appends)
	// to the pipeline stage regardless of which goroutine holds the role.
	pprof.Do(context.Background(), pprof.Labels("stage", "drainer"), func(context.Context) {
		for {
			d.gq.mu.Lock()
			batch := d.gq.queue
			if len(batch) == 0 {
				d.gq.draining = false
				d.gq.mu.Unlock()
				return
			}
			d.gq.queue = nil
			d.gq.mu.Unlock()
			d.processEpoch(batch, leader)
		}
	})
}

// processEpoch runs stage V for one batch and hands stage P to a member.
func (d *Database) processEpoch(batch []*pending, leader *pending) {
	d.commitMu.Lock()

	// Every member is validated against the same published snapshot; the
	// shadow state overrides it with the successors of epochs that are
	// derived but not yet swapped in.
	met, tr := d.met, d.tr
	met.epochTxns.Observe(uint64(len(batch)))
	var tValidate time.Time
	if met.stageValidate != nil {
		tValidate = time.Now()
	}
	snap := d.snap.Load()
	agg := make(map[string]*relAgg)
	accepted := make([]*pending, 0, len(batch))
	var lateConflicts []*Conflict
	for _, p := range batch {
		cf := d.validateLog(p.c, &p.merged)
		if cf == nil {
			if cf = p.validateIntra(agg); cf != nil {
				lateConflicts = append(lateConflicts, cf)
			}
		}
		if cf != nil {
			p.conflict = cf
			p.merged, p.intra = false, false
			met.conflicts.Inc()
			if cf.Relation == "" {
				// validateLog refused the stale base outright.
				met.snapshotTooOld.Inc()
				if tr != nil {
					tr.Event(obs.Event{Kind: obs.EvSnapshotTooOld, Txn: p.c.Label, Time: cf.Time})
				}
			}
			if tr != nil {
				tr.Event(obs.Event{Kind: obs.EvTxnValidate, Txn: p.c.Label, OK: false, Relation: cf.Relation, Key: cf.Key, Time: cf.Time})
			}
			continue
		}
		if tr != nil {
			tr.Event(obs.Event{Kind: obs.EvTxnValidate, Txn: p.c.Label, OK: true})
		}
		accepted = append(accepted, p)
		p.foldWrites(agg)
	}
	if met.stageValidate != nil {
		met.stageValidate.Observe(uint64(time.Since(tValidate)))
	}

	// Reserve a contiguous block of logical times: member i of the epoch
	// commits at first+i, the snapshot swap lands at last, and the epoch's
	// single log record is keyed by last. Base times are always some
	// epoch's last, so "record.Time > BaseTime" keeps selecting exactly the
	// epochs the requester has not seen.
	k := uint64(len(accepted))
	var first, last uint64
	if k > 0 {
		last = d.clock.Add(k)
		first = last - k + 1
		for i, p := range accepted {
			p.time = first + uint64(i)
		}
		for _, cf := range lateConflicts {
			cf.Time = last // the winning member commits within this epoch
		}
		met.inflight.Add(1) // derived-but-unpublished from here to the swap
	}

	// Derive one successor instance and one successor index set per written
	// relation for the whole batch, from the shadow state when a prior
	// unpublished epoch wrote the relation, from the snapshot otherwise.
	// This pass is pure — the shadow state is only written after the WAL
	// record lands, so a failed append leaves nothing for later epochs to
	// build on.
	var tDerive time.Time
	if met.stageDerive != nil {
		tDerive = time.Now()
	}
	install := make(map[string]*relation.Relation, len(agg))
	var derived map[string]*index.Set
	var recIns, recDel map[string]*relation.Relation
	for name, a := range agg {
		base, baseIdx := d.latest[name], d.latestIdx[name]
		if base == nil {
			base = snap.rels[name]
		}
		if baseIdx == nil {
			baseIdx = snap.idx[name]
		}
		succ := base.Clone()
		if a.del != nil {
			succ.DiffInPlace(a.del.Seal())
			if recDel == nil {
				recDel = make(map[string]*relation.Relation, len(agg))
			}
			recDel[name] = a.del
		}
		if a.ins != nil {
			succ.UnionInPlace(a.ins.Seal())
			if recIns == nil {
				recIns = make(map[string]*relation.Relation, len(agg))
			}
			recIns[name] = a.ins
		}
		install[name] = succ.Seal()
		if baseIdx.Len() == 0 {
			continue
		}
		if derived == nil {
			derived = make(map[string]*index.Set, len(agg))
		}
		derived[name] = baseIdx.Apply(a.ins, a.del)
	}
	if met.stageDerive != nil {
		met.stageDerive.Observe(uint64(time.Since(tDerive)))
	}

	// Durable: append the epoch's WAL record (one frame, group-fsynced
	// under SyncAlways) before any shadow state or commit-log record
	// exists — the write-ahead point. A failed append aborts the epoch: the
	// reserved times still publish (as an empty install, keeping the swap
	// clock contiguous) but the members fail with the error.
	var walErr error
	var recLSN uint64
	var walBytes int64
	if k > 0 && len(agg) > 0 && d.dur != nil {
		var tWAL time.Time
		if met.stageWAL != nil || tr != nil {
			tWAL = time.Now()
		}
		recLSN, walBytes, walErr = d.dur.appendEpoch(last, recIns, recDel)
		var dWAL time.Duration
		if met.stageWAL != nil || tr != nil {
			dWAL = time.Since(tWAL)
		}
		if met.stageWAL != nil {
			met.stageWAL.Observe(uint64(dWAL))
		}
		if walErr == nil && tr != nil {
			tr.Event(obs.Event{Kind: obs.EvWALAppend, Epoch: last, LSN: recLSN, Bytes: uint64(walBytes), Dur: dWAL})
		}
	}

	if walErr == nil && len(agg) > 0 {
		// Park the derived instances in the shadow state and append the
		// epoch's commit-log record, still under the commit lock, so the
		// next epoch validates against it before this one publishes.
		if d.latest == nil {
			d.latest = make(map[string]*relation.Relation)
		}
		for name, inst := range install {
			d.latest[name] = inst
		}
		if derived != nil && d.latestIdx == nil {
			d.latestIdx = make(map[string]*index.Set)
		}
		for name, set := range derived {
			d.latestIdx[name] = set
		}
		d.appendLog(&Delta{Time: last, Ins: recIns, Del: recDel})
	}

	d.commitMu.Unlock()

	if walErr != nil {
		for _, p := range accepted {
			p.err = walErr
			p.time = 0
			p.merged, p.intra = false, false
		}
		install, derived, recLSN = nil, nil, 0
	}
	if d.dur != nil && walBytes > 0 && walErr == nil {
		d.dur.bytes.Add(walBytes)
		d.dur.maybeCheckpoint(d)
	}

	// Stage P: one snapshot swap for the whole epoch, in clock order. A
	// WAL-failed epoch still swaps (an empty install at its reserved time)
	// so the publish clock stays contiguous, but installs nothing and
	// counts nothing.
	publish := func() {
		if k > 0 {
			var tPublish time.Time
			if met.stagePublish != nil || tr != nil {
				tPublish = time.Now()
			}
			d.pubMu.Lock()
			for d.snap.Load().time != first-1 {
				d.pubCond.Wait()
			}
			cur := d.snap.Load()
			next := cur.withInstalled(install, last, derived)
			if recLSN != 0 {
				next.lsn = recLSN
			}
			d.snap.Store(next)
			d.pubCond.Broadcast()
			d.pubMu.Unlock()
			met.inflight.Add(-1)
			if walErr == nil {
				met.commits.Add(k)
				met.epochs.Inc()
				for _, p := range accepted {
					if p.merged {
						met.merged.Inc()
					}
					if p.intra {
						met.intraMerged.Inc()
					}
					if tr != nil {
						tr.Event(obs.Event{Kind: obs.EvTxnCommit, Txn: p.c.Label, Time: p.time, Epoch: last})
					}
				}
			}
			var dPublish time.Duration
			if met.stagePublish != nil || tr != nil {
				dPublish = time.Since(tPublish)
			}
			if met.stagePublish != nil {
				met.stagePublish.Observe(uint64(dPublish))
			}
			if tr != nil {
				tr.Event(obs.Event{Kind: obs.EvEpochPublish, Epoch: last, N: k, Dur: dPublish})
			}
		}
		for _, p := range batch {
			p.done <- nil
		}
	}

	// Pipeline: delegate the publish to a member that is already parked
	// waiting for its outcome, so the drainer can validate the next epoch
	// while this one swaps in. The drainer's own pending never delegates —
	// it is running this very loop — so a drainer-only batch publishes
	// inline.
	for _, p := range batch {
		if p != leader {
			p.done <- publish
			return
		}
	}
	publish()
}

// validateIntra validates this member against the writes already accepted
// into the epoch, in queue order, at the same granularity as cross-epoch
// validation: a whole-relation read conflicts with any co-writer, a
// keyed/probed/interval read conflicts only when the aggregated epoch delta
// overlaps it, and a disjoint co-write merges (the epoch's shared successor
// carries both deltas). The returned conflict's
// Time is patched to the epoch's last reserved time by the caller.
func (p *pending) validateIntra(agg map[string]*relAgg) *Conflict {
	for name, ri := range p.c.Reads {
		a := agg[name]
		if a == nil {
			continue
		}
		if ri.Full {
			return &Conflict{Relation: name}
		}
		if key := ri.overlapKey(a.ins, a.del); key != "" {
			return &Conflict{Relation: name, Key: key}
		}
		if p.c.writes(name) {
			p.merged, p.intra = true, true
		}
	}
	return nil
}

// foldWrites merges an accepted member's write set into the epoch
// aggregate. Accepted members' deltas are tuple-disjoint (their written
// keys are in their read records, and validateIntra just proved those
// disjoint from the aggregate), so the per-relation aggregate is a plain
// union with no cross-cancellation. The single-writer case — by far the
// common one — reuses the member's delta relations without copying.
func (p *pending) foldWrites(agg map[string]*relAgg) {
	fold := func(name string) *relAgg {
		a := agg[name]
		if a == nil {
			a = &relAgg{}
			agg[name] = a
		}
		return a
	}
	for name, ins := range p.c.Ins {
		a := fold(name)
		a.ins = mergeDelta(a.ins, ins)
	}
	for name, del := range p.c.Del {
		a := fold(name)
		a.del = mergeDelta(a.del, del)
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
