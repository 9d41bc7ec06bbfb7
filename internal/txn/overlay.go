package txn

import (
	"fmt"
	"slices"

	"repro/internal/algebra"
	"repro/internal/index"
	"repro/internal/obs"
	"repro/internal/relation"
	"repro/internal/storage"
	"repro/internal/value"
)

// Overlay is the transaction-local view of the database: a copy-on-write
// working state over the pre-transaction state, plus temp relations and the
// maintained differential relations (net inserted / net deleted tuples per
// base relation). It implements algebra.ExecEnv.
//
// The overlay is pinned to the database snapshot it was created from: every
// base-relation read resolves against that snapshot for the overlay's whole
// life, so a transaction sees one consistent state regardless of concurrent
// commits (snapshot isolation). The overlay also records its read set at the
// finest granularity it can prove, for the tuple-granular first-committer-
// wins validation in the commit sequencer:
//
//   - materializing the current or pre-transaction instance of a base
//     relation (Rel with AuxCur/AuxOld) is a whole-relation read — the
//     expression may have depended on any tuple;
//   - inserting or deleting a tuple is a keyed read: the statement observed
//     only the presence or absence of that exact tuple (set semantics), so
//     just its canonical key is recorded;
//   - probing a secondary index (algebra.ProbeEnv, used for selections,
//     updates and the non-delta side of joins) is a probe read on the
//     probed columns: an equality on a leading prefix of the index columns
//     records a point (the prefix key) on that prefix, and a bound on the
//     next column records half-open intervals on the prefix plus that
//     column. The expression observed exactly the tuples projecting onto
//     the point or into an interval — including the absence of any — so
//     the validator conflicts only with concurrent deltas whose tuples do;
//   - reading ins(R)/del(R) (AuxIns/AuxDel) touches transaction-local
//     differentials only and records no base read at all — their content is
//     fully determined by the transaction's own statements plus the keyed
//     reads already recorded.
//
// Differential maintenance follows the delete-before-insert cancellation
// discipline: re-inserting a tuple deleted earlier in the same transaction
// removes it from the delete delta rather than adding it to the insert
// delta, so ins(R) and del(R) always describe the net transition from the
// pre-transaction state to the current working state.
type Overlay struct {
	base *storage.Snapshot
	// working holds materialized current instances, created lazily: writes
	// maintain only the ins/del differentials, and the full working state of
	// a relation is assembled (base ⊖ del ⊕ ins, an O(1) trie clone plus
	// O(delta) path copies) the first time Rel(cur) actually needs it. A
	// write-only transaction never materializes anything.
	working map[string]*relation.Relation
	ins     map[string]*relation.Relation
	del     map[string]*relation.Relation
	temps   map[string]*relation.Relation
	reads   map[string]*storage.ReadInfo
	stats   *Stats
	// met/tr are the engine-wide metric handles and tracer inherited from
	// the database (nullTxnMetrics / nil for NewOverlayAt); label tags the
	// overlay's trace events with the transaction's label.
	met   *txnMetrics
	tr    obs.Tracer
	label string
}

// NewOverlay creates a fresh overlay pinned to the current snapshot of db,
// inheriting the database's metrics registry and tracer.
func NewOverlay(db *storage.Database) *Overlay {
	ov := NewOverlayAt(db.Snapshot())
	ov.met = metricsOf(db)
	ov.tr = db.Tracer()
	return ov
}

// NewOverlayAt creates a fresh overlay pinned to the given snapshot. A bare
// snapshot carries no registry, so the overlay is uninstrumented.
func NewOverlayAt(snap *storage.Snapshot) *Overlay {
	return &Overlay{
		base:    snap,
		working: make(map[string]*relation.Relation),
		ins:     make(map[string]*relation.Relation),
		del:     make(map[string]*relation.Relation),
		temps:   make(map[string]*relation.Relation),
		reads:   make(map[string]*storage.ReadInfo),
		stats:   &Stats{},
		met:     nullTxnMetrics,
	}
}

// SetLabel tags the overlay's trace events and commit record with the
// transaction's label.
func (o *Overlay) SetLabel(label string) { o.label = label }

// Base returns the snapshot the overlay is pinned to.
func (o *Overlay) Base() *storage.Snapshot { return o.base }

// ReadSet returns the names of the base relations the transaction touched in
// any granularity, as a fresh map.
func (o *Overlay) ReadSet() map[string]bool {
	out := make(map[string]bool, len(o.reads))
	for name := range o.reads {
		out[name] = true
	}
	return out
}

// Reads returns the recorded per-relation read information. The map and its
// entries are live; callers must not mutate them.
func (o *Overlay) Reads() map[string]*storage.ReadInfo { return o.reads }

// readInfo returns the (created-on-demand) read record for a relation.
func (o *Overlay) readInfo(name string) *storage.ReadInfo {
	ri, ok := o.reads[name]
	if !ok {
		ri = &storage.ReadInfo{}
		o.reads[name] = ri
	}
	return ri
}

// markFullRead records a whole-relation read of a base relation. The
// full-scan counter and scan event fire once per (transaction, relation) —
// on the transition to Full, not on every re-read.
func (o *Overlay) markFullRead(name string) {
	ri := o.readInfo(name)
	if ri.Full {
		return
	}
	ri.Full = true
	ri.Keys = nil
	ri.Probes = nil
	o.met.fullScans.Inc()
	if o.tr != nil {
		o.tr.Event(obs.Event{Kind: obs.EvTxnScan, Txn: o.label, Relation: name})
	}
}

// markKeyRead records a keyed read (tuple-presence observation) of a base
// relation; subsumed by an earlier or later full read.
func (o *Overlay) markKeyRead(name, key string) {
	ri := o.readInfo(name)
	if ri.Full {
		return
	}
	if ri.Keys == nil {
		ri.Keys = make(map[string]bool)
	}
	ri.Keys[key] = true
}

// probeRead returns the probe record of a base relation on the given column
// list, created on demand, or nil when an earlier full read subsumes it.
func (o *Overlay) probeRead(name string, cols []int) *storage.ProbeRead {
	ri := o.readInfo(name)
	if ri.Full {
		return nil
	}
	for _, pr := range ri.Probes {
		if slices.Equal(pr.Cols, cols) {
			return pr
		}
	}
	if ri.Probes == nil {
		ri.Probes = make(map[string]*storage.ProbeRead)
	}
	pr := &storage.ProbeRead{Cols: slices.Clone(cols)}
	ri.Probes[index.Sig(cols)] = pr
	return pr
}

// IndexFor implements algebra.ProbeEnv over the pinned snapshot's indexes
// (index.Set.For). Only the current and pre-transaction incarnations are
// indexed; the transaction-local differentials are small and carry no
// base-read dependency.
func (o *Overlay) IndexFor(name string, aux algebra.AuxKind, eqCols []int, boundCol int) ([]int, int, int, bool) {
	if aux != algebra.AuxCur && aux != algebra.AuxOld {
		return nil, 0, 0, false
	}
	x, prefix := o.base.IndexSet(name).For(eqCols, boundCol)
	if x == nil {
		return nil, 0, 0, false
	}
	size := x.Len()
	if aux == algebra.AuxCur {
		if w, ok := o.working[name]; ok {
			size = w.Len()
		} else {
			if di := o.ins[name]; di != nil {
				size += di.Len()
			}
			if dd := o.del[name]; dd != nil {
				size -= dd.Len()
			}
		}
	}
	return x.Cols(), prefix, size, true
}

// Probe implements algebra.ProbeEnv: it answers an index probe against the
// pinned snapshot, overlays the transaction's own net deltas for the
// current incarnation (the snapshot index cannot see uncommitted writes),
// and records a point or interval read instead of a full-relation read.
// An equality on all index columns or a leading prefix of them walks the
// keys that extend the prefix key (Index.Probe).
func (o *Overlay) Probe(name string, aux algebra.AuxKind, idx []int, vals []value.Value, bound *algebra.RangeBound) ([]relation.Tuple, error) {
	x := o.base.IndexSet(name).Exact(idx)
	n := len(vals)
	if bound != nil {
		n++
	}
	if x == nil || n > len(idx) {
		return nil, fmt.Errorf("txn: no index %s(%s) to probe", name, index.Sig(idx))
	}
	cols := idx[:n]
	pr := o.probeRead(name, cols)
	var out []relation.Tuple
	var key string
	var ranges []index.KeyRange
	if bound == nil {
		key = index.KeyVals(vals)
		if pr != nil {
			if pr.Keys == nil {
				pr.Keys = make(map[string]bool)
			}
			pr.Keys[key] = true
		}
		o.stats.IndexProbes++
		o.met.probes.Inc()
		if o.tr != nil {
			o.tr.Event(obs.Event{Kind: obs.EvTxnProbe, Txn: o.label, Relation: name, N: 1})
		}
		out = x.Probe(key)
	} else {
		ranges = index.RangesFor(vals, bound.Kind, bound.Lo, bound.Hi, bound.LoIncl, bound.HiIncl,
			bound.IncludeNull, bound.IncludeNaN)
		if pr != nil {
			pr.Ranges = append(pr.Ranges, ranges...)
		}
		o.stats.RangeProbes++
		o.met.rangeProbes.Inc()
		if o.tr != nil {
			o.tr.Event(obs.Event{Kind: obs.EvTxnRangeProbe, Txn: o.label, Relation: name, N: uint64(len(ranges))})
		}
		for _, kr := range ranges {
			out = append(out, x.Range(kr)...)
		}
	}
	if aux != algebra.AuxCur {
		return out, nil // old(R) is exactly the pinned snapshot
	}
	out = o.filterOwnDeletes(name, out)
	if di := o.ins[name]; di != nil && !di.IsEmpty() {
		var buf []byte
		_ = di.ForEach(func(t relation.Tuple) error {
			buf = t.AppendKeyOn(buf[:0], cols)
			if bound == nil {
				if string(buf) == key {
					out = append(out, t)
				}
				return nil
			}
			for _, kr := range ranges {
				if kr.Lo <= string(buf) && string(buf) < kr.Hi {
					out = append(out, t)
					return nil
				}
			}
			return nil
		})
	}
	return out, nil
}

// filterOwnDeletes drops probed snapshot tuples the transaction has itself
// deleted. It filters in place: index probes hand out slices of their own.
func (o *Overlay) filterOwnDeletes(name string, out []relation.Tuple) []relation.Tuple {
	dd := o.del[name]
	if dd == nil || dd.IsEmpty() {
		return out
	}
	kept := out[:0]
	var buf []byte
	for _, t := range out {
		var deleted bool
		if buf, deleted = dd.ContainsBuf(buf, t); !deleted {
			kept = append(kept, t)
		}
	}
	return kept
}

// Rel implements algebra.Env.
func (o *Overlay) Rel(name string, aux algebra.AuxKind) (*relation.Relation, error) {
	switch aux {
	case algebra.AuxCur:
		o.markFullRead(name)
		return o.materialize(name)
	case algebra.AuxOld:
		o.markFullRead(name)
		return o.base.Relation(name) // the pinned snapshot is D^t
	case algebra.AuxIns:
		return o.delta(o.ins, name)
	case algebra.AuxDel:
		return o.delta(o.del, name)
	default:
		return nil, fmt.Errorf("txn: unknown auxiliary kind %v", aux)
	}
}

func (o *Overlay) delta(m map[string]*relation.Relation, name string) (*relation.Relation, error) {
	if d, ok := m[name]; ok {
		return d, nil
	}
	base, err := o.base.Relation(name)
	if err != nil {
		return nil, err
	}
	d := relation.New(base.Schema())
	m[name] = d
	return d, nil
}

// Temp implements algebra.Env.
func (o *Overlay) Temp(name string) (*relation.Relation, error) {
	if t, ok := o.temps[name]; ok {
		return t, nil
	}
	return nil, fmt.Errorf("txn: unknown temporary relation %q", name)
}

// SetTemp implements algebra.ExecEnv.
func (o *Overlay) SetTemp(name string, r *relation.Relation) error {
	o.temps[name] = r
	return nil
}

// materialize returns the current working instance of a base relation: the
// already-materialized copy, the sealed snapshot instance itself when the
// transaction has no net delta on it, or a freshly assembled base ⊖ del ⊕
// ins — an O(1) structural clone plus O(delta) path copies, cached so later
// writes can keep it maintained incrementally. There is no eager per-tuple
// copy anywhere on the write path.
func (o *Overlay) materialize(name string) (*relation.Relation, error) {
	if w, ok := o.working[name]; ok {
		return w, nil
	}
	base, err := o.base.Relation(name)
	if err != nil {
		return nil, err
	}
	di, dd := o.ins[name], o.del[name]
	if (di == nil || di.IsEmpty()) && (dd == nil || dd.IsEmpty()) {
		return base, nil // untouched: the sealed snapshot instance serves reads
	}
	w := base.Clone()
	if dd != nil {
		w.DiffInPlace(dd)
	}
	if di != nil {
		w.UnionInPlace(di)
	}
	o.working[name] = w
	return w, nil
}

// mutationState resolves everything one insert/delete statement needs: the
// pinned base instance, both differentials, the working instance if one was
// materialized, and a safe-to-iterate src. A statement's source expression
// may evaluate to the very relation the mutation is about to change —
// delete(R, R), insert(R, del(R)) — and the trie forbids mutating a map
// while ranging over it (the old Go-map backing happened to tolerate it),
// so an aliasing src is detached by an O(1) structural clone first.
func (o *Overlay) mutationState(rel string, src *relation.Relation) (base, w, insD, delD, safeSrc *relation.Relation, err error) {
	base, err = o.base.Relation(rel)
	if err != nil {
		return nil, nil, nil, nil, nil, err
	}
	insD, err = o.delta(o.ins, rel)
	if err != nil {
		return nil, nil, nil, nil, nil, err
	}
	delD, err = o.delta(o.del, rel)
	if err != nil {
		return nil, nil, nil, nil, nil, err
	}
	w = o.working[rel] // maintained only if already materialized
	if src == w || src == insD || src == delD {
		src = src.Clone()
	}
	return base, w, insD, delD, src, nil
}

// present reports membership of the canonical key k in the current working
// state: the materialized instance answers directly, otherwise deleted keys
// are absent, inserted keys present, and everything else defers to the
// pinned base instance.
func present(base, w, insD, delD *relation.Relation, k string) bool {
	if w != nil {
		return w.ContainsKey(k)
	}
	return !delD.ContainsKey(k) && (insD.ContainsKey(k) || base.ContainsKey(k))
}

// InsertTuples implements algebra.ExecEnv.
func (o *Overlay) InsertTuples(rel string, src *relation.Relation) error {
	base, w, insD, delD, src, err := o.mutationState(rel, src)
	if err != nil {
		return err
	}
	arity := base.Schema().Arity()
	return src.ForEach(func(t relation.Tuple) error {
		if len(t) != arity {
			return fmt.Errorf("txn: insert into %s: tuple arity %d, want %d", rel, len(t), arity)
		}
		k := t.Key()
		o.markKeyRead(rel, k)
		if present(base, w, insD, delD, k) {
			return nil // set semantics: duplicate insert is a no-op
		}
		if w != nil {
			w.InsertKeyed(k, t)
		}
		o.stats.TuplesInserted++
		if delD.ContainsKey(k) {
			delD.DeleteKey(k) // cancelled a prior delete: net no-op
		} else {
			insD.InsertKeyed(k, t)
		}
		return nil
	})
}

// DeleteTuples implements algebra.ExecEnv.
func (o *Overlay) DeleteTuples(rel string, src *relation.Relation) error {
	base, w, insD, delD, src, err := o.mutationState(rel, src)
	if err != nil {
		return err
	}
	return src.ForEach(func(t relation.Tuple) error {
		k := t.Key()
		o.markKeyRead(rel, k)
		if !present(base, w, insD, delD, k) {
			return nil // deleting an absent tuple is a no-op
		}
		if w != nil {
			w.DeleteKey(k)
		}
		o.stats.TuplesDeleted++
		if insD.ContainsKey(k) {
			insD.DeleteKey(k) // cancelled a prior insert: net no-op
		} else {
			delD.InsertKeyed(k, t)
		}
		return nil
	})
}

// CommitRecord packages the overlay's outcome for CommitValidated: base
// time, per-relation read records, and the non-empty net differentials
// serving as write set — the store derives each successor instance from the
// latest sealed trie plus the ins/del delta. Relations whose deltas
// cancelled to nothing are dropped: their working state equals the snapshot
// instance, so naming them would only cause spurious conflicts for others.
func (o *Overlay) CommitRecord() storage.Commit {
	nonEmpty := func(side map[string]*relation.Relation) map[string]*relation.Relation {
		out := make(map[string]*relation.Relation, len(side))
		for name, r := range side {
			if r != nil && !r.IsEmpty() {
				out[name] = r
			}
		}
		return out
	}
	ins, del := nonEmpty(o.ins), nonEmpty(o.del)
	if o.met.readRelations != nil {
		o.met.readRelations.Observe(uint64(len(o.reads)))
		var keys uint64
		for _, ri := range o.reads {
			keys += uint64(len(ri.Keys))
			for _, pr := range ri.Probes {
				keys += uint64(len(pr.Keys) + len(pr.Ranges))
			}
		}
		o.met.readKeys.Observe(keys)
	}
	o.met.tuplesIns.Add(uint64(o.stats.TuplesInserted))
	o.met.tuplesDel.Add(uint64(o.stats.TuplesDeleted))
	return storage.Commit{
		BaseTime: o.base.Time(),
		Reads:    o.reads,
		Ins:      ins,
		Del:      del,
		Label:    o.label,
	}
}

// Stats returns the mutation counters accumulated so far.
func (o *Overlay) Stats() *Stats { return o.stats }
