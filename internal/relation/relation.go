// Package relation implements relation instances with set semantics
// (Definition 2.1): deduplicated collections of tuples over a relation
// schema. Relations are the unit of data the algebra evaluator, the storage
// layer and the fragmentation layer all exchange.
//
// # Persistent representation
//
// An instance is backed by a persistent hash-array-mapped trie (package
// pmap) keyed by canonical tuple keys, not by a Go map. The trie is what
// makes the engine's write path O(delta) end to end:
//
//   - Clone is O(1). It shares the whole trie with the receiver; the copy
//     only materializes — node by node, along the touched root-to-leaf
//     paths — as either side mutates. A transaction's working copy of a
//     100k-tuple relation therefore costs nothing to create and O(log n)
//     per written tuple, instead of the former O(n) up-front clone.
//   - Commits share structure. The storage layer derives the successor
//     sealed instance from the predecessor plus the transaction's net
//     ins/del delta, so consecutive database snapshots share all unchanged
//     subtrees, as the secondary indexes' trees do (package index).
//
// # Seal semantics
//
// A relation starts mutable; Seal freezes it permanently (mutations panic).
// Sealed instances are the unit of copy-on-write sharing in the storage
// layer: a committed snapshot holds only sealed instances, handed to any
// number of concurrent readers without copying or locking. Writers Clone
// first — O(1) — and mutate their private copy; the persistent trie
// guarantees the sealed original can never observe those writes. Mutable
// relations are single-goroutine, like Go maps.
package relation

import (
	"cmp"
	"fmt"
	"sort"
	"strings"
	"sync/atomic"

	"repro/internal/pmap"
	"repro/internal/schema"
	"repro/internal/value"
)

// Tuple is an ordered list of values conforming to a relation schema.
type Tuple []value.Value

// Footprint reports the measured resident size of the tuple's backing
// array and string payloads in bytes (the slice header itself is counted
// by whatever structure holds the tuple).
func (t Tuple) Footprint() int64 {
	var size int64
	for _, v := range t {
		size += v.Footprint()
	}
	return size
}

// Key returns the canonical byte-string identity of the tuple: the
// concatenated key encodings (value.AppendOrderedKey) of its values. Two
// tuples have equal keys iff they are equal as set elements, and keys sort
// like the tuples do, column by column.
func (t Tuple) Key() string {
	buf := make([]byte, 0, 16*len(t))
	for _, v := range t {
		buf = v.AppendOrderedKey(buf)
	}
	return string(buf)
}

// CompareKey orders t against o, column by column under value.CompareKey
// and then by arity: the sign of strings.Compare(t.Key(), o.Key()), without
// building either key.
func (t Tuple) CompareKey(o Tuple) int {
	for i := 0; i < len(t) && i < len(o); i++ {
		if c := t[i].CompareKey(o[i]); c != 0 {
			return c
		}
	}
	return cmp.Compare(len(t), len(o))
}

// KeyOn returns the key of the projection of t onto the given column
// positions, in the given order — Key of that projection. It is the key of
// secondary index entries and probes (package index), of hash-join builds
// and probes, of the transaction overlay's probed-key and interval read
// records, and of the commit validator that intersects those records with
// committed deltas: two tuples collide on an index iff their KeyOn the index
// columns are equal, and byte order is the order of the projected values, so
// interval membership of an encoded key is interval membership of the tuple.
func (t Tuple) KeyOn(cols []int) string {
	return string(t.AppendKeyOn(nil, cols))
}

// AppendKeyOn appends the KeyOn encoding to buf and returns it. Hot
// per-tuple paths (index maintenance, the hash-join build/probe loop) reuse
// one buffer across tuples and look maps up via the compiler's alloc-free
// map[string(buf)] form instead of materializing a string per tuple.
func (t Tuple) AppendKeyOn(buf []byte, cols []int) []byte {
	if buf == nil {
		buf = make([]byte, 0, 16*len(cols))
	}
	for _, c := range cols {
		buf = t[c].AppendOrderedKey(buf)
	}
	return buf
}

// Equal reports element-wise equality.
func (t Tuple) Equal(o Tuple) bool {
	if len(t) != len(o) {
		return false
	}
	for i := range t {
		if !t[i].Equal(o[i]) {
			return false
		}
	}
	return true
}

// Clone returns an independent copy of the tuple.
func (t Tuple) Clone() Tuple {
	c := make(Tuple, len(t))
	copy(c, t)
	return c
}

// Concat returns the concatenation t ++ o as a new tuple.
func (t Tuple) Concat(o Tuple) Tuple {
	c := make(Tuple, 0, len(t)+len(o))
	c = append(c, t...)
	return append(c, o...)
}

// String renders the tuple as "(v1, v2, ...)".
func (t Tuple) String() string {
	var sb strings.Builder
	sb.WriteByte('(')
	for i, v := range t {
		if i > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString(v.String())
	}
	sb.WriteByte(')')
	return sb.String()
}

// Less orders tuples lexicographically by value.Sort; used for deterministic
// display and test assertions.
func (t Tuple) Less(o Tuple) bool {
	n := len(t)
	if len(o) < n {
		n = len(o)
	}
	for i := 0; i < n; i++ {
		if c := value.Sort(t[i], o[i]); c != 0 {
			return c < 0
		}
	}
	return len(t) < len(o)
}

// Relation is a set of tuples over a schema, backed by a persistent trie
// (see the package documentation for the sharing and seal semantics). The
// zero value is not usable; construct with New.
type Relation struct {
	schema *schema.Relation
	tuples *pmap.Map[Tuple]
	sealed bool
	// scan memoizes the full-scan tuple order of a sealed instance: the
	// first complete ForEach flattens the trie into a contiguous slice and
	// publishes it, so the repeated whole-relation scans of hot, rarely
	// written relations (enforcement joins without a covering index) iterate
	// cache-friendly storage instead of re-walking trie nodes. Sealed
	// instances are immutable, so the memo can never go stale; concurrent
	// builders publish equivalent slices and the last store wins.
	scan atomic.Pointer[[]Tuple]
}

// New returns an empty relation instance of the given schema.
func New(s *schema.Relation) *Relation {
	return &Relation{schema: s, tuples: pmap.New[Tuple]()}
}

// FromTuples builds a relation from the given tuples, deduplicating. Tuples
// whose arity does not match the schema are rejected.
func FromTuples(s *schema.Relation, tuples ...Tuple) (*Relation, error) {
	r := New(s)
	for _, t := range tuples {
		if err := r.Insert(t); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// MustFromTuples is FromTuples that panics on error; for tests and examples.
func MustFromTuples(s *schema.Relation, tuples ...Tuple) *Relation {
	r, err := FromTuples(s, tuples...)
	if err != nil {
		panic(err)
	}
	return r
}

// Schema returns the relation's schema.
func (r *Relation) Schema() *schema.Relation { return r.schema }

// Seal marks the relation immutable and returns it. Any later mutation
// panics: sealed instances are shared between database snapshots, and a
// write through a stale pointer would corrupt every state that shares the
// instance. Sealing is idempotent AND write-free on an already-sealed
// instance, so re-sealing may race with concurrent readers (and Clones) of
// a sealed relation; Clone of a sealed relation is mutable.
func (r *Relation) Seal() *Relation {
	if !r.sealed {
		r.sealed = true
		r.tuples.Freeze()
	}
	return r
}

// Sealed reports whether the relation has been frozen by Seal.
func (r *Relation) Sealed() bool { return r.sealed }

func (r *Relation) checkMutable() {
	if r.sealed {
		panic(fmt.Sprintf("relation %s: mutation of sealed (committed) instance", r.schema.Name))
	}
}

// Len returns the cardinality of the relation.
func (r *Relation) Len() int { return r.tuples.Len() }

// IsEmpty reports whether the relation has no tuples.
func (r *Relation) IsEmpty() bool { return r.tuples.Len() == 0 }

// Insert adds t to the set; inserting a duplicate is a silent no-op per set
// semantics. The tuple arity must match the schema.
func (r *Relation) Insert(t Tuple) error {
	r.checkMutable()
	if len(t) != r.schema.Arity() {
		return fmt.Errorf("relation %s: tuple arity %d, want %d", r.schema.Name, len(t), r.schema.Arity())
	}
	r.tuples.Set(t.Key(), t)
	return nil
}

// InsertUnchecked adds t without arity validation; for internal operators
// that construct tuples of a known shape.
func (r *Relation) InsertUnchecked(t Tuple) {
	r.checkMutable()
	r.tuples.Set(t.Key(), t)
}

// Delete removes t from the set, reporting whether it was present.
func (r *Relation) Delete(t Tuple) bool {
	r.checkMutable()
	return r.tuples.Delete(t.Key())
}

// Contains reports set membership of t.
func (r *Relation) Contains(t Tuple) bool {
	return r.tuples.Has(t.Key())
}

// ContainsKey reports membership by canonical tuple key (Tuple.Key); it lets
// callers that already computed the key — the transaction overlay recording
// its read set, the commit validator intersecting deltas — probe without
// re-encoding the tuple.
func (r *Relation) ContainsKey(k string) bool {
	return r.tuples.Has(k)
}

// InsertKeyed adds t under its precomputed canonical key, skipping arity
// validation and key re-encoding; k must equal t.Key().
func (r *Relation) InsertKeyed(k string, t Tuple) {
	r.checkMutable()
	r.tuples.Set(k, t)
}

// DeleteKey removes the tuple with the given canonical key, reporting
// whether it was present.
func (r *Relation) DeleteKey(k string) bool {
	r.checkMutable()
	return r.tuples.Delete(k)
}

// ForEachKey invokes fn for every tuple together with its canonical key;
// iteration stops early if fn returns a non-nil error, which is propagated.
// Iteration order is unspecified. The relation must not be mutated during
// the iteration.
func (r *Relation) ForEachKey(fn func(key string, t Tuple) error) error {
	return r.tuples.Range(fn)
}

// ForEach invokes fn for every tuple; iteration stops early if fn returns a
// non-nil error, which is propagated. Iteration order is unspecified. The
// relation must not be mutated during the iteration (sealed instances
// cannot be, and additionally memoize their scan order — see Relation).
func (r *Relation) ForEach(fn func(Tuple) error) error {
	if !r.sealed || r.tuples.Paged() {
		// No scan memo for paged relations: flattening would materialize the
		// whole relation, defeating the cache budget that pages it.
		return r.tuples.RangeValues(fn)
	}
	if p := r.scan.Load(); p != nil {
		for _, t := range *p {
			if err := fn(t); err != nil {
				return err
			}
		}
		return nil
	}
	flat := make([]Tuple, 0, r.tuples.Len())
	err := r.tuples.RangeValues(func(t Tuple) error {
		flat = append(flat, t)
		return fn(t)
	})
	if err != nil {
		return err // incomplete walk: do not publish a partial memo
	}
	r.scan.Store(&flat)
	return nil
}

// Tuples returns all tuples in unspecified order.
func (r *Relation) Tuples() []Tuple {
	out := make([]Tuple, 0, r.tuples.Len())
	_ = r.tuples.Range(func(_ string, t Tuple) error {
		out = append(out, t)
		return nil
	})
	return out
}

// SortedTuples returns all tuples in deterministic lexicographic order.
func (r *Relation) SortedTuples() []Tuple {
	out := r.Tuples()
	sort.Slice(out, func(i, j int) bool { return out[i].Less(out[j]) })
	return out
}

// Clone returns an independent mutable copy in O(1): the persistent trie is
// shared outright, and subsequent mutations of either side path-copy the
// touched nodes without the other observing them. Tuples themselves are
// immutable by convention and shared.
func (r *Relation) Clone() *Relation {
	return &Relation{schema: r.schema, tuples: r.tuples.Clone()}
}

// CloneWith is Clone with a different schema of the same arity; it is how
// schema-only operators (rename, set operations over union-compatible
// inputs) re-label an instance without copying any tuples.
func (r *Relation) CloneWith(s *schema.Relation) *Relation {
	if s.Arity() != r.schema.Arity() {
		panic(fmt.Sprintf("relation %s: CloneWith schema %s of different arity", r.schema.Name, s.Name))
	}
	return &Relation{schema: s, tuples: r.tuples.Clone()}
}

// Equal reports whether two relations contain exactly the same tuple set.
func (r *Relation) Equal(o *Relation) bool {
	if r.tuples.Len() != o.tuples.Len() {
		return false
	}
	return r.tuples.Range(func(k string, _ Tuple) error {
		if !o.tuples.Has(k) {
			return errNotEqual
		}
		return nil
	}) == nil
}

var errNotEqual = fmt.Errorf("relation: not equal")

// UnionInPlace inserts every tuple of o into r.
func (r *Relation) UnionInPlace(o *Relation) {
	r.checkMutable()
	if o == r {
		return
	}
	_ = o.tuples.Range(func(k string, t Tuple) error {
		r.tuples.Set(k, t)
		return nil
	})
}

// DiffInPlace removes every tuple of o from r.
func (r *Relation) DiffInPlace(o *Relation) {
	r.checkMutable()
	if o == r {
		r.tuples = pmap.New[Tuple]()
		return
	}
	_ = o.tuples.Range(func(k string, _ Tuple) error {
		r.tuples.Delete(k)
		return nil
	})
}

// String renders the relation with its schema header and sorted tuples, for
// debugging and golden tests.
func (r *Relation) String() string {
	var sb strings.Builder
	sb.WriteString(r.schema.String())
	sb.WriteString(" {")
	for i, t := range r.SortedTuples() {
		if i > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString(t.String())
	}
	sb.WriteString("}")
	return sb.String()
}
