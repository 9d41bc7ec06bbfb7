package index

import (
	"fmt"
	"slices"
	"strconv"
	"strings"

	"repro/internal/relation"
	"repro/internal/value"
)

// Sig returns the signature of an index column list, e.g. "0,2". Column
// order is part of the signature: an index keeps its declared order, which
// is its sort order.
func Sig(cols []int) string {
	var sb strings.Builder
	for i, c := range cols {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(strconv.Itoa(c))
	}
	return sb.String()
}

// KeyVals encodes probe values (parallel to a leading run of an index's
// column list) into the index-key encoding of relation.Tuple.KeyOn, in one
// allocation.
func KeyVals(vals []value.Value) string { return relation.Tuple(vals).Key() }

// Index is an immutable secondary index over a list of column positions of
// one relation instance: the package's treap keyed by (KeyOn the index
// columns, tuple identity). The key encoding sorts like the column values do
// (column order is significant), so an index answers both an equality probe
// (Probe) and a key interval (Range). Immutability is what lets a database
// snapshot publish its indexes to any number of concurrent readers without
// locking.
type Index struct {
	cols []int
	root *node
	size int
}

// Cols returns the indexed column positions. Callers must not mutate the
// returned slice.
func (x *Index) Cols() []int { return x.cols }

// Len returns the number of indexed tuples.
func (x *Index) Len() int { return x.size }

// Probe returns the tuples whose leading index columns encode to key — all
// of the columns, or a leading prefix of them — in O(log n + matches): the
// key interval [key, key·0xFF), walked without building its upper end. The
// slice is the caller's; the tuples are shared with the index and must not
// be mutated.
func (x *Index) Probe(key string) []relation.Tuple {
	return x.root.collect(key, key, true)
}

// Range returns the tuples whose index key falls in [kr.Lo, kr.Hi), in key
// order, in O(log n + matches). The slice is the caller's; the tuples are
// shared with the index and must not be mutated.
func (x *Index) Range(kr KeyRange) []relation.Tuple {
	if kr.Empty() {
		return nil
	}
	return x.root.collect(kr.Lo, kr.Hi, false)
}

// Apply derives the successor index after a committed net delta: ins holds
// tuples absent from the indexed instance, del tuples present in it (the
// net-differential invariant the transaction overlay maintains). Either may
// be nil or empty. The receiver is unchanged and shares all but
// O(delta · log n) nodes with the result.
func (x *Index) Apply(ins, del *relation.Relation) *Index {
	if (ins == nil || ins.IsEmpty()) && (del == nil || del.IsEmpty()) {
		return x
	}
	n := *x
	n.apply(ins, del)
	return &n
}

// Set is the immutable collection of indexes defined on one relation, one
// per column list, held in ascending signature order. The zero-value pointer
// (nil) is a valid empty set.
type Set struct {
	xs []*Index
}

// NewSet builds a set from the given indexes.
func NewSet(indexes ...*Index) *Set {
	s := &Set{}
	for _, x := range indexes {
		s = s.With(x)
	}
	return s
}

// Len returns the number of indexes in the set.
func (s *Set) Len() int {
	if s == nil {
		return 0
	}
	return len(s.xs)
}

// Exact returns the index over exactly the given column list, or nil. It
// runs on every index probe, so it compares column lists and allocates
// nothing.
func (s *Set) Exact(cols []int) *Index {
	if s == nil {
		return nil
	}
	for _, x := range s.xs {
		if slices.Equal(x.cols, cols) {
			return x
		}
	}
	return nil
}

// For picks the index to probe for equality bindings on the columns in eq
// and a bound on boundCol (-1 for none). An index serves the equalities on
// its longest leading run of columns in eq (the prefix) plus a bound on the
// column after that run. For prefers the longest prefix, then an index
// whose next column is boundCol, and breaks ties by signature. It returns
// nil when no index has a non-empty prefix or a bounded first column.
//
// A prefix narrower than the index, or an index column beyond the bound,
// only widens the candidates; the caller re-verifies them with its full
// predicate, and the read it records covers exactly what it probed.
func (s *Set) For(eq []int, boundCol int) (*Index, int) {
	if s == nil {
		return nil, 0
	}
	var best *Index
	bestPrefix, bestBounded := 0, false
	for _, x := range s.xs {
		p := 0
		for p < len(x.cols) && slices.Contains(eq, x.cols[p]) {
			p++
		}
		bounded := p < len(x.cols) && x.cols[p] == boundCol
		if p > bestPrefix || (p == bestPrefix && bounded && !bestBounded) {
			best, bestPrefix, bestBounded = x, p, bounded
		}
	}
	return best, bestPrefix
}

// All returns the indexes ordered by signature.
func (s *Set) All() []*Index {
	if s == nil {
		return nil
	}
	return slices.Clone(s.xs)
}

// With returns a new set holding x in signature order, in place of any
// member over the same column list. The receiver is unchanged; nil
// receivers are allowed.
func (s *Set) With(x *Index) *Set {
	var xs []*Index
	if s != nil {
		xs = s.xs
	}
	sig := Sig(x.cols)
	i, found := slices.BinarySearchFunc(xs, sig, func(m *Index, sig string) int {
		return strings.Compare(Sig(m.cols), sig)
	})
	if found {
		out := slices.Clone(xs)
		out[i] = x
		return &Set{xs: out}
	}
	return &Set{xs: slices.Insert(slices.Clone(xs), i, x)}
}

// Apply derives the successor set after a committed net delta, applying the
// delta to every index; O(indexes × delta × log n).
func (s *Set) Apply(ins, del *relation.Relation) *Set {
	if s.Len() == 0 {
		return s
	}
	n := &Set{xs: make([]*Index, len(s.xs))}
	for i, x := range s.xs {
		n.xs[i] = x.Apply(ins, del)
	}
	return n
}

// Rebuild reconstructs every index in the set from the given relation
// instance — the fallback for bulk loads and commits recorded without
// tuple-level deltas, where incremental maintenance is impossible.
func (s *Set) Rebuild(r *relation.Relation) *Set {
	if s.Len() == 0 {
		return s
	}
	n := &Set{xs: make([]*Index, len(s.xs))}
	for i, x := range s.xs {
		n.xs[i] = Build(r, x.cols)
	}
	return n
}

// ParseDecl parses an index declaration of the form "relation(attr, ...)",
// the textual syntax Options.Indexes and DB.CreateIndex accept. The
// attribute order is the index's sort order. An "ordered" suffix still
// parses and selects nothing: every index answers equality and range
// probes. The ordered result reports the suffix only for
// benchmarks/txbench, which reads it.
func ParseDecl(decl string) (rel string, attrs []string, ordered bool, err error) {
	s := strings.TrimSpace(decl)
	if rest, ok := strings.CutSuffix(s, "ordered"); ok && strings.HasSuffix(strings.TrimSpace(rest), ")") {
		ordered = true
		s = strings.TrimSpace(rest)
	}
	open := strings.IndexByte(s, '(')
	if open <= 0 || !strings.HasSuffix(s, ")") {
		return "", nil, false, fmt.Errorf("index: malformed declaration %q, want \"relation(attr, ...)\" or \"relation(attr, ...) ordered\"", decl)
	}
	rel = strings.TrimSpace(s[:open])
	body := s[open+1 : len(s)-1]
	seen := make(map[string]bool)
	for _, part := range strings.Split(body, ",") {
		a := strings.TrimSpace(part)
		if a == "" {
			return "", nil, false, fmt.Errorf("index: declaration %q has an empty attribute", decl)
		}
		if seen[a] {
			return "", nil, false, fmt.Errorf("index: declaration %q repeats attribute %q", decl, a)
		}
		seen[a] = true
		attrs = append(attrs, a)
	}
	if len(attrs) == 0 {
		return "", nil, false, fmt.Errorf("index: declaration %q has no attributes", decl)
	}
	return rel, attrs, ordered, nil
}
