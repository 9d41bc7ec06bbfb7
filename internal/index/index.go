package index

import (
	"fmt"
	"slices"
	"strconv"
	"strings"

	"repro/internal/relation"
	"repro/internal/value"
)

// Sig returns the canonical signature of an index column set, e.g. "0,2".
// Column order is part of the signature; DefineIndex canonicalizes to
// ascending order, so equal column sets always share one signature.
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

// KeyVals encodes probe values (parallel to an index's column list) into
// the index-key encoding of relation.Tuple.KeyOn.
func KeyVals(vals []value.Value) string {
	buf := make([]byte, 0, 16*len(vals))
	for _, v := range vals {
		buf = v.AppendOrderedKey(buf)
	}
	return string(buf)
}

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

// Probe returns the tuples whose index columns encode to key, in
// O(log n + matches). The slice is the caller's; the tuples are shared with
// the index and must not be mutated.
func (x *Index) Probe(key string) []relation.Tuple {
	return x.root.collect(key, key, true, nil)
}

// Range returns the tuples whose index key falls in [kr.Lo, kr.Hi), in key
// order, in O(log n + matches). The slice is the caller's; the tuples are
// shared with the index and must not be mutated.
func (x *Index) Range(kr KeyRange) []relation.Tuple {
	if kr.Empty() {
		return nil
	}
	return x.root.collect(kr.Lo, kr.Hi, false, nil)
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

// Set is the immutable collection of indexes defined on one relation, in two
// namespaces: column sets, probed by equality (canonical ascending column
// order), and column lists, probed by range (declared order, which is the
// sort order). Each namespace is held in ascending signature order. The
// zero-value pointer (nil) is a valid empty set.
type Set struct {
	by  []*Index // column sets
	ord []*Index // column lists
}

// NewSet builds a set from the given equality-probed indexes.
func NewSet(indexes ...*Index) *Set {
	s := &Set{}
	for _, x := range indexes {
		s = s.With(x)
	}
	return s
}

// Len returns the number of indexes in the set, in both namespaces.
func (s *Set) Len() int {
	if s == nil {
		return 0
	}
	return len(s.by) + len(s.ord)
}

// Exact returns the equality-probed index over exactly the given columns, or
// nil. It runs on every index probe, so it compares column lists and
// allocates nothing.
func (s *Set) Exact(cols []int) *Index {
	if s == nil {
		return nil
	}
	return exact(s.by, cols)
}

// OrderedExact returns the range-probed index over exactly the given column
// list (order-significant), or nil. Like Exact it allocates nothing.
func (s *Set) OrderedExact(cols []int) *Index {
	if s == nil {
		return nil
	}
	return exact(s.ord, cols)
}

func exact(xs []*Index, cols []int) *Index {
	for _, x := range xs {
		if slices.Equal(x.cols, cols) {
			return x
		}
	}
	return nil
}

// with returns a copy of xs holding x in signature order, in place of any
// member over the same columns.
func with(xs []*Index, x *Index) []*Index {
	sig := Sig(x.cols)
	i, found := slices.BinarySearchFunc(xs, sig, func(m *Index, sig string) int {
		return strings.Compare(Sig(m.cols), sig)
	})
	if found {
		out := slices.Clone(xs)
		out[i] = x
		return out
	}
	return slices.Insert(slices.Clone(xs), i, x)
}

// Covering returns the widest index whose column set is a subset of cols,
// or nil when none is. Ties break on signature for determinism. A covering
// index yields a candidate superset that the caller filters with the
// remaining predicate — sound because the probe-key read it records is a
// superset of the dependency.
func (s *Set) Covering(cols []int) *Index {
	if s == nil {
		return nil
	}
	var best *Index
	for _, x := range s.by {
		if best != nil && len(x.cols) <= len(best.cols) {
			continue
		}
		covered := true
		for _, c := range x.cols {
			covered = covered && slices.Contains(cols, c)
		}
		if covered {
			best = x
		}
	}
	return best
}

// All returns the equality-probed indexes ordered by signature.
func (s *Set) All() []*Index {
	if s == nil {
		return nil
	}
	return slices.Clone(s.by)
}

// OrderedAll returns the range-probed indexes ordered by signature.
func (s *Set) OrderedAll() []*Index {
	if s == nil {
		return nil
	}
	return slices.Clone(s.ord)
}

// OrderedFor returns the range-probed index usable for a range probe with
// equality bindings on the columns in eq and a bound on boundCol: its
// leading prefix columns must all carry equality bindings and its next
// column must be boundCol. It returns the index and the equality-prefix
// length, preferring the longest prefix (the narrowest interval) with
// signature order breaking ties, or nil when no index qualifies.
func (s *Set) OrderedFor(eq map[int]bool, boundCol int) (*Index, int) {
	if s == nil {
		return nil, 0
	}
	var best *Index
	bestPrefix := -1
	for _, x := range s.ord {
		p := 0
		for p < len(x.cols) && eq[x.cols[p]] {
			p++
		}
		if p < len(x.cols) && x.cols[p] == boundCol && p > bestPrefix {
			best, bestPrefix = x, p
		}
	}
	if best == nil {
		return nil, 0
	}
	return best, bestPrefix
}

// With returns a new set with x added to the column sets, replacing any
// member over the same columns. The receiver is unchanged; nil receivers are allowed.
func (s *Set) With(x *Index) *Set {
	if s == nil {
		s = &Set{}
	}
	return &Set{by: with(s.by, x), ord: s.ord}
}

// WithOrdered returns a new set with x added to the column lists, replacing
// any member over the same column list. The receiver is unchanged; nil
// receivers are allowed.
func (s *Set) WithOrdered(x *Index) *Set {
	if s == nil {
		s = &Set{}
	}
	return &Set{by: s.by, ord: with(s.ord, x)}
}

// Apply derives the successor set after a committed net delta, applying the
// delta to every index; O(indexes × delta × log n).
func (s *Set) Apply(ins, del *relation.Relation) *Set {
	if s.Len() == 0 {
		return s
	}
	n := &Set{by: make([]*Index, len(s.by)), ord: make([]*Index, len(s.ord))}
	for i, x := range s.by {
		n.by[i] = x.Apply(ins, del)
	}
	for i, x := range s.ord {
		n.ord[i] = x.Apply(ins, del)
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
	n := &Set{by: make([]*Index, len(s.by)), ord: make([]*Index, len(s.ord))}
	for i, x := range s.by {
		n.by[i] = Build(r, x.cols)
	}
	for i, x := range s.ord {
		n.ord[i] = Build(r, x.cols)
	}
	return n
}

// ParseDecl parses an index declaration of the form "relation(attr, ...)"
// — optionally suffixed with the keyword "ordered" for a range-probed
// index, whose attribute order is the sort order — the textual syntax
// Options.Indexes and DB.CreateIndex accept.
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
