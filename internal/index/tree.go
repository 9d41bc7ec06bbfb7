package index

import (
	"cmp"
	"slices"
	"strings"

	"repro/internal/relation"
)

// entry is one indexed tuple: its index-key encoding, the tuple, and a
// 64-bit hash of the tuple's canonical key (relation.Tuple.Key). The
// canonical key itself is not kept — identity is decided on the tuples — and
// entries with equal index keys share one key string.
type entry struct {
	key   string
	tuple relation.Tuple
	hash  uint64
}

// node is an entry in the tree. Nodes are immutable once reachable from a
// published root and are allocated one by one: a node is garbage as soon as
// no root reaches it, whatever became of the nodes built beside it.
type node struct {
	entry
	left, right *node
}

// hashKey hashes a canonical tuple key: FNV-1a for the bytes, then the
// murmur3 finalizer, because the tree takes its order from the low half and
// its shape from the high half and FNV alone leaves the high bits of short
// keys nearly constant.
func hashKey(k string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(k); i++ {
		h = (h ^ uint64(k[i])) * 1099511628211
	}
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	return h ^ h>>33
}

// compare is the tree's order: index key, then the low hash half, then
// tuple identity. The hash half only spreads the tuples under one index key;
// the last step makes the order total, with ties exactly where Tuple.Key
// ties (±0.0 and int/float collapse, NaNs by their bits).
func (e *entry) compare(o *entry) int {
	if c := strings.Compare(e.key, o.key); c != 0 {
		return c
	}
	return e.tie(o)
}

// tie orders two entries whose index keys are equal.
func (e *entry) tie(o *entry) int {
	if c := cmp.Compare(uint32(e.hash), uint32(o.hash)); c != 0 {
		return c
	}
	return e.tuple.CompareKey(o.tuple)
}

// above is the heap order: the high hash half, ties broken by compare so
// that no two distinct entries tie and the tree's shape is a function of the
// set it holds.
func (e *entry) above(o *entry) bool {
	if a, b := e.hash>>32, o.hash>>32; a != b {
		return a > b
	}
	return e.compare(o) < 0
}

// tree is the immutable ordered container under both index kinds: a treap
// over entries, persistent by path copying. Index and Ordered differ only in
// the key encoding and in the walk they expose.
type tree struct {
	cols    []int
	ordered bool // keys are OrderedKeyOn encodings rather than KeyOn
	root    *node
	size    int
}

// Cols returns the indexed column positions. Callers must not mutate the
// returned slice.
func (t *tree) Cols() []int { return t.cols }

// Len returns the number of indexed tuples.
func (t *tree) Len() int { return t.size }

// entryOf describes tu, whose canonical key is tupleKey, as an entry of t.
func (t *tree) entryOf(tupleKey string, tu relation.Tuple) entry {
	var buf [64]byte // the encoding reaches the heap once, as the string
	key := buf[:0]
	if t.ordered {
		key = tu.AppendOrderedKeyOn(key, t.cols)
	} else {
		key = tu.AppendKeyOn(key, t.cols)
	}
	return entry{key: string(key), tuple: tu, hash: hashKey(tupleKey)}
}

// build indexes r from scratch: one sort, then the treap is assembled left
// to right along its right spine in O(n).
func build(r *relation.Relation, cols []int, ordered bool) tree {
	t := tree{cols: slices.Clone(cols), ordered: ordered, size: r.Len()}
	es := make([]entry, 0, r.Len())
	_ = r.ForEachKey(func(k string, tu relation.Tuple) error {
		es = append(es, t.entryOf(k, tu))
		return nil
	})
	slices.SortFunc(es, func(a, b entry) int { return a.compare(&b) })
	var spine []*node
	for i := range es {
		if i > 0 && es[i].key == es[i-1].key {
			es[i].key = es[i-1].key
		}
		n := &node{entry: es[i]}
		for len(spine) > 0 && n.above(&spine[len(spine)-1].entry) {
			n.left = spine[len(spine)-1]
			spine = spine[:len(spine)-1]
		}
		if len(spine) > 0 {
			spine[len(spine)-1].right = n
		}
		spine = append(spine, n)
	}
	if len(spine) > 0 {
		t.root = spine[0]
	}
	return t
}

// apply turns t, a copy of its predecessor's header, into the successor
// after a committed net delta: del's tuples are removed and then ins's
// inserted, each in O(log n), sharing every node off the touched paths with
// the predecessor. Either relation may be nil. A tuple to remove that is
// absent, or to insert that is present, changes nothing, so the successor
// always indexes exactly the successor instance.
func (t *tree) apply(ins, del *relation.Relation) {
	if del != nil {
		_ = del.ForEachKey(func(k string, tu relation.Tuple) error {
			e := t.entryOf(k, tu)
			t.root = t.remove(t.root, &e)
			return nil
		})
	}
	if ins != nil {
		_ = ins.ForEachKey(func(k string, tu relation.Tuple) error {
			e := t.entryOf(k, tu)
			t.root = t.insert(t.root, &e)
			return nil
		})
	}
}

// insert returns n with e added, or n itself when e is present. Every node
// it returns other than n is fresh, which is what lets the rotations relink
// in place.
func (t *tree) insert(n *node, e *entry) *node {
	if n == nil {
		t.size++
		return &node{entry: *e}
	}
	c := strings.Compare(e.key, n.key)
	if c == 0 {
		// A resident entry with e's key is always on e's search path (it is
		// e's predecessor or successor), so e never keeps a second copy.
		e.key = n.key
		c = e.tie(&n.entry)
	}
	switch {
	case c < 0:
		l := t.insert(n.left, e)
		if l == n.left {
			return n
		}
		cp := *n
		cp.left = l
		if l.above(&cp.entry) {
			cp.left, l.right = l.right, &cp
			return l
		}
		return &cp
	case c > 0:
		r := t.insert(n.right, e)
		if r == n.right {
			return n
		}
		cp := *n
		cp.right = r
		if r.above(&cp.entry) {
			cp.right, r.left = r.left, &cp
			return r
		}
		return &cp
	default:
		return n
	}
}

// remove returns n without e, or n itself when e is absent.
func (t *tree) remove(n *node, e *entry) *node {
	if n == nil {
		return nil
	}
	c := e.compare(&n.entry)
	if c == 0 {
		t.size--
		return merge(n.left, n.right)
	}
	if c < 0 {
		l := t.remove(n.left, e)
		if l == n.left {
			return n
		}
		cp := *n
		cp.left = l
		return &cp
	}
	r := t.remove(n.right, e)
	if r == n.right {
		return n
	}
	cp := *n
	cp.right = r
	return &cp
}

// merge joins two trees where every entry of l sorts before every entry of
// r, copying only the two spines it descends.
func merge(l, r *node) *node {
	switch {
	case l == nil:
		return r
	case r == nil:
		return l
	case l.above(&r.entry):
		cp := *l
		cp.right = merge(l.right, r)
		return &cp
	default:
		cp := *r
		cp.left = merge(l, r.left)
		return &cp
	}
}

// collect appends, in key order, the tuples whose key lies in [lo, hi), or
// in [lo, hi] when closed: one descent to the interval and an in-order walk
// of what is inside it.
func (n *node) collect(lo, hi string, closed bool, out []relation.Tuple) []relation.Tuple {
	for n != nil {
		c := strings.Compare(n.key, hi)
		below := c < 0 || (closed && c == 0)
		if n.key >= lo {
			out = n.left.collect(lo, hi, closed, out)
			if below {
				out = append(out, n.tuple)
			}
		}
		if !below {
			break
		}
		n = n.right
	}
	return out
}
