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

// owned marks, in bit 0 of entry.hash, a node that the running apply
// created. The rest of that apply writes such a node in place instead of
// copying it again. entryOf makes even hashes and tie ignores the bit, so
// the mark moves neither the order nor the shape (the heap priority is the
// high half). apply clears every mark before it returns: published nodes
// carry none and are never written.
const owned = 1

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

// tie orders two entries whose index keys are equal. The owned mark is
// not part of the order.
func (e *entry) tie(o *entry) int {
	if c := cmp.Compare(uint32(e.hash|owned), uint32(o.hash|owned)); c != 0 {
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

// entryOf describes tu, whose canonical key is tupleKey, as an entry of x.
func (x *Index) entryOf(tupleKey string, tu relation.Tuple) entry {
	var buf [64]byte // the encoding reaches the heap once, as the string
	key := tu.AppendKeyOn(buf[:0], x.cols)
	return entry{key: string(key), tuple: tu, hash: hashKey(tupleKey) &^ owned}
}

// Build constructs an index over the relation's current tuples: one sort,
// O(n log n), then the treap is assembled left to right along its right
// spine in O(n). cols must be valid positions in the relation's schema;
// their order is the index's sort order.
func Build(r *relation.Relation, cols []int) *Index {
	x := &Index{cols: slices.Clone(cols), size: r.Len()}
	es := make([]entry, 0, r.Len())
	_ = r.ForEachKey(func(k string, tu relation.Tuple) error {
		es = append(es, x.entryOf(k, tu))
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
		x.root = spine[0]
	}
	return x
}

// apply turns x, a copy of its predecessor's header, into the successor
// after a committed net delta: del's tuples are removed and then ins's
// inserted, each in O(log n), sharing every node off the touched paths with
// the predecessor. Either relation may be nil. A tuple to remove that is
// absent, or to insert that is present, changes nothing, so the successor
// always indexes exactly the successor instance.
//
// The first tuple to reach a predecessor node copies it and marks the copy
// owned; later tuples of the same delta write the copy in place. So the
// delta copies the union of its tuples' paths once: the top of the tree once
// per commit rather than once per tuple, and an update (t removed, t'
// inserted under the same index key) one path rather than two.
func (x *Index) apply(ins, del *relation.Relation) {
	if del != nil {
		_ = del.ForEachKey(func(k string, tu relation.Tuple) error {
			e := x.entryOf(k, tu)
			x.root = x.remove(x.root, &e)
			return nil
		})
	}
	if ins != nil {
		_ = ins.ForEachKey(func(k string, tu relation.Tuple) error {
			e := x.entryOf(k, tu)
			x.root = x.insert(x.root, &e)
			return nil
		})
	}
	disown(x.root)
}

// own returns n ready to be written: n itself when this apply created it,
// else a copy marked owned.
func own(n *node) *node {
	if n.hash&owned != 0 {
		return n
	}
	cp := *n
	cp.hash |= owned
	return &cp
}

// disown clears the owned marks under n. Every node the apply created hangs
// from a created parent up to the root, since changing a child means owning
// its parent, so the walk stops at the first unmarked node of each branch:
// it visits only what the apply created and allocates nothing.
func disown(n *node) {
	for n != nil && n.hash&owned != 0 {
		n.hash &^= owned
		disown(n.left)
		n = n.right
	}
}

// insert returns n with e added. It returns n itself when e is present, or
// when e went into nodes this apply already owns; any other node it returns
// is owned, which is what lets the rotations relink in place.
func (x *Index) insert(n *node, e *entry) *node {
	if n == nil {
		x.size++
		fresh := &node{entry: *e}
		fresh.hash |= owned
		return fresh
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
		l := x.insert(n.left, e)
		if l == n.left {
			return n
		}
		n = own(n)
		n.left = l
		if l.above(&n.entry) {
			n.left, l.right = l.right, n
			return l
		}
		return n
	case c > 0:
		r := x.insert(n.right, e)
		if r == n.right {
			return n
		}
		n = own(n)
		n.right = r
		if r.above(&n.entry) {
			n.right, r.left = r.left, n
			return r
		}
		return n
	default:
		return n
	}
}

// remove returns n without e: n itself when e is absent, or when e left
// nodes this apply already owns.
func (x *Index) remove(n *node, e *entry) *node {
	if n == nil {
		return nil
	}
	c := e.compare(&n.entry)
	if c == 0 {
		x.size--
		return merge(n.left, n.right)
	}
	if c < 0 {
		l := x.remove(n.left, e)
		if l == n.left {
			return n
		}
		n = own(n)
		n.left = l
		return n
	}
	r := x.remove(n.right, e)
	if r == n.right {
		return n
	}
	n = own(n)
	n.right = r
	return n
}

// merge joins two trees where every entry of l sorts before every entry of
// r, owning only the two spines it descends.
func merge(l, r *node) *node {
	switch {
	case l == nil:
		return r
	case r == nil:
		return l
	case l.above(&r.entry):
		l = own(l)
		l.right = merge(l.right, r)
		return l
	default:
		r = own(r)
		r.left = merge(l, r.left)
		return r
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
