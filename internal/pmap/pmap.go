package pmap

import (
	"math/bits"
	"sync/atomic"
)

// Branching geometry: each trie level consumes chunk bits of the 64-bit key
// hash, so a node has up to width children selected by a bitmap. A 64-bit
// hash is exhausted after ⌈64/chunk⌉ levels; keys whose full hashes collide
// land in a collision node below the last level.
const (
	chunk = 6
	width = 1 << chunk // 64
	mask  = width - 1
)

// edit is an ownership token for transient (in-place) mutation. Every node
// created or copied during a mutation is stamped with the mutating map's
// token; a later mutation may update a node in place only when the tokens
// are identical pointers. Freeze drops the map's token and Clone replaces
// it, so nodes reachable from a frozen or cloned map can never be mutated
// in place again — structural sharing is always safe.
//
// The struct must not be zero-sized: distinct zero-size allocations may
// share an address in Go, which would collapse distinct tokens.
type edit struct{ _ byte }

// entry is one key/value pair stored inline in a node.
type entry[V any] struct {
	key string
	val V
}

// node is one trie node in the CHAMP layout. A regular node splits its
// occupied hash fragments between two disjoint bitmaps: datamap bits hold an
// inline entry, in datamap-rank order in entries, and nodemap bits hold a
// subtree, in nodemap-rank order in children. A collision node (coll true)
// has empty bitmaps and holds entries whose full 64-bit hashes are equal, in
// no particular order.
//
// A path copy (owned) copies the header only and aliases both arrays,
// marking them shared; the first in-place write to a shared array clones
// that array alone, sized for the write. So a copy pays for the half it
// touches: changing one child pointer of a 64-way node copies 64 pointers,
// not 64 entries.
type node[V any] struct {
	edit    *edit
	datamap uint64
	nodemap uint64
	coll    bool
	// entShared and kidShared mark entries and children as aliased by
	// another node: they must be cloned before an in-place write.
	entShared bool
	kidShared bool
	// ckpt memoizes the persistent address a checkpoint sink assigned to
	// this node (see persist.go); 0 means never persisted. Stamped only on
	// nodes reachable from frozen maps, by the single serialized Persist
	// caller.
	ckpt     Addr
	entries  []entry[V]
	children []*node[V]
	// lazy, when non-zero, marks this node as an unfaulted stub: the bitmaps
	// and arrays are empty and the node's content lives at this persistent
	// address, to be faulted in through the map's Loader on access (see
	// lazy.go). It is atomic because Persist retargets stubs of a relocated
	// node to the new address (CommitRetargets) while frozen snapshots may
	// be faulting them concurrently. Distinct from ckpt: a failed checkpoint
	// stamps ckpt before its file is discarded, so ckpt alone must never be
	// trusted as a live address.
	lazy atomic.Uint64
}

// Map is a hash-array-mapped trie from string keys to values of type V.
//
// A map is created mutable (a "transient"): Set and Delete update owned
// nodes in place, so building a map from scratch costs about what building
// a Go map does. Freeze makes the map permanently immutable; Clone returns
// a new mutable map sharing all structure with the receiver in O(1), after
// which mutations of either copy path-copy the O(log n) nodes along the
// touched path and share everything else. That combination is what gives
// relation working copies their O(delta) cost: cloning a sealed 100k-tuple
// instance allocates nothing but the Map header, and each subsequent write
// copies a handful of nodes.
//
// A frozen map may be read from any number of goroutines. A mutable map is
// single-goroutine, like a Go map; Clone counts as a mutation of the
// receiver (it revokes the receiver's in-place rights).
type Map[V any] struct {
	root  *node[V]
	count int
	edit  *edit
	// loader, when non-nil, faults lazy stub nodes in by address (see
	// lazy.go). Carried by every clone so working copies of a paged
	// relation page too.
	loader Loader[V]
}

// New returns an empty mutable map.
func New[V any]() *Map[V] { return &Map[V]{edit: &edit{}} }

// hashFn hashes keys (FNV-1a, 64 bit). It is a variable so tests can force
// total hash collisions to exercise the collision-node paths.
var hashFn = fnv64a

func fnv64a(s string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime64
	}
	return h
}

// Len returns the number of entries.
func (m *Map[V]) Len() int { return m.count }

// Frozen reports whether Freeze has been called.
func (m *Map[V]) Frozen() bool { return m.edit == nil }

// Freeze permanently forbids mutation of m and returns it. Frozen maps are
// safe for concurrent readers; Clone is the only way onward to a mutable
// state.
func (m *Map[V]) Freeze() *Map[V] {
	m.edit = nil
	return m
}

// Clone returns an independent mutable map sharing all structure with m, in
// O(1). When m itself is still mutable its ownership token is replaced, so
// both copies path-copy from here on and neither can see the other's later
// writes.
func (m *Map[V]) Clone() *Map[V] {
	if m.edit != nil {
		m.edit = &edit{}
	}
	return &Map[V]{root: m.root, count: m.count, edit: &edit{}, loader: m.loader}
}

// Get returns the value stored under key.
func (m *Map[V]) Get(key string) (V, bool) {
	h := hashFn(key)
	n := m.root
	shift := uint(0)
	for n != nil {
		n = m.resolve(n)
		if n.coll {
			for i := range n.entries {
				if n.entries[i].key == key {
					return n.entries[i].val, true
				}
			}
			break
		}
		if shift >= 64 {
			corruptDepth(n)
		}
		bit := fragment(h, shift)
		if n.datamap&bit != 0 {
			if e := &n.entries[rank(n.datamap, bit)]; e.key == key {
				return e.val, true
			}
			break
		}
		if n.nodemap&bit == 0 {
			break
		}
		n = n.children[rank(n.nodemap, bit)]
		shift += chunk
	}
	var zero V
	return zero, false
}

// Has reports whether key is present.
func (m *Map[V]) Has(key string) bool {
	_, ok := m.Get(key)
	return ok
}

// fragment returns the bitmap bit selected by the chunk of h at shift.
func fragment(h uint64, shift uint) uint64 { return uint64(1) << ((h >> shift) & mask) }

// rank returns the array position of bit within bitmap: the number of set
// bits below it.
func rank(bitmap, bit uint64) int { return bits.OnesCount64(bitmap & (bit - 1)) }

// Set stores val under key, replacing any existing entry. The map must be
// mutable.
func (m *Map[V]) Set(key string, val V) {
	if m.edit == nil {
		panic("pmap: Set on frozen map")
	}
	var added bool
	m.root = m.set(m.root, 0, hashFn(key), key, val, &added)
	if added {
		m.count++
	}
}

func (m *Map[V]) set(n *node[V], shift uint, h uint64, key string, val V, added *bool) *node[V] {
	if n == nil {
		*added = true
		return &node[V]{edit: m.edit, datamap: fragment(h, shift), entries: []entry[V]{{key, val}}}
	}
	// Unchanged paths return orig, not its resolution, so a no-op Set
	// through a stub leaves the stub in place.
	orig := n
	n = m.resolve(n)
	if n.coll {
		for i := range n.entries {
			if n.entries[i].key == key {
				n = m.owned(n)
				n.entries = setAt(n.entries, &n.entShared, i, entry[V]{key, val})
				return n
			}
		}
		*added = true
		n = m.owned(n)
		n.entries = insertAt(n.entries, &n.entShared, len(n.entries), entry[V]{key, val})
		return n
	}
	if shift >= 64 {
		corruptDepth(n)
	}
	bit := fragment(h, shift)
	switch {
	case n.datamap&bit != 0:
		i := rank(n.datamap, bit)
		e := n.entries[i]
		if e.key == key {
			n = m.owned(n)
			n.entries = setAt(n.entries, &n.entShared, i, entry[V]{key, val})
			return n
		}
		// Two keys on one fragment: push both a level down.
		*added = true
		child := m.split(shift+chunk, hashFn(e.key), e, h, entry[V]{key, val})
		n = m.owned(n)
		n.entries = removeAt(n.entries, &n.entShared, i)
		n.datamap &^= bit
		n.children = insertAt(n.children, &n.kidShared, rank(n.nodemap, bit), child)
		n.nodemap |= bit
		return n
	case n.nodemap&bit != 0:
		i := rank(n.nodemap, bit)
		c := n.children[i]
		child := m.set(c, shift+chunk, h, key, val, added)
		if child == c {
			return orig
		}
		n = m.owned(n)
		n.children = setAt(n.children, &n.kidShared, i, child)
		return n
	default:
		*added = true
		n = m.owned(n)
		n.entries = insertAt(n.entries, &n.entShared, rank(n.datamap, bit), entry[V]{key, val})
		n.datamap |= bit
		return n
	}
}

// split pushes two entries whose fragments collide at the level above one
// level down, chaining further levels while their hash fragments keep
// colliding and ending in a collision node when the hashes are fully equal.
func (m *Map[V]) split(shift uint, ah uint64, a entry[V], bh uint64, b entry[V]) *node[V] {
	if shift >= 64 {
		return &node[V]{edit: m.edit, coll: true, entries: []entry[V]{a, b}}
	}
	abit, bbit := fragment(ah, shift), fragment(bh, shift)
	if abit == bbit {
		child := m.split(shift+chunk, ah, a, bh, b)
		return &node[V]{edit: m.edit, nodemap: abit, children: []*node[V]{child}}
	}
	if abit > bbit {
		a, b = b, a
	}
	return &node[V]{edit: m.edit, datamap: abit | bbit, entries: []entry[V]{a, b}}
}

// owned returns n when the map may mutate it in place, or otherwise a copy
// of its header stamped with the map's token whose arrays are shared with n.
func (m *Map[V]) owned(n *node[V]) *node[V] {
	if n.edit == m.edit {
		return n
	}
	return &node[V]{
		edit: m.edit, datamap: n.datamap, nodemap: n.nodemap, coll: n.coll,
		entries: n.entries, children: n.children, entShared: true, kidShared: true,
	}
}

// The array writers below run on owned nodes only. Each takes the array's
// shared flag and clones a shared array before writing it, allocating
// exactly the length the write leaves.

// setAt stores v at s[i].
func setAt[T any](s []T, shared *bool, i int, v T) []T {
	if *shared {
		s, *shared = append([]T(nil), s...), false
	}
	s[i] = v
	return s
}

// insertAt inserts v before s[i].
func insertAt[T any](s []T, shared *bool, i int, v T) []T {
	if *shared {
		c := make([]T, len(s)+1)
		copy(c, s[:i])
		copy(c[i+1:], s[i:])
		c[i] = v
		*shared = false
		return c
	}
	var zero T
	s = append(s, zero)
	copy(s[i+1:], s[i:])
	s[i] = v
	return s
}

// removeAt drops s[i], zeroing the vacated tail slot of an unshared array so
// it does not pin a removed value.
func removeAt[T any](s []T, shared *bool, i int) []T {
	if *shared {
		c := make([]T, len(s)-1)
		copy(c, s[:i])
		copy(c[i:], s[i+1:])
		*shared = false
		return c
	}
	var zero T
	copy(s[i:], s[i+1:])
	s[len(s)-1] = zero
	return s[:len(s)-1]
}

// Delete removes key, reporting whether it was present. The map must be
// mutable.
func (m *Map[V]) Delete(key string) bool {
	if m.edit == nil {
		panic("pmap: Delete on frozen map")
	}
	var removed bool
	m.root = m.del(m.root, 0, hashFn(key), key, &removed)
	if removed {
		m.count--
	}
	return removed
}

func (m *Map[V]) del(n *node[V], shift uint, h uint64, key string, removed *bool) *node[V] {
	if n == nil {
		return nil
	}
	// As in set: unchanged paths return orig so no-op deletes through a
	// stub leave the stub in place.
	orig := n
	n = m.resolve(n)
	if n.coll {
		for i := range n.entries {
			if n.entries[i].key == key {
				// Collision nodes hold two or more entries; the parent
				// inlines the survivor when this leaves one.
				*removed = true
				n = m.owned(n)
				last := len(n.entries) - 1
				n.entries = setAt(n.entries, &n.entShared, i, n.entries[last])
				n.entries = removeAt(n.entries, &n.entShared, last)
				return n
			}
		}
		return orig
	}
	if shift >= 64 {
		corruptDepth(n)
	}
	bit := fragment(h, shift)
	if n.datamap&bit != 0 {
		i := rank(n.datamap, bit)
		if n.entries[i].key != key {
			return orig
		}
		*removed = true
		if len(n.entries)+len(n.children) == 1 {
			return nil
		}
		n = m.owned(n)
		n.entries = removeAt(n.entries, &n.entShared, i)
		n.datamap &^= bit
		return n
	}
	if n.nodemap&bit == 0 {
		return orig
	}
	i := rank(n.nodemap, bit)
	c := n.children[i]
	child := m.del(c, shift+chunk, h, key, removed)
	switch {
	case !*removed:
		return orig
	case child == nil:
		// The subtree drained; drop it, collapsing this node too when that
		// was its last occupant so emptied chains free their nodes instead of
		// lingering on the hash path.
		if len(n.entries)+len(n.children) == 1 {
			return nil
		}
		n = m.owned(n)
		n.children = removeAt(n.children, &n.kidShared, i)
		n.nodemap &^= bit
		return n
	case child.coll && len(child.entries) == 1:
		// A collision node needs two entries to persist (NewNode rejects
		// fewer), so its survivor moves up into this slot as an entry.
		n = m.owned(n)
		n.children = removeAt(n.children, &n.kidShared, i)
		n.nodemap &^= bit
		n.entries = insertAt(n.entries, &n.entShared, rank(n.datamap, bit), child.entries[0])
		n.datamap |= bit
		return n
	case child == c:
		return orig
	}
	n = m.owned(n)
	n.children = setAt(n.children, &n.kidShared, i, child)
	return n
}

// Range invokes fn for every entry; a non-nil error stops the iteration and
// is returned. Iteration order is unspecified (it follows hash paths, like
// a Go map's order it carries no meaning). The map must not be mutated
// while Range runs.
func (m *Map[V]) Range(fn func(key string, val V) error) error {
	return rangeNode(m.root, m.loader, 0, fn)
}

// Both walkers visit a regular node's entries and subtrees interleaved in
// bitmap order, the persisted slot order (see eachSlot), so iteration order
// does not depend on which array a slot lives in.

func rangeNode[V any](n *node[V], ld Loader[V], depth int, fn func(string, V) error) error {
	if n == nil {
		return nil
	}
	if n.lazy.Load() != 0 {
		n = faultNode(n, ld)
	}
	if depth > maxDepth {
		corruptDepth(n)
	}
	if n.coll {
		for i := range n.entries {
			if err := fn(n.entries[i].key, n.entries[i].val); err != nil {
				return err
			}
		}
		return nil
	}
	ei, ci := 0, 0
	for rest := n.datamap | n.nodemap; rest != 0; rest &= rest - 1 {
		if n.datamap&(rest&-rest) != 0 {
			e := &n.entries[ei]
			ei++
			if err := fn(e.key, e.val); err != nil {
				return err
			}
			continue
		}
		if err := rangeNode(n.children[ci], ld, depth+1, fn); err != nil {
			return err
		}
		ci++
	}
	return nil
}

// RangeValues is Range without the key, saving an indirect call per entry
// on hot scan paths (the algebra evaluator iterates relations tuple-wise).
func (m *Map[V]) RangeValues(fn func(val V) error) error {
	return rangeValues(m.root, m.loader, 0, fn)
}

func rangeValues[V any](n *node[V], ld Loader[V], depth int, fn func(V) error) error {
	if n == nil {
		return nil
	}
	if n.lazy.Load() != 0 {
		n = faultNode(n, ld)
	}
	if depth > maxDepth {
		corruptDepth(n)
	}
	if n.coll {
		for i := range n.entries {
			if err := fn(n.entries[i].val); err != nil {
				return err
			}
		}
		return nil
	}
	ei, ci := 0, 0
	for rest := n.datamap | n.nodemap; rest != 0; rest &= rest - 1 {
		if n.datamap&(rest&-rest) != 0 {
			val := n.entries[ei].val
			ei++
			if err := fn(val); err != nil {
				return err
			}
			continue
		}
		if err := rangeValues(n.children[ci], ld, depth+1, fn); err != nil {
			return err
		}
		ci++
	}
	return nil
}
