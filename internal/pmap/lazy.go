package pmap

// Lazy (paged) tries. A map built by NewLazy starts as a single stub node
// holding the persistent address of a trie root some earlier Persist wrote;
// descending through a stub faults the addressed node back in through a
// Loader on first access. The loader — in practice the storage layer's sized
// node cache — is the only memo: the trie itself never replaces a stub with
// its decoded node, so a faulted subtree the cache evicts is simply faulted
// again, and the resident footprint of an arbitrarily large relation is
// bounded by the cache budget plus the path-copied (freshly written) nodes.
//
// Mutation works unchanged: set/delete resolve stubs along the touched path
// and path-copy the resolved nodes, so fresh writes are ordinary in-memory
// nodes and the O(delta) commit path never writes through the loader.
// Unchanged paths return the original stub, not its resolution, so a no-op
// mutation materializes nothing.
//
// Fault errors panic (with a *FaultError payload) rather than returning:
// every read API would otherwise grow an error result for a condition that
// is either a missing/corrupt backing file or a stub outliving its pager —
// both corruption-class failures, not recoverable inputs. Decoding itself is
// error-returning (NewNode; the storage layer's block decoder) so corrupt
// bytes are rejected before they become trie nodes.

import (
	"errors"
	"fmt"
	"math/bits"
)

// Loader faults persisted trie nodes back in by address. Implementations
// must be safe for concurrent use; Load may be called many times for the
// same address (the trie keeps no memo — caching is the loader's job) and
// must return a node decoded from the same bytes every time.
type Loader[V any] interface {
	Load(Addr) (*Node[V], error)
}

// Node is an opaque decoded trie node, built by NewNode from a persisted
// node block and returned by a Loader. A Node is immutable and may be shared
// by any number of concurrent readers and tries.
type Node[V any] struct{ n *node[V] }

// SlotData describes one slot of a persisted node: a child subtree by
// address (Child non-zero) or a key/value entry.
type SlotData[V any] struct {
	Child Addr
	Key   string
	Val   V
}

// FaultError is the panic payload raised when a lazy node cannot be faulted
// in: the backing store failed or the map has no loader. It indicates a
// corrupt or prematurely closed backing store, not a recoverable condition.
type FaultError struct {
	Addr Addr
	Err  error
}

func (e *FaultError) Error() string {
	return fmt.Sprintf("pmap: fault of node %x: %v", uint64(e.Addr), e.Err)
}

func (e *FaultError) Unwrap() error { return e.Err }

// maxDepth bounds trie descent: ⌈64/chunk⌉ regular levels plus one collision
// level, with margin. Legitimate tries never exceed it; a deeper chain means
// a corrupt backing store forged a cyclic or over-deep address graph, and
// the walkers panic instead of looping.
const maxDepth = 64/chunk + 4

// corruptDepth panics on an over-deep descent (see maxDepth).
func corruptDepth[V any](n *node[V]) {
	panic(&FaultError{Addr: n.ckpt, Err: errors.New("trie deeper than hash width (corrupt backing store)")})
}

// stubNode returns a lazy reference to the persisted node at a. The ckpt
// memo is set too: the stub's content *is* the persisted node, so an
// incremental Persist that still retains a can reference it without
// faulting.
func stubNode[V any](a Addr) *node[V] {
	n := &node[V]{ckpt: a}
	n.lazy.Store(uint64(a))
	return n
}

// NewNode builds the in-memory form of the persisted node at addr from its
// decoded structure: the bitmap, the collision flag and the slots in stored
// order (bitmap-rank order for regular nodes). Child slots become lazy
// references faulted on first access. The structural invariants a decoder
// cannot check locally are validated here, so a corrupt block is rejected
// before it can become a trie node.
func NewNode[V any](addr Addr, bitmap uint64, coll bool, slots []SlotData[V]) (*Node[V], error) {
	if addr == 0 {
		return nil, errors.New("pmap: NewNode: zero address")
	}
	if len(slots) == 0 {
		return nil, errors.New("pmap: NewNode: empty node (empty subtrees are address 0)")
	}
	if coll {
		if bitmap != 0 {
			return nil, errors.New("pmap: NewNode: collision node with non-zero bitmap")
		}
		if len(slots) < 2 {
			return nil, errors.New("pmap: NewNode: collision node with fewer than two entries")
		}
	} else if bits.OnesCount64(bitmap) != len(slots) {
		return nil, fmt.Errorf("pmap: NewNode: bitmap population %d does not match %d slots",
			bits.OnesCount64(bitmap), len(slots))
	}
	var nkids int
	for _, s := range slots {
		if s.Child != 0 {
			nkids++
		}
	}
	if coll && nkids != 0 {
		return nil, errors.New("pmap: NewNode: collision node with a child subtree")
	}
	n := &node[V]{coll: coll, ckpt: addr, entries: make([]entry[V], 0, len(slots)-nkids)}
	if nkids > 0 {
		n.children = make([]*node[V], 0, nkids)
	}
	rest := bitmap
	for i, s := range slots {
		// A regular node's i-th slot sits at the i-th lowest bitmap bit.
		bit := rest & -rest
		rest &^= bit
		if s.Child != 0 {
			n.nodemap |= bit
			n.children = append(n.children, stubNode[V](s.Child))
			continue
		}
		n.datamap |= bit
		if coll {
			if hashFn(s.Key) != hashFn(slots[0].Key) {
				return nil, errors.New("pmap: NewNode: collision node entries with differing hashes")
			}
			for j := 0; j < i; j++ {
				if slots[j].Key == s.Key {
					return nil, errors.New("pmap: NewNode: duplicate key in collision node")
				}
			}
		}
		n.entries = append(n.entries, entry[V]{s.Key, s.Val})
	}
	return &Node[V]{n: n}, nil
}

// Walk invokes fn for every slot of a decoded node in stored order: child
// subtrees pass their persistent address (non-zero), entries pass the zero
// address and their value. It lets consumers that traverse a persisted trie
// themselves (the eager checkpoint loader) reuse the node decoder without
// exposing the node internals.
func (dn *Node[V]) Walk(fn func(child Addr, val V) error) error {
	return dn.n.eachSlot(func(e *entry[V], child *node[V]) error {
		if e != nil {
			return fn(0, e.val)
		}
		return fn(Addr(child.lazy.Load()), *new(V))
	})
}

// NewLazy returns a mutable map of count entries whose root is a lazy
// reference to the persisted node at addr (0 means an empty map), faulting
// nodes in through ld on first access. The count is trusted — it comes from
// the same checkpoint directory as addr. The map behaves exactly like any
// other: freeze it to share it, clone it to mutate a copy; clones keep the
// loader.
func NewLazy[V any](addr Addr, count int, ld Loader[V]) *Map[V] {
	m := &Map[V]{count: count, edit: &edit{}, loader: ld}
	if addr != 0 {
		m.root = stubNode[V](addr)
	}
	return m
}

// Paged reports whether the map faults nodes through a loader (built by
// NewLazy, or cloned from such a map). Paged maps may hold far more entries
// than resident memory; whole-map materializations should be avoided.
func (m *Map[V]) Paged() bool { return m.loader != nil }

// resolve returns n's decoded content, faulting through the map's loader
// when n is a lazy stub. It panics with *FaultError when the fault fails.
func (m *Map[V]) resolve(n *node[V]) *node[V] {
	if n == nil || n.lazy.Load() == 0 {
		return n
	}
	return faultNode(n, m.loader)
}

func faultNode[V any](n *node[V], ld Loader[V]) *node[V] {
	a := Addr(n.lazy.Load())
	if ld == nil {
		panic(&FaultError{Addr: a, Err: errors.New("lazy node in a map with no loader")})
	}
	dn, err := ld.Load(a)
	if err != nil {
		panic(&FaultError{Addr: a, Err: err})
	}
	if dn == nil || dn.n == nil {
		panic(&FaultError{Addr: a, Err: errors.New("loader returned no node")})
	}
	return dn.n
}
