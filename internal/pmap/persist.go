package pmap

// Checkpoint persistence. A frozen trie serializes bottom-up through a Sink:
// every node is handed to the sink once its children have been persisted,
// and the address the sink assigns is memoized on the node itself. That memo
// is what makes checkpoints incremental — on the next Persist call, a node
// whose address the sink still Retains is emitted as a bare reference and
// its whole subtree is skipped, so a checkpoint's cost is proportional to
// the trie nodes created since the previous retained checkpoint (path
// copies are new nodes; untouched subtrees keep their old addresses), not
// to the size of the map. The address doubles as the generation watermark:
// "newer than the last checkpoint" is exactly "has no retained address".
//
// Lazy stubs participate without faulting: a stub whose address the sink
// retains is emitted as a bare reference, so an incremental checkpoint of a
// paged relation never touches its cold subtrees. A full checkpoint (which
// retains nothing) faults stubs in through the map's loader and rewrites
// them; the stub is then *retargeted* to its new address — but only via
// Persisted.CommitRetargets, which the caller invokes after the new
// checkpoint file is durable, because until then the new address is not
// readable and concurrent readers may fault the stub at any moment.
// Retargeting is safe for every snapshot sharing the stub: the rewrite is
// content-preserving, so the node read from the new address is identical to
// the one at the old.
//
// Only frozen maps may persist: a mutable owner could rewrite a stamped
// node in place, silently invalidating its address. Nodes created by
// path-copying after a Clone start with no address and are therefore
// written by the next checkpoint, as required. The memo field is touched by
// at most one Persist call at a time (the caller serializes checkpoints)
// and by nothing else, so stamping does not race concurrent readers of the
// frozen trie.

import (
	"errors"
	"fmt"
)

// Addr is the persistent address a Sink assigned to a node — an opaque
// non-zero token, typically a packed (file, offset) pair. The zero Addr
// means "never persisted" (and, as a Persist result, "empty map").
type Addr uint64

// NodeInfo is the full structure of one node handed to a Sink: the bitmap,
// the collision flag and the slots in stored (bitmap-rank) order. It is the
// exact input NewNode needs to rebuild the node, so a sink that encodes it
// faithfully makes the checkpoint a live backing store.
type NodeInfo[V any] struct {
	Bitmap uint64
	Coll   bool
	Slots  []SlotData[V]
}

// Sink receives a trie bottom-up during Persist.
type Sink[V any] interface {
	// Retained reports whether a previously assigned address is still
	// readable by the checkpoint chain being written; if so, Persist skips
	// the subtree and reuses the address.
	Retained(Addr) bool
	// Node persists one node whose children are already persisted and
	// returns its address. The NodeInfo (and its Slots slice) is only valid
	// for the duration of the call.
	Node(NodeInfo[V]) (Addr, error)
}

// Persisted is the result of a Persist call: the root's address (0 for an
// empty map), the number of nodes written (as opposed to referenced), and
// any pending stub retargets to commit once the sink's output is durable.
type Persisted struct {
	Root      Addr
	Written   int
	retargets []func()
}

// CommitRetargets repoints every lazy stub that Persist rewrote to its new
// address. Call it exactly once, strictly after the checkpoint the sink was
// writing is durable and readable (file renamed into place and the
// directory synced) — before that, faults through the retargeted stubs
// would read an address that may not survive a crash. If the checkpoint is
// abandoned instead, simply drop the Persisted: the stubs keep their old,
// still-readable addresses.
func (p *Persisted) CommitRetargets() {
	for _, f := range p.retargets {
		f()
	}
	p.retargets = nil
}

// Persist writes every node of the frozen map not already retained by the
// sink, bottom-up. It panics on a mutable map.
func (m *Map[V]) Persist(sink Sink[V]) (*Persisted, error) {
	if m.edit != nil {
		panic("pmap: Persist on mutable map (Freeze first)")
	}
	p := &Persisted{}
	root, err := persistNode(m.root, sink, m.loader, p)
	if err != nil {
		return nil, err
	}
	p.Root = root
	return p, nil
}

func persistNode[V any](n *node[V], sink Sink[V], ld Loader[V], p *Persisted) (Addr, error) {
	if n == nil {
		return 0, nil
	}
	if a := Addr(n.lazy.Load()); a != 0 {
		if sink.Retained(a) {
			return a, nil
		}
		// A full checkpoint rewrites retained-by-nothing subtrees: fault the
		// stub's content in (error-returning here, unlike the read path — a
		// checkpoint can fail cleanly) and persist it node by node.
		if ld == nil {
			return 0, fmt.Errorf("pmap: persist: lazy node %x with no loader", uint64(a))
		}
		dn, err := ld.Load(a)
		if err != nil {
			return 0, fmt.Errorf("pmap: persist: fault of node %x: %w", uint64(a), err)
		}
		if dn == nil || dn.n == nil {
			return 0, fmt.Errorf("pmap: persist: loader returned no node for %x", uint64(a))
		}
		na, err := persistContent(dn.n, sink, ld, p)
		if err != nil {
			return 0, err
		}
		stub := n
		stub.ckpt = na
		p.retargets = append(p.retargets, func() { stub.lazy.Store(uint64(na)) })
		return na, nil
	}
	if n.ckpt != 0 && sink.Retained(n.ckpt) {
		return n.ckpt, nil
	}
	a, err := persistContent(n, sink, ld, p)
	if err != nil {
		return 0, err
	}
	n.ckpt = a
	return a, nil
}

// persistContent persists n's children then hands n's structure to the
// sink, returning the assigned address. It does not touch memo fields; the
// caller stamps whichever object (node or stub) carries the memo.
func persistContent[V any](n *node[V], sink Sink[V], ld Loader[V], p *Persisted) (Addr, error) {
	info := NodeInfo[V]{Bitmap: n.datamap | n.nodemap, Coll: n.coll}
	info.Slots = make([]SlotData[V], 0, len(n.entries)+len(n.children))
	err := n.eachSlot(func(e *entry[V], child *node[V]) error {
		if e != nil {
			info.Slots = append(info.Slots, SlotData[V]{Key: e.key, Val: e.val})
			return nil
		}
		ca, err := persistNode(child, sink, ld, p)
		if err != nil {
			return err
		}
		if ca == 0 {
			return errors.New("pmap: persist: child subtree yielded zero address")
		}
		info.Slots = append(info.Slots, SlotData[V]{Child: ca})
		return nil
	})
	if err != nil {
		return 0, err
	}
	a, err := sink.Node(info)
	if err != nil {
		return 0, err
	}
	if a == 0 {
		return 0, errors.New("pmap: persist: sink assigned zero address")
	}
	p.Written++
	return a, nil
}

// eachSlot calls fn for every occupied slot of a resolved node in stored
// order — bitmap order for a regular node, with entries and subtrees merged
// back together, and array order for a collision node — passing either the
// entry or the child.
func (n *node[V]) eachSlot(fn func(e *entry[V], child *node[V]) error) error {
	if n.coll {
		for i := range n.entries {
			if err := fn(&n.entries[i], nil); err != nil {
				return err
			}
		}
		return nil
	}
	ei, ci := 0, 0
	for rest := n.datamap | n.nodemap; rest != 0; rest &= rest - 1 {
		var err error
		if n.datamap&(rest&-rest) != 0 {
			err = fn(&n.entries[ei], nil)
			ei++
		} else {
			err = fn(nil, n.children[ci])
			ci++
		}
		if err != nil {
			return err
		}
	}
	return nil
}
