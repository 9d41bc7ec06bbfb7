// Node block parsing: the one reader of checkpoint node blocks, shared by
// the pager's point faults (decodeNodeBlock), its scans (streamNodeBlock,
// pager.Stream) and the eager resident open (collectNodes).
//
// A block body is the bitmap (uvarint), a flags byte (bit 0: collision
// node), the slot count (uvarint) and the slots in stored order, each a
// child address (uvarint) or address 0 followed by a relation.AppendTuple
// tuple. parseNodeBlock validates the whole body before anything is
// decoded: exact consumption, every value's encoding, no self-referential
// child and none in file 0, and the structural invariants pmap.NewNode
// checks that need no keys (a regular node's bitmap population equals its
// slot count; a collision node has a zero bitmap, two or more slots and no
// child). The parse also sizes the decode: a block's tuples decode into one
// value array and one string block of exactly the parsed lengths, and its
// keys, when a pmap node is built, into one more block. Nothing decoded
// aliases the body, so a caller may reuse the buffer it read the body into.
package storage

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"unsafe"

	"repro/internal/pmap"
	"repro/internal/relation"
	"repro/internal/value"
)

// nodeBlock is a node block body that parseNodeBlock has validated, with
// the sizes its decode needs.
type nodeBlock struct {
	addr   pmap.Addr
	bitmap uint64
	coll   bool
	nslots int
	nvals  int    // values over all tuples
	strLen int    // string payload bytes over all tuples
	slots  []byte // the slot section of the body
}

// parseNodeBlock validates a node block body (see the file comment). Every
// violation is an error, never a panic: FuzzNodeDecode leans on it.
func parseNodeBlock(addr pmap.Addr, body []byte) (nodeBlock, error) {
	b := nodeBlock{addr: addr}
	bitmap, k := binary.Uvarint(body)
	if k <= 0 {
		return b, fmt.Errorf("storage: node %x: bad bitmap", uint64(addr))
	}
	body = body[k:]
	if len(body) == 0 {
		return b, fmt.Errorf("storage: node %x: missing flags", uint64(addr))
	}
	flags := body[0]
	body = body[1:]
	if flags&^1 != 0 {
		return b, fmt.Errorf("storage: node %x: unknown flags %#x", uint64(addr), flags)
	}
	nslots, k := binary.Uvarint(body)
	if k <= 0 || nslots == 0 || nslots > uint64(len(body)) {
		return b, fmt.Errorf("storage: node %x: bad slot count", uint64(addr))
	}
	body = body[k:]
	b.bitmap, b.coll, b.nslots, b.slots = bitmap, flags&1 != 0, int(nslots), body
	nkids := 0
	for i := 0; i < b.nslots; i++ {
		child, k := binary.Uvarint(body)
		if k <= 0 {
			return b, fmt.Errorf("storage: node %x: bad child address", uint64(addr))
		}
		body = body[k:]
		if child != 0 {
			if pmap.Addr(child) == addr {
				return b, fmt.Errorf("storage: node %x: self-referential child", uint64(addr))
			}
			if child>>addrShift == 0 {
				return b, fmt.Errorf("storage: node %x: child address %x in file 0", uint64(addr), child)
			}
			nkids++
			continue
		}
		rest, arity, strLen, err := relation.SkipTuple(body)
		if err != nil {
			return b, fmt.Errorf("storage: node %x: %w", uint64(addr), err)
		}
		body = rest
		b.nvals += arity
		b.strLen += strLen
	}
	if len(body) != 0 {
		return b, fmt.Errorf("storage: node %x: %d trailing bytes", uint64(addr), len(body))
	}
	switch {
	case !b.coll && bits.OnesCount64(bitmap) != b.nslots:
		return b, fmt.Errorf("storage: node %x: bitmap population %d does not match %d slots",
			uint64(addr), bits.OnesCount64(bitmap), b.nslots)
	case b.coll && bitmap != 0:
		return b, fmt.Errorf("storage: node %x: collision node with non-zero bitmap", uint64(addr))
	case b.coll && b.nslots < 2:
		return b, fmt.Errorf("storage: node %x: collision node with fewer than two entries", uint64(addr))
	case b.coll && nkids != 0:
		return b, fmt.Errorf("storage: node %x: collision node with a child subtree", uint64(addr))
	}
	return b, nil
}

// decode appends the validated block's slots to dst in stored order: a
// child by its address, an entry by its tuple (key left empty). The tuples
// share one value array and one string block.
func (b *nodeBlock) decode(dst []pmap.SlotData[relation.Tuple]) ([]pmap.SlotData[relation.Tuple], error) {
	vals := make([]value.Value, b.nvals)
	strs := make([]byte, 0, b.strLen)
	body := b.slots
	for i := 0; i < b.nslots; i++ {
		child, k := binary.Uvarint(body)
		body = body[k:]
		var t relation.Tuple
		if child == 0 {
			var err error
			if t, body, vals, strs, err = relation.DecodeTupleIn(body, vals, strs); err != nil {
				return nil, fmt.Errorf("storage: node %x: %w", uint64(b.addr), err)
			}
		}
		dst = append(dst, pmap.SlotData[relation.Tuple]{Child: pmap.Addr(child), Val: t})
	}
	return dst, nil
}

// node builds the block's pmap node: tuples decoded as by decode, their
// keys cut from one block, and pmap.NewNode's checks on top of the parse's,
// among them the collision invariants that need the keys.
func (b *nodeBlock) node() (*pmap.Node[relation.Tuple], error) {
	slots, err := b.decode(make([]pmap.SlotData[relation.Tuple], 0, b.nslots))
	if err != nil {
		return nil, err
	}
	keyLen := 0
	for _, s := range slots {
		keyLen += s.Val.KeyLen()
	}
	keys := make([]byte, 0, keyLen)
	for i := range slots {
		if slots[i].Child != 0 {
			continue
		}
		n := len(keys)
		if keys = slots[i].Val.AppendKey(keys); len(keys) > n {
			slots[i].Key = unsafe.String(&keys[n], len(keys)-n)
		}
	}
	node, err := pmap.NewNode(b.addr, b.bitmap, b.coll, slots)
	if err != nil {
		return nil, fmt.Errorf("storage: node %x: %w", uint64(b.addr), err)
	}
	return node, nil
}

// decodeNodeBlock decodes a node block body into a pmap node: the point
// fault's decode.
func decodeNodeBlock(addr pmap.Addr, body []byte) (*pmap.Node[relation.Tuple], error) {
	b, err := parseNodeBlock(addr, body)
	if err != nil {
		return nil, err
	}
	return b.node()
}

// streamNodeBlock validates a node block body, decodes it and appends its
// slots to dst in stored order (keys left empty), without building a pmap
// node for a regular node: the read the pager's scans and the eager open
// make. A collision node, whose checks need keys, is built and walked.
func streamNodeBlock(addr pmap.Addr, body []byte, dst []pmap.SlotData[relation.Tuple]) ([]pmap.SlotData[relation.Tuple], error) {
	b, err := parseNodeBlock(addr, body)
	if err != nil {
		return nil, err
	}
	return b.stream(dst)
}

// stream appends the validated block's slots to dst, as streamNodeBlock.
func (b *nodeBlock) stream(dst []pmap.SlotData[relation.Tuple]) ([]pmap.SlotData[relation.Tuple], error) {
	if b.coll {
		n, err := b.node()
		if err != nil {
			return nil, err
		}
		return appendNode(dst, n), nil
	}
	return b.decode(dst)
}

// appendNode appends a decoded node's slots to dst in stored order.
func appendNode(dst []pmap.SlotData[relation.Tuple], n *pmap.Node[relation.Tuple]) []pmap.SlotData[relation.Tuple] {
	_ = n.Walk(func(child pmap.Addr, t relation.Tuple) error {
		dst = append(dst, pmap.SlotData[relation.Tuple]{Child: child, Val: t})
		return nil
	})
	return dst
}
