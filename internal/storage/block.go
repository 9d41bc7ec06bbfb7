// Node block parsing: the one reader of checkpoint node blocks, shared by
// the pager's point faults (decodeNodeBlock), its scans (streamBlock,
// pageScan.Stream) and the eager resident open (collectNodes).
//
// A block body is the bitmap (uvarint), a flags byte (bit 0: collision
// node), the slot count (uvarint) and the slots in stored order, each a
// child address (uvarint) or address 0 followed by a relation.AppendTuple
// tuple. parseBlock checks and decodes the body in one pass: exact
// consumption, every value's encoding, no self-referential child and none
// in file 0, and the structural invariants pmap.NewNode checks that need no
// keys (a regular node's bitmap population equals its slot count; a
// collision node has a zero bitmap, two or more slots and no child). Its
// tuples decode into a relation.Arena's chunks, and on any error it leaves
// the caller's slot slice at its original length. A scan hands those
// tuples out as they are. A node that enters the cache, and every tuple of
// the eager open, is moved into one value array and one string block of
// exactly its size (own), with its keys, when a pmap node is built, in one
// more block; so no cached node aliases a scan's chunks. Nothing decoded
// aliases the body, so a caller may reuse the buffer it read the body into.
package storage

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
	"sync"
	"unsafe"

	"repro/internal/pmap"
	"repro/internal/relation"
	"repro/internal/value"
)

// blockHead is the shape of a parsed node block.
type blockHead struct {
	bitmap uint64
	coll   bool
}

// parseBlock checks a node block body (see the file comment) and appends
// its slots to dst in stored order: a child by its address, an entry by its
// tuple decoded into ar (key left empty). On any error dst keeps its length
// and ar its state. Every violation is an error, never a panic:
// FuzzNodeDecode leans on it.
func parseBlock(addr pmap.Addr, body []byte, dst []pmap.SlotData[relation.Tuple], ar *relation.Arena) ([]pmap.SlotData[relation.Tuple], blockHead, error) {
	from, saved := len(dst), *ar
	dst, h, err := parseSlots(addr, body, dst, ar)
	if err != nil {
		ar.Rewind(saved)
		return dst[:from], h, fmt.Errorf("storage: node %x: %w", uint64(addr), err)
	}
	return dst, h, nil
}

// parseSlots is parseBlock without the rollback and the error's prefix.
func parseSlots(addr pmap.Addr, body []byte, dst []pmap.SlotData[relation.Tuple], ar *relation.Arena) ([]pmap.SlotData[relation.Tuple], blockHead, error) {
	var h blockHead
	bitmap, k := binary.Uvarint(body)
	if k <= 0 {
		return dst, h, errors.New("bad bitmap")
	}
	body = body[k:]
	if len(body) == 0 {
		return dst, h, errors.New("missing flags")
	}
	flags := body[0]
	body = body[1:]
	if flags&^1 != 0 {
		return dst, h, fmt.Errorf("unknown flags %#x", flags)
	}
	nslots, k := binary.Uvarint(body)
	if k <= 0 || nslots == 0 || nslots > uint64(len(body)) {
		return dst, h, errors.New("bad slot count")
	}
	body = body[k:]
	h = blockHead{bitmap: bitmap, coll: flags&1 != 0}
	nkids := 0
	for i := uint64(0); i < nslots; i++ {
		child, k := binary.Uvarint(body)
		if k <= 0 {
			return dst, h, errors.New("bad child address")
		}
		body = body[k:]
		if child != 0 {
			if pmap.Addr(child) == addr {
				return dst, h, errors.New("self-referential child")
			}
			if child>>addrShift == 0 {
				return dst, h, fmt.Errorf("child address %x in file 0", child)
			}
			nkids++
			dst = append(dst, pmap.SlotData[relation.Tuple]{Child: pmap.Addr(child)})
			continue
		}
		t, rest, err := ar.DecodeTuple(body)
		if err != nil {
			return dst, h, err
		}
		body = rest
		dst = append(dst, pmap.SlotData[relation.Tuple]{Val: t})
	}
	if len(body) != 0 {
		return dst, h, fmt.Errorf("%d trailing bytes", len(body))
	}
	switch {
	case !h.coll && bits.OnesCount64(bitmap) != int(nslots):
		return dst, h, fmt.Errorf("bitmap population %d does not match %d slots", bits.OnesCount64(bitmap), nslots)
	case h.coll && bitmap != 0:
		return dst, h, errors.New("collision node with non-zero bitmap")
	case h.coll && nslots < 2:
		return dst, h, errors.New("collision node with fewer than two entries")
	case h.coll && nkids != 0:
		return dst, h, errors.New("collision node with a child subtree")
	}
	return dst, h, nil
}

// tupleBytes reports the values and string payload bytes of the tuples
// among slots: what own allocates for them.
func tupleBytes(slots []pmap.SlotData[relation.Tuple]) (nvals, strLen int) {
	for i := range slots {
		for _, v := range slots[i].Val {
			nvals++
			if v.Kind() == value.KindString {
				strLen += len(v.AsString())
			}
		}
	}
	return nvals, strLen
}

// own moves the tuples among slots into one value array and one string
// block of exactly their size, so none of them aliases the arena they were
// decoded into.
func own(slots []pmap.SlotData[relation.Tuple]) {
	nvals, strLen := tupleBytes(slots)
	vals := make([]value.Value, nvals)
	strs := make([]byte, 0, strLen)
	for i := range slots {
		t := slots[i].Val
		if len(t) == 0 {
			continue
		}
		o := relation.Tuple(vals[:len(t):len(t)])
		vals = vals[len(t):]
		for j, v := range t {
			if v.Kind() == value.KindString && len(v.AsString()) > 0 {
				k := len(strs)
				strs = append(strs, v.AsString()...)
				v = value.String(unsafe.String(&strs[k], len(strs)-k))
			}
			o[j] = v
		}
		slots[i].Val = o
	}
}

// buildNode makes the pmap node of a block parseBlock returned as h and
// slots: the tuples moved into exact-size arrays (own), their keys cut from
// one block, and pmap.NewNode's checks on top of the parse's, among them
// the collision invariants that need the keys. It rewrites slots' tuples.
func buildNode(addr pmap.Addr, h blockHead, slots []pmap.SlotData[relation.Tuple]) (*pmap.Node[relation.Tuple], error) {
	own(slots)
	keyLen := 0
	for i := range slots {
		keyLen += slots[i].Val.KeyLen()
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
	node, err := pmap.NewNode(addr, h.bitmap, h.coll, slots)
	if err != nil {
		return nil, fmt.Errorf("storage: node %x: %w", uint64(addr), err)
	}
	return node, nil
}

// blockScratch is a point fault's reusable slot buffer and arena: the
// node it builds owns its tuples (buildNode), so both are free again once
// it is built.
type blockScratch struct {
	slots []pmap.SlotData[relation.Tuple]
	arena relation.Arena
}

var scratchPool = sync.Pool{New: func() any { return new(blockScratch) }}

// decodeNodeBlock decodes a node block body into a pmap node that owns
// exact-size arrays: the point fault's decode.
func decodeNodeBlock(addr pmap.Addr, body []byte) (*pmap.Node[relation.Tuple], error) {
	sc := scratchPool.Get().(*blockScratch)
	mark := sc.arena
	slots, h, err := parseBlock(addr, body, sc.slots[:0], &sc.arena)
	var n *pmap.Node[relation.Tuple]
	if err == nil {
		n, err = buildNode(addr, h, slots)
	}
	clear(slots)
	sc.slots = slots[:0]
	sc.arena.Rewind(mark)
	scratchPool.Put(sc)
	return n, err
}

// streamBlock parses a node block body into ar and appends its slots to
// dst, the scan's read. When the block's decoded tuples fit in room bytes,
// or it is a collision node, whose checks need keys, it builds the node
// instead (buildNode), appends the node's slots and returns it; the arena
// space the parse took is given back, so the node aliases no chunk of ar.
// On an error dst keeps its length.
func streamBlock(addr pmap.Addr, body []byte, room int64, dst []pmap.SlotData[relation.Tuple], ar *relation.Arena) ([]pmap.SlotData[relation.Tuple], *pmap.Node[relation.Tuple], error) {
	from, saved := len(dst), *ar
	dst, h, err := parseBlock(addr, body, dst, ar)
	if err != nil {
		return dst, nil, err
	}
	if !h.coll && !fits(dst[from:], room) {
		return dst, nil, nil
	}
	n, err := buildNode(addr, h, dst[from:])
	clear(dst[from:])
	dst = dst[:from]
	ar.Rewind(saved)
	if err != nil {
		return dst, nil, err
	}
	return appendNode(dst, n), n, nil
}

// fits reports whether the node built from slots would fit in room bytes
// of cache budget (nodeSize, computed without building it). The tuples'
// own size, which is a part of it, decides most blocks on its own.
func fits(slots []pmap.SlotData[relation.Tuple], room int64) bool {
	nvals, strLen := tupleBytes(slots)
	if room < int64(nvals)*int64(unsafe.Sizeof(value.Value{}))+int64(strLen) {
		return false
	}
	size := pmap.SlotsFootprint(slots, relation.Tuple.KeyLen, relation.Tuple.Footprint)
	return room >= size+int64(unsafe.Sizeof(pageEntry{}))
}

// appendNode appends a decoded node's slots to dst in stored order.
func appendNode(dst []pmap.SlotData[relation.Tuple], n *pmap.Node[relation.Tuple]) []pmap.SlotData[relation.Tuple] {
	_ = n.Walk(func(child pmap.Addr, t relation.Tuple) error {
		dst = append(dst, pmap.SlotData[relation.Tuple]{Child: child, Val: t})
		return nil
	})
	return dst
}
