package pmap

import "unsafe"

// Footprint reports the measured resident size of a decoded node in bytes:
// the node struct and its entry and child arrays, the bare stub nodes
// standing in for child subtrees, the key strings, and — through valSize —
// the stored values.
// The sized node cache that owns decoded nodes charges its byte budget
// with these measured sizes instead of guessed ones.
func (n *Node[V]) Footprint(valSize func(V) int64) int64 {
	in := n.n
	size := nodeFootprint[V](len(in.entries), len(in.children))
	for i := range in.entries {
		size += int64(len(in.entries[i].key)) + valSize(in.entries[i].val)
	}
	return size
}

// SlotsFootprint is the Footprint of the node NewNode builds from slots,
// each entry's key keyLen(val) bytes long, without building it: a cache
// can tell whether a node fits before it pays for the node.
func SlotsFootprint[V any](slots []SlotData[V], keyLen func(V) int, valSize func(V) int64) int64 {
	nkids := 0
	var payload int64
	for i := range slots {
		if slots[i].Child != 0 {
			nkids++
			continue
		}
		payload += int64(keyLen(slots[i].Val)) + valSize(slots[i].Val)
	}
	return nodeFootprint[V](len(slots)-nkids, nkids) + payload
}

// nodeFootprint is a node's size without its keys and values.
func nodeFootprint[V any](entries, children int) int64 {
	var in *node[V]
	return int64(unsafe.Sizeof(Node[V]{})) + int64(unsafe.Sizeof(*in)) +
		int64(entries)*int64(unsafe.Sizeof(entry[V]{})) +
		// Each child is a pointer to an unfaulted stub: a bare node struct
		// holding only an address.
		int64(children)*int64(unsafe.Sizeof(in)+unsafe.Sizeof(*in))
}
