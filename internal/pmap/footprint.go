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
	size := int64(unsafe.Sizeof(*n)) + int64(unsafe.Sizeof(*in)) +
		int64(len(in.entries))*int64(unsafe.Sizeof(entry[V]{})) +
		// Each child is a pointer to an unfaulted stub: a bare node struct
		// holding only an address.
		int64(len(in.children))*int64(unsafe.Sizeof(in)+unsafe.Sizeof(*in))
	for i := range in.entries {
		size += int64(len(in.entries[i].key)) + valSize(in.entries[i].val)
	}
	return size
}
