package storage

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"testing"

	"repro/internal/pmap"
	"repro/internal/relation"
	"repro/internal/schema"
	"repro/internal/value"
)

// FuzzNodeDecode feeds arbitrary bytes to the one checkpoint node-block
// parser through both its consumers: the decoder that builds a pmap node
// (point faults; pmap.NewNode and Node.Walk) and the scan's stream, which
// hands slots over from the one-pass parse into an arena without building a
// node (unless it admits the node, which the fuzz also takes). The pager
// reads these blocks straight off disk, so a corrupted or truncated block
// must come back as an error — never a panic and never a structurally
// invalid node — and the consumers must accept or refuse together and
// yield the same (child, tuple) sequence. On a refusal the caller's slot
// slice keeps its length.
func FuzzNodeDecode(f *testing.F) {
	// Seed with real blocks: persist a relation through the checkpoint sink
	// and split the emitted stream back into length-prefixed bodies.
	rs := schema.MustRelation("alpha",
		schema.Attribute{Name: "a", Type: value.KindInt},
		schema.Attribute{Name: "b", Type: value.KindString})
	var tuples []relation.Tuple
	for i := int64(0); i < 300; i++ {
		tuples = append(tuples, relation.Tuple{value.Int(i), value.String(fmt.Sprintf("row-%03d", i))})
	}
	r := relation.MustFromTuples(rs, tuples...).Seal()
	var buf bytes.Buffer
	sink := &ckptSink{w: bufio.NewWriter(&buf), off: 8, fileID: 1, chainBase: 1, live: map[uint64]bool{1: true}}
	if _, err := r.Persist(sink); err != nil {
		f.Fatal(err)
	}
	if err := sink.w.Flush(); err != nil {
		f.Fatal(err)
	}
	blocks := buf.Bytes()
	for off, n := 0, 0; off < len(blocks) && n < 32; n++ {
		bodyLen, k := binary.Uvarint(blocks[off:])
		if k <= 0 || off+k+int(bodyLen) > len(blocks) {
			f.Fatalf("seed stream corrupt at offset %d", off)
		}
		f.Add(bytes.Clone(blocks[off+k : off+k+int(bodyLen)]))
		off += k + int(bodyLen)
	}
	// Handcrafted corruptions: empty, flag garbage, truncated slot lists,
	// self/zero child references, slot-count/popcount mismatches.
	f.Add([]byte{})
	f.Add([]byte{0x03})
	f.Add([]byte{0x03, 0xff, 0x02})
	f.Add([]byte{0x03, 0x00})
	f.Add([]byte{0x03, 0x00, 0x02, 0x05})
	f.Add([]byte{0x03, 0x00, 0x05, 0x05, 0x06})
	f.Add([]byte{0x00, 0x01, 0x00})
	f.Add([]byte{0x03, 0x00, 0x02, 0x00, 0x00})
	// Well-formed slots under a bitmap of the wrong population, and a
	// collision node with a bitmap.
	f.Add([]byte{0x01, 0x00, 0x02, 0x00, 0x01, 'n', 0x00, 0x01, 't'})
	f.Add([]byte{0x07, 0x00, 0x02, 0x00, 0x01, 'n', 0x00, 0x01, 't'})
	f.Add([]byte{0x01, 0x01, 0x02, 0x00, 0x01, 'n', 0x00, 0x01, 't'})
	// Blocks that fail after their first tuple has decoded into the arena:
	// trailing bytes, a bitmap of the wrong population, and a bad encoding
	// in the last slot.
	two := []byte{0x03, 0x00, 0x02, 0x00, 0x02, 'i', 0x02, 's', 0x03, 'a', 'b', 'c', 0x00, 0x01, 's', 0x02, 'x', 'y'}
	f.Add(append(bytes.Clone(two), 0x00))
	f.Add(append([]byte{0x07}, two[1:]...))
	f.Add(append(bytes.Clone(two[:len(two)-4]), 'q', 0x02, 'x', 'y'))

	addr := pmap.Addr(1<<addrShift | 64)
	sentinel := pmap.SlotData[relation.Tuple]{Child: 7}
	f.Fuzz(func(t *testing.T, body []byte) {
		node, err := decodeNodeBlock(addr, body)
		if (err == nil) == (node == nil) {
			t.Fatalf("decodeNodeBlock returned node %v and error %v", node, err)
		}
		var walked []byte
		if err == nil {
			// The decoded node must be traversable; children must be
			// non-zero, non-self addresses (decode-time invariants).
			if werr := node.Walk(func(child pmap.Addr, tp relation.Tuple) error {
				if child == addr {
					return fmt.Errorf("self-referential child survived decode")
				}
				walked = appendSlot(walked, child, tp)
				return nil
			}); werr != nil {
				t.Fatal(werr)
			}
		}
		// The scan streams with no room (the one-pass parse's slots) and
		// with room for the node (the built node's slots), into one arena.
		var ar relation.Arena
		for _, room := range []int64{0, 1 << 40} {
			dst := []pmap.SlotData[relation.Tuple]{sentinel}
			slots, _, serr := streamBlock(addr, body, room, dst, &ar)
			if (err == nil) != (serr == nil) {
				t.Fatalf("room %d: decoder and stream disagree: decode error %v, stream error %v", room, err, serr)
			}
			if len(slots) == 0 || slots[0].Child != sentinel.Child {
				t.Fatalf("room %d: the stream lost the caller's slots", room)
			}
			if serr != nil {
				if len(slots) != 1 {
					t.Fatalf("room %d: refused block (%v) appended %d slots", room, serr, len(slots)-1)
				}
				continue
			}
			var streamed []byte
			for _, s := range slots[1:] {
				streamed = appendSlot(streamed, s.Child, s.Val)
			}
			if !bytes.Equal(walked, streamed) {
				t.Fatalf("room %d: decoder and stream yield different slots:\ndecode %x\nstream %x", room, walked, streamed)
			}
			// A scan decides admission by the size the node would have.
			if fit := fits(slots[1:], nodeSize(node)); !fit || fits(slots[1:], nodeSize(node)-1) {
				t.Fatalf("room %d: fits disagrees with nodeSize %d", room, nodeSize(node))
			}
		}
	})
}

// appendSlot appends one (child, tuple) slot in the block encoding, so two
// slot sequences compare byte for byte (a NaN float included).
func appendSlot(b []byte, child pmap.Addr, tp relation.Tuple) []byte {
	b = binary.AppendUvarint(b, uint64(child))
	if child == 0 {
		b = relation.AppendTuple(b, tp)
	}
	return b
}
