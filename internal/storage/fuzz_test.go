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

// FuzzNodeDecode feeds arbitrary bytes to both consumers of the checkpoint
// node-block parser: the decoder that builds a pmap node (point faults) and
// the stream that hands slots over without one (scans, the eager open). The
// pager reads these blocks straight off disk, so a corrupted or truncated
// block must come back as an error — never a panic and never a structurally
// invalid node — and the two must accept or refuse together and yield the
// same (child, tuple) sequence.
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

	addr := pmap.Addr(1<<addrShift | 64)
	f.Fuzz(func(t *testing.T, body []byte) {
		node, err := decodeNodeBlock(addr, body)
		slots, serr := streamNodeBlock(addr, body, nil)
		var streamed []byte
		for _, s := range slots {
			streamed = appendSlot(streamed, s.Child, s.Val)
		}
		if (err == nil) != (serr == nil) {
			t.Fatalf("decoder and stream disagree: decode error %v, stream error %v", err, serr)
		}
		if err != nil {
			if node != nil {
				t.Fatalf("decodeNodeBlock returned both a node and error %v", err)
			}
			return
		}
		if node == nil {
			t.Fatal("decodeNodeBlock returned neither node nor error")
		}
		// The decoded node must be traversable; children must be non-zero,
		// non-self addresses (decode-time invariants).
		var walked []byte
		if err := node.Walk(func(child pmap.Addr, tp relation.Tuple) error {
			if child == addr {
				return fmt.Errorf("self-referential child survived decode")
			}
			walked = appendSlot(walked, child, tp)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(walked, streamed) {
			t.Fatalf("decoder and stream yield different slots:\ndecode %x\nstream %x", walked, streamed)
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
