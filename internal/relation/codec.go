package relation

import (
	"encoding/binary"
	"fmt"

	"repro/internal/pmap"
	"repro/internal/schema"
	"repro/internal/value"
)

// Tuple codec for the durable storage engine: WAL records (package wal via
// package storage) and checkpoint files persist tuples through the faithful
// value.AppendBinary encoding, prefixed with the arity so the decoder is
// self-delimiting. Canonical keys are NOT stored — they are derivable
// (Tuple.Key) and recomputed on replay, which keeps the on-disk records
// smaller than the in-memory trie entries.

// AppendTuple appends the binary encoding of t to dst and returns the
// extended slice.
func AppendTuple(dst []byte, t Tuple) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(t)))
	for _, v := range t {
		dst = v.AppendBinary(dst)
	}
	return dst
}

// DecodeTuple decodes one AppendTuple-encoded tuple from the front of data
// and returns it together with the remaining bytes.
func DecodeTuple(data []byte) (Tuple, []byte, error) {
	arity, data, err := tupleArity(data)
	if err != nil {
		return nil, nil, err
	}
	t := make(Tuple, arity)
	for i := range t {
		t[i], data, err = value.DecodeBinary(data)
		if err != nil {
			return nil, nil, fmt.Errorf("relation: decode tuple value %d: %w", i, err)
		}
	}
	return t, data, nil
}

// SkipTuple checks one AppendTuple-encoded tuple at the front of data
// exactly as DecodeTuple does, without building it, and returns the
// remaining bytes, the arity and the total length of its string payloads:
// what DecodeTupleIn needs to be sized for.
func SkipTuple(data []byte) (rest []byte, arity, strLen int, err error) {
	n, data, err := tupleArity(data)
	if err != nil {
		return nil, 0, 0, err
	}
	for i := 0; i < n; i++ {
		var l int
		if data, l, err = value.SkipBinary(data); err != nil {
			return nil, 0, 0, fmt.Errorf("relation: decode tuple value %d: %w", i, err)
		}
		strLen += l
	}
	return data, n, strLen, nil
}

// DecodeTupleIn decodes one tuple into the front of vals, which must hold
// its arity, and appends its string payloads to block (see
// value.DecodeBinaryIn). The tuple aliases vals and block; the rest of vals
// and the extended block are returned with the remaining bytes. Decoding a
// node's tuples this way costs one value array and one string block for the
// node, not an allocation per tuple and per string.
func DecodeTupleIn(data []byte, vals []value.Value, block []byte) (t Tuple, rest []byte, restVals []value.Value, _ []byte, err error) {
	n, data, err := tupleArity(data)
	if err != nil {
		return nil, nil, nil, nil, err
	}
	if n > len(vals) {
		return nil, nil, nil, nil, fmt.Errorf("relation: decode tuple: arity %d exceeds the value arena", n)
	}
	t = Tuple(vals[:n:n])
	for i := range t {
		if t[i], data, block, err = value.DecodeBinaryIn(data, block); err != nil {
			return nil, nil, nil, nil, fmt.Errorf("relation: decode tuple value %d: %w", i, err)
		}
	}
	return t, data, vals[n:], block, nil
}

// tupleArity reads a tuple's arity prefix. Each value takes at least one
// byte, so an arity beyond the input is refused before anything is sized
// by it.
func tupleArity(data []byte) (int, []byte, error) {
	arity, n := binary.Uvarint(data)
	if n <= 0 {
		return 0, nil, fmt.Errorf("relation: decode tuple: bad arity varint")
	}
	if arity > uint64(len(data)) {
		return 0, nil, fmt.Errorf("relation: decode tuple: arity %d exceeds input", arity)
	}
	return int(arity), data[n:], nil
}

// AppendTuples appends the cardinality of r followed by every tuple's binary
// encoding; the iteration order is unspecified (replay rebuilds a set).
func AppendTuples(dst []byte, r *Relation) []byte {
	dst = binary.AppendUvarint(dst, uint64(r.Len()))
	_ = r.ForEach(func(t Tuple) error {
		dst = AppendTuple(dst, t)
		return nil
	})
	return dst
}

// Persist serializes the sealed relation's trie bottom-up through the sink
// (see pmap.Map.Persist): nodes whose addresses the sink still retains are
// skipped as whole subtrees, which is what makes checkpoints incremental.
// The returned Persisted carries the root address (0 when empty), the node
// count written, and pending stub retargets the caller commits once the
// checkpoint is durable. The relation must be sealed.
func (r *Relation) Persist(sink pmap.Sink[Tuple]) (*pmap.Persisted, error) {
	if !r.sealed {
		panic(fmt.Sprintf("relation %s: Persist of unsealed instance", r.schema.Name))
	}
	return r.tuples.Persist(sink)
}

// FromPersisted returns a mutable relation over the persisted trie rooted at
// root (0 means empty) with the given cardinality, faulting nodes in through
// ld on first access. The relation starts unsealed so recovery can replay
// WAL deltas onto it directly; Seal it before publishing, like any other.
func FromPersisted(s *schema.Relation, root pmap.Addr, count int, ld pmap.Loader[Tuple]) *Relation {
	return &Relation{schema: s, tuples: pmap.NewLazy(root, count, ld)}
}

// Paged reports whether the relation faults its trie through a loader, i.e.
// may hold far more tuples than resident memory. Whole-relation
// materializations (scan memos, eager index builds) should be skipped for
// paged relations.
func (r *Relation) Paged() bool {
	return r.tuples.Paged()
}

// DecodeTuples decodes an AppendTuples-encoded tuple list from the front of
// data, invoking fn per tuple, and returns the remaining bytes.
func DecodeTuples(data []byte, fn func(Tuple)) ([]byte, error) {
	count, n := binary.Uvarint(data)
	if n <= 0 {
		return nil, fmt.Errorf("relation: decode tuples: bad count varint")
	}
	data = data[n:]
	for i := uint64(0); i < count; i++ {
		t, rest, err := DecodeTuple(data)
		if err != nil {
			return nil, fmt.Errorf("relation: decode tuple %d/%d: %w", i, count, err)
		}
		fn(t)
		data = rest
	}
	return data, nil
}
