package relation

import (
	"encoding/binary"
	"errors"
	"fmt"
	"unsafe"

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

// Arena is the memory DecodeTuple cuts tuples from: a chunk of values and
// a chunk of string payload bytes, each replaced by a fresh chunk when the
// next tuple does not fit the rest of it. A tuple's values sit in one value
// chunk and its payloads in one string chunk (a tuple whose payloads
// outgrow a fresh chunk gets the payloads that do not fit allocated alone),
// so a retained tuple pins at most one chunk of each beyond its own
// oversized strings. Nothing handed out is ever written again; the zero
// Arena is ready to use and allocates its first chunks on demand.
type Arena struct {
	vals []value.Value
	strs []byte
}

// Chunk sizes of an Arena: 8 KiB of values and 8 KiB of string payload, so
// a retained tuple pins at most 16 KiB of chunks. A value chunk holds 255
// values, not 256: the runtime puts an 8-byte header before an object of
// more than 512 bytes that holds pointers, and 256 values with it come to
// 8 200 bytes, which it rounds up to a 9 472-byte size class. On
// storage's BenchmarkPagedScan (40 000 rows of an int and a 64-byte string
// behind a 1 MiB node cache, 2-CPU host) a scan allocated 1 252 times
// (4.74 MB) with 4 KiB chunks, 678 (4.71 MB) with 8 KiB and 392 (4.71 MB)
// with 16 KiB, at scan times within the runs' spread (9.7–12.5 ms); 8 KiB
// keeps the pin small at about half the 4 KiB allocations.
const (
	arenaVals = (8<<10 - 8) / int(unsafe.Sizeof(value.Value{}))
	arenaStrs = 8 << 10
)

// errChunkFull reports a payload that does not fit the rest of the
// arena's string chunk; DecodeTuple retries the tuple in a fresh chunk.
var errChunkFull = errors.New("relation: string chunk full")

// DecodeTuple decodes one AppendTuple-encoded tuple from the front of data
// into the arena's chunks, checking it exactly as the package-level
// DecodeTuple does, and returns it with the remaining bytes. The tuple
// aliases the arena's chunks, not data. On an error nothing is handed out.
func (a *Arena) DecodeTuple(data []byte) (Tuple, []byte, error) {
	n, data, err := tupleArity(data)
	if err != nil {
		return nil, nil, err
	}
	if cap(a.vals)-len(a.vals) < n {
		a.vals = make([]value.Value, 0, max(arenaVals, n))
	}
	k := len(a.vals)
	t := Tuple(a.vals[k : k+n : k+n])
	rest, strs, err := decodeValues(data, t, a.strs, false)
	if err == errChunkFull {
		rest, strs, err = decodeValues(data, t, make([]byte, 0, arenaStrs), true)
	}
	if err != nil {
		return nil, nil, err
	}
	a.vals, a.strs = a.vals[:k+n], strs
	return t, rest, nil
}

// decodeValues decodes len(t) values from data into t, appending string
// payloads to strs within its capacity, and returns the remaining bytes
// and the extended strs. A payload that does not fit fails with
// errChunkFull, unless strs is a chunk fresh for this tuple (fresh); then
// the payload is allocated alone.
func decodeValues(data []byte, t Tuple, strs []byte, fresh bool) ([]byte, []byte, error) {
	for i := range t {
		v, str, rest, err := value.DecodeBinaryRef(data)
		if err != nil {
			return nil, nil, fmt.Errorf("relation: decode tuple value %d: %w", i, err)
		}
		data = rest
		if len(str) > 0 {
			switch {
			case len(str) <= cap(strs)-len(strs):
				k := len(strs)
				strs = append(strs, str...)
				v = value.String(unsafe.String(&strs[k], len(str)))
			case !fresh:
				return nil, nil, errChunkFull
			default:
				v = value.String(string(str))
			}
		}
		t[i] = v
	}
	return data, strs, nil
}

// Rewind gives back everything decoded since mark was copied from the
// arena (mark := *a), for a caller that has stopped using those tuples
// (one that copies them out). A chunk started since then is kept, emptied.
func (a *Arena) Rewind(mark Arena) {
	a.vals = rewind(a.vals, mark.vals)
	a.strs = rewind(a.strs, mark.strs)
}

// rewind returns mark when cur is still the chunk mark was cut from, else
// cur emptied.
func rewind[T any](cur, mark []T) []T {
	if unsafe.SliceData(cur) == unsafe.SliceData(mark) {
		return mark
	}
	return cur[:0]
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
