package value

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Binary codec. The key encoding (AppendOrderedKey, value.go) is
// equality-canonical — it collapses Int(1) onto Float(1.0) — which makes it a
// fine set-membership key but a lossy serialization: decoding a key cannot
// recover the original kind. The durable storage engine (package wal, the
// checkpoint files in package storage) needs a faithful round-trip, so
// values persist through the kind-tagged encoding below instead.
//
//	null:   'n'
//	int:    'i' + zigzag varint
//	float:  'd' + 8-byte big-endian IEEE-754 image
//	string: 's' + uvarint length + bytes
//	bool:   't' | 'f'
//
// The encoding is self-delimiting, so tuples and relations concatenate
// values without separators.

// AppendBinary appends the faithful binary encoding of v to dst and returns
// the extended slice. DecodeBinary inverts it.
func (v Value) AppendBinary(dst []byte) []byte {
	switch v.kind {
	case KindNull:
		return append(dst, 'n')
	case KindInt:
		dst = append(dst, 'i')
		return binary.AppendVarint(dst, v.i())
	case KindFloat:
		dst = append(dst, 'd')
		return binary.BigEndian.AppendUint64(dst, v.n)
	case KindString:
		dst = append(dst, 's')
		dst = binary.AppendUvarint(dst, uint64(len(v.s)))
		return append(dst, v.s...)
	case KindBool:
		if v.b() {
			return append(dst, 't')
		}
		return append(dst, 'f')
	default:
		panic(fmt.Sprintf("value: AppendBinary on unknown kind %d", v.kind))
	}
}

// DecodeBinary decodes one AppendBinary-encoded value from the front of data
// and returns it together with the remaining bytes. Truncated or malformed
// input is reported as an error, never a panic — the decoder runs on bytes
// read back from disk.
func DecodeBinary(data []byte) (Value, []byte, error) {
	v, str, rest, err := DecodeBinaryRef(data)
	if v.kind == KindString {
		v.s = string(str)
	}
	return v, rest, err
}

// DecodeBinaryRef is the one parser behind DecodeBinary, for decoders that
// place string payloads themselves (relation.Arena): a string comes back
// with an empty payload and its bytes in str, still aliasing data, for the
// caller to copy and wrap with String.
func DecodeBinaryRef(data []byte) (v Value, str, rest []byte, err error) {
	if len(data) == 0 {
		return Value{}, nil, nil, fmt.Errorf("value: decode: empty input")
	}
	tag, rest := data[0], data[1:]
	switch tag {
	case 'n':
		return Null(), nil, rest, nil
	case 'i':
		i, n := binary.Varint(rest)
		if n <= 0 {
			return Value{}, nil, nil, fmt.Errorf("value: decode: bad int varint")
		}
		return Int(i), nil, rest[n:], nil
	case 'd':
		if len(rest) < 8 {
			return Value{}, nil, nil, fmt.Errorf("value: decode: truncated float")
		}
		bits := binary.BigEndian.Uint64(rest)
		return Float(math.Float64frombits(bits)), nil, rest[8:], nil
	case 's':
		l, n := binary.Uvarint(rest)
		if n <= 0 || uint64(len(rest)-n) < l {
			return Value{}, nil, nil, fmt.Errorf("value: decode: truncated string")
		}
		return Value{kind: KindString}, rest[n : n+int(l)], rest[n+int(l):], nil
	case 't':
		return Bool(true), nil, rest, nil
	case 'f':
		return Bool(false), nil, rest, nil
	default:
		return Value{}, nil, nil, fmt.Errorf("value: decode: unknown tag %q", tag)
	}
}
