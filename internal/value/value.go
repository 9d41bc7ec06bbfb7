// Package value implements the typed scalar values that populate relation
// tuples: integers, floats, strings, booleans and null. It provides the
// comparison, arithmetic and key-encoding primitives the rest of the engine
// builds on.
//
// Logic is two-valued (see docs/ARCHITECTURE.md): null equals null, null is
// not ordered against non-null values, and arithmetic involving null yields
// null.
package value

import (
	"cmp"
	"fmt"
	"math"
	"strconv"
	"strings"
	"unsafe"
)

// Kind enumerates the dynamic type of a Value.
type Kind uint8

// The value kinds supported by the engine.
const (
	KindNull Kind = iota
	KindInt
	KindFloat
	KindString
	KindBool
)

// String returns the lower-case name of the kind, e.g. "int".
func (k Kind) String() string {
	switch k {
	case KindNull:
		return "null"
	case KindInt:
		return "int"
	case KindFloat:
		return "float"
	case KindString:
		return "string"
	case KindBool:
		return "bool"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Value is an immutable tagged scalar. The zero Value is null.
//
// Layout: 32 bytes — a string header, one 8-byte payload word and the kind.
// The word n holds an int's two's-complement bits, a float's IEEE-754 bits
// (math.Float64bits) or 0/1 for a bool; s is set only for strings. Every
// stored tuple, delta, index entry and scan walks this width, so it is kept
// to what one scalar needs. A 24-byte layout (a string data pointer, a word
// that is the string's length or the payload, the kind) would need unsafe
// and showed no measurable latency gain over this one.
//
// The zero-size [0]func() field makes Values incomparable, so == on them is
// a compile error: with a float held as bits, == would tell -0.0 from +0.0
// and equate a NaN with itself, both unlike Equal. Compare values with Equal,
// Compare or CompareKey.
type Value struct {
	_    [0]func()
	s    string
	n    uint64
	kind Kind
}

// Null returns the null value.
func Null() Value { return Value{} }

// Int returns an integer value.
func Int(v int64) Value { return Value{kind: KindInt, n: uint64(v)} }

// Float returns a floating-point value.
func Float(v float64) Value { return Value{kind: KindFloat, n: math.Float64bits(v)} }

// String returns a string value.
func String(v string) Value { return Value{kind: KindString, s: v} }

// Bool returns a boolean value.
func Bool(v bool) Value {
	if v {
		return Value{kind: KindBool, n: 1}
	}
	return Value{kind: KindBool}
}

// i, f and b read the payload word as an int, a float and a bool; the
// caller has checked the kind.
func (v Value) i() int64   { return int64(v.n) }
func (v Value) f() float64 { return math.Float64frombits(v.n) }
func (v Value) b() bool    { return v.n != 0 }

// Kind reports the dynamic kind of v.
func (v Value) Kind() Kind { return v.kind }

// IsNull reports whether v is the null value.
func (v Value) IsNull() bool { return v.kind == KindNull }

// AsInt returns the integer payload. It panics if v is not an int; use Kind
// first when the kind is not statically known.
func (v Value) AsInt() int64 {
	if v.kind != KindInt {
		panic("value: AsInt on " + v.kind.String())
	}
	return v.i()
}

// AsFloat returns the float payload, converting from int if necessary.
func (v Value) AsFloat() float64 {
	switch v.kind {
	case KindFloat:
		return v.f()
	case KindInt:
		return float64(v.i())
	default:
		panic("value: AsFloat on " + v.kind.String())
	}
}

// AsString returns the string payload. It panics if v is not a string.
func (v Value) AsString() string {
	if v.kind != KindString {
		panic("value: AsString on " + v.kind.String())
	}
	return v.s
}

// AsBool returns the boolean payload. It panics if v is not a bool.
func (v Value) AsBool() bool {
	if v.kind != KindBool {
		panic("value: AsBool on " + v.kind.String())
	}
	return v.b()
}

// numeric reports whether v is an int or a float.
func (v Value) numeric() bool { return v.kind == KindInt || v.kind == KindFloat }

// Equal reports whether two values are identical for set-membership purposes.
// Numeric values of different kinds compare by numeric value, so Int(1) equals
// Float(1.0); null equals null.
func (v Value) Equal(w Value) bool {
	if v.kind == w.kind {
		switch v.kind {
		case KindNull:
			return true
		case KindInt, KindBool:
			return v.n == w.n
		case KindFloat:
			return v.f() == w.f() // not bits: -0.0 equals +0.0, NaN nothing
		case KindString:
			return v.s == w.s
		}
	}
	if v.numeric() && w.numeric() {
		return v.AsFloat() == w.AsFloat()
	}
	return false
}

// Compare orders v against w, returning -1, 0 or +1. It reports an error for
// incomparable kinds (e.g. string vs int, or any ordering involving null
// other than null against null, which is 0).
func (v Value) Compare(w Value) (int, error) {
	switch {
	case v.kind == KindNull && w.kind == KindNull:
		return 0, nil
	case v.kind == KindNull || w.kind == KindNull:
		return 0, fmt.Errorf("value: cannot order %s against %s", v.kind, w.kind)
	case v.numeric() && w.numeric():
		a, b := v.AsFloat(), w.AsFloat()
		switch {
		case a < b:
			return -1, nil
		case a > b:
			return 1, nil
		default:
			return 0, nil
		}
	case v.kind == KindString && w.kind == KindString:
		switch {
		case v.s < w.s:
			return -1, nil
		case v.s > w.s:
			return 1, nil
		default:
			return 0, nil
		}
	case v.kind == KindBool && w.kind == KindBool:
		return cmp.Compare(v.n, w.n), nil
	default:
		return 0, fmt.Errorf("value: cannot order %s against %s", v.kind, w.kind)
	}
}

// ArithOp identifies a binary arithmetic operator from the paper's FV set.
type ArithOp uint8

// The arithmetic operators of the CL value function set FV = {+,-,*,/}.
const (
	OpAdd ArithOp = iota
	OpSub
	OpMul
	OpDiv
)

// String returns the operator symbol.
func (op ArithOp) String() string {
	switch op {
	case OpAdd:
		return "+"
	case OpSub:
		return "-"
	case OpMul:
		return "*"
	case OpDiv:
		return "/"
	default:
		return fmt.Sprintf("arith(%d)", uint8(op))
	}
}

// Arith applies op to two values. Null operands propagate null. Integer
// operands stay integral except for division, which promotes to float when
// the quotient is not exact; division by zero is an error.
func Arith(op ArithOp, a, b Value) (Value, error) {
	if a.IsNull() || b.IsNull() {
		return Null(), nil
	}
	if !a.numeric() || !b.numeric() {
		return Null(), fmt.Errorf("value: arithmetic %s on %s and %s", op, a.kind, b.kind)
	}
	if a.kind == KindInt && b.kind == KindInt {
		// Integer arithmetic is exact or an error — never a silent wrap.
		// The static safety analyzer's monotone-direction proofs (an update
		// moving a value away from a threshold cannot violate it) rely on a
		// committed x+k really being ≥ x for k ≥ 0; a wrapping add would
		// break that, so overflow aborts the statement instead.
		x, y := a.i(), b.i()
		switch op {
		case OpAdd:
			r := x + y
			if (y > 0 && r < x) || (y < 0 && r > x) {
				return Null(), fmt.Errorf("value: integer overflow in %d + %d", x, y)
			}
			return Int(r), nil
		case OpSub:
			r := x - y
			if (y > 0 && r > x) || (y < 0 && r < x) {
				return Null(), fmt.Errorf("value: integer overflow in %d - %d", x, y)
			}
			return Int(r), nil
		case OpMul:
			if x != 0 && y != 0 {
				r := x * y
				if r/y != x || (x == math.MinInt64 && y == -1) {
					return Null(), fmt.Errorf("value: integer overflow in %d * %d", x, y)
				}
				return Int(r), nil
			}
			return Int(0), nil
		case OpDiv:
			if y == 0 {
				return Null(), fmt.Errorf("value: division by zero")
			}
			if x == math.MinInt64 && y == -1 {
				return Null(), fmt.Errorf("value: integer overflow in %d / %d", x, y)
			}
			if x%y == 0 {
				return Int(x / y), nil
			}
			return Float(float64(x) / float64(y)), nil
		}
	}
	x, y := a.AsFloat(), b.AsFloat()
	switch op {
	case OpAdd:
		return Float(x + y), nil
	case OpSub:
		return Float(x - y), nil
	case OpMul:
		return Float(x * y), nil
	case OpDiv:
		if y == 0 {
			return Null(), fmt.Errorf("value: division by zero")
		}
		return Float(x / y), nil
	}
	return Null(), fmt.Errorf("value: unknown arithmetic operator %v", op)
}

// Footprint reports the measured resident size of the value in bytes: the
// struct itself plus the string payload it references.
func (v Value) Footprint() int64 {
	return int64(unsafe.Sizeof(v)) + int64(len(v.s))
}

// Key encoding. AppendOrderedKey is the one byte encoding of a value as a
// key: the identity of a tuple in its relation (relation.Tuple.Key), the key
// of every index entry and probe (relation.Tuple.KeyOn), the build and probe
// keys of hash joins, and the probed keys and intervals the commit validator
// intersects. Two values encode alike iff they are the same set element
// (Int(1) and Float(1.0) share a key, -0.0 collapses onto +0.0), and
// bytes.Compare over encodings agrees with Sort over values, so a key
// interval is a value interval.
//
// Each value encodes as a kind-rank byte — ordered like Sort's kind ranks:
// null < bool < numeric < string — followed by a payload whose byte order
// matches the value order within the kind:
//
//   - numerics go through their float64 image with the classic monotone bit
//     transform: flip the sign bit of non-negatives, flip every bit of
//     negatives;
//   - strings escape embedded NUL (0x00 -> 0x00 0xFF) and close with a 0x00
//     terminator, so no string's encoding is cut short by another's and
//     prefix strings sort first, exactly like the raw strings do.
//
// Every encoding is self-delimiting, so a concatenation of encodings names
// its value sequence and compares column by column. The rank bytes leave
// gaps below OrderedRankNull and above OrderedRankEnd so range bounds can be
// widened per kind, and no payload byte stream ever begins with 0xFF after a
// complete value encoding — which is what lets a half-open key interval
// [lo, hi) express every bound shape (see index.RangesFor).
const (
	OrderedRankNull   = 0x10 // null
	OrderedRankBool   = 0x20 // false < true
	OrderedRankNumber = 0x30 // ints and floats through their float64 image
	OrderedRankString = 0x40 // escaped bytes, 0x00-terminated
	OrderedRankEnd    = 0x50 // exclusive upper bound of all rank bytes
)

// OrderedRank returns the rank byte that starts every key encoding of a
// value of kind k. Int and Float share OrderedRankNumber.
func OrderedRank(k Kind) byte {
	switch k {
	case KindNull:
		return OrderedRankNull
	case KindBool:
		return OrderedRankBool
	case KindInt, KindFloat:
		return OrderedRankNumber
	case KindString:
		return OrderedRankString
	default:
		return OrderedRankEnd
	}
}

// AppendOrderedKey appends the key encoding of v to dst (see above): two
// values share a key iff they are the same set element, and for any two
// non-NaN values a and b, bytes.Compare of their encodings equals Sort(a, b).
// Equal values always share a key; the converse fails only where Equal is
// not an equivalence or the float64 image is lossy: a NaN shares a key with
// the NaN of the same bits, and Int(2⁵³) with Int(2⁵³+1). NaN floats have
// no consistent position in the value order — Compare answers 0 for NaN
// against any number — so they encode to the band edges (negative NaNs below
// -Inf, positive NaNs above +Inf) and range-probe planners admit them
// explicitly (index.RangesFor includeNaN).
func (v Value) AppendOrderedKey(dst []byte) []byte {
	switch v.kind {
	case KindNull:
		return append(dst, OrderedRankNull)
	case KindBool:
		if v.b() {
			return append(dst, OrderedRankBool, 1)
		}
		return append(dst, OrderedRankBool, 0)
	case KindInt, KindFloat:
		bits := v.orderedBits()
		dst = append(dst, OrderedRankNumber)
		return append(dst,
			byte(bits>>56), byte(bits>>48), byte(bits>>40), byte(bits>>32),
			byte(bits>>24), byte(bits>>16), byte(bits>>8), byte(bits))
	case KindString:
		dst = append(dst, OrderedRankString)
		// Append NUL-free runs whole: keys are built per tuple on every
		// commit, probe and join, and most strings hold no NUL at all.
		s := v.s
		for {
			i := strings.IndexByte(s, 0x00)
			if i < 0 {
				break
			}
			dst = append(dst, s[:i+1]...)
			dst = append(dst, 0xFF)
			s = s[i+1:]
		}
		dst = append(dst, s...)
		return append(dst, 0x00)
	default:
		return append(dst, OrderedRankEnd)
	}
}

// OrderedKeyLen returns the length of v's key encoding (AppendOrderedKey),
// so a key builder can allocate its buffer once, at its final size.
func (v Value) OrderedKeyLen() int {
	switch v.kind {
	case KindNull:
		return 1
	case KindBool:
		return 2
	case KindInt, KindFloat:
		return 9
	case KindString:
		return 2 + len(v.s) + strings.Count(v.s, "\x00")
	default:
		return 1
	}
}

// orderedBits is the numeric payload of the key encoding: the float64 image
// of v (-0.0 collapsed onto +0.0) under the monotone bit transform, so
// unsigned order is value order.
func (v Value) orderedBits() uint64 {
	f := v.f()
	if v.kind == KindInt {
		f = float64(v.i())
	}
	if f == 0 {
		f = 0 // collapse -0.0 onto +0.0, matching Equal
	}
	bits := math.Float64bits(f)
	// Negatives flip every bit (reversing magnitude order), non-negatives
	// only the sign bit (sorting them after): XOR with the sign smeared
	// across the word, sign bit always set.
	return bits ^ (uint64(int64(bits)>>63) | 1<<63)
}

// CompareKey returns the sign of bytes.Compare over the key encodings of v
// and w (AppendOrderedKey), computed without building either: 0 exactly when
// they share a key. Ordered containers use it to tell tuples apart by
// identity without materialising a key string per comparison.
func (v Value) CompareKey(w Value) int {
	a, b := OrderedRank(v.kind), OrderedRank(w.kind)
	if a != b {
		return cmp.Compare(a, b)
	}
	switch a {
	case OrderedRankNumber:
		return cmp.Compare(v.orderedBits(), w.orderedBits())
	case OrderedRankString:
		// The escape maps NUL to 0x00 0xFF and the terminator is 0x00, so the
		// encodings compare as the raw strings do.
		return strings.Compare(v.s, w.s)
	case OrderedRankBool:
		return cmp.Compare(v.n, w.n)
	}
	return 0
}

// DecodeOrderedKey decodes the first value of a key encoding,
// returning it and the remaining bytes. Numerics decode as Float (the
// encoding collapses Int(1) and Float(1.0) onto one image, so the decoded
// value is Equal to the original rather than identical). It is the
// round-trip witness the key-encoding fuzz target checks.
func DecodeOrderedKey(key []byte) (Value, []byte, error) {
	if len(key) == 0 {
		return Null(), nil, fmt.Errorf("value: empty ordered key")
	}
	switch key[0] {
	case OrderedRankNull:
		return Null(), key[1:], nil
	case OrderedRankBool:
		if len(key) < 2 {
			return Null(), nil, fmt.Errorf("value: truncated ordered bool")
		}
		return Bool(key[1] != 0), key[2:], nil
	case OrderedRankNumber:
		if len(key) < 9 {
			return Null(), nil, fmt.Errorf("value: truncated ordered number")
		}
		bits := uint64(key[1])<<56 | uint64(key[2])<<48 | uint64(key[3])<<40 |
			uint64(key[4])<<32 | uint64(key[5])<<24 | uint64(key[6])<<16 |
			uint64(key[7])<<8 | uint64(key[8])
		if bits&(1<<63) != 0 {
			bits &^= 1 << 63
		} else {
			bits = ^bits
		}
		return Float(math.Float64frombits(bits)), key[9:], nil
	case OrderedRankString:
		var sb strings.Builder
		for i := 1; i < len(key); i++ {
			switch key[i] {
			case 0x00:
				if i+1 < len(key) && key[i+1] == 0xFF {
					sb.WriteByte(0x00)
					i++
					continue
				}
				return String(sb.String()), key[i+1:], nil
			default:
				sb.WriteByte(key[i])
			}
		}
		return Null(), nil, fmt.Errorf("value: unterminated ordered string")
	default:
		return Null(), nil, fmt.Errorf("value: unknown ordered rank byte %#x", key[0])
	}
}

// String renders v for display: strings are quoted, null prints as "null".
func (v Value) String() string {
	switch v.kind {
	case KindNull:
		return "null"
	case KindInt:
		return strconv.FormatInt(v.i(), 10)
	case KindFloat:
		return strconv.FormatFloat(v.f(), 'g', -1, 64)
	case KindString:
		return strconv.Quote(v.s)
	case KindBool:
		return strconv.FormatBool(v.b())
	default:
		return "?"
	}
}

// Sort orders arbitrary values deterministically for display and tests:
// first by kind rank (null < bool < numeric < string), then by payload.
func Sort(a, b Value) int {
	ra, rb := sortRank(a), sortRank(b)
	if ra != rb {
		return ra - rb
	}
	c, err := a.Compare(b)
	if err != nil {
		return 0
	}
	return c
}

func sortRank(v Value) int {
	switch v.kind {
	case KindNull:
		return 0
	case KindBool:
		return 1
	case KindInt, KindFloat:
		return 2
	case KindString:
		return 3
	default:
		return 4
	}
}
