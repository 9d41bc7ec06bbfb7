package value

import (
	"bytes"
	"math"
	"testing"
	"testing/quick"
	"unsafe"
)

func TestKindString(t *testing.T) {
	cases := map[Kind]string{
		KindNull: "null", KindInt: "int", KindFloat: "float",
		KindString: "string", KindBool: "bool", Kind(42): "kind(42)",
	}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", k, got, want)
		}
	}
}

// TestValueLayout pins the 32-byte layout (see Value) and that every
// payload survives the one shared word: edge ints, signed zeros, NaN bits,
// infinities, strings holding NUL, both bools.
func TestValueLayout(t *testing.T) {
	if got := unsafe.Sizeof(Value{}); got != 32 {
		t.Errorf("unsafe.Sizeof(Value{}) = %d, want 32", got)
	}
	var v Value
	if !v.IsNull() || v.Kind() != KindNull {
		t.Errorf("zero Value = %v, want null", v)
	}
	for _, i := range []int64{math.MinInt64, -1, 0, 1, math.MaxInt64} {
		if got := Int(i).AsInt(); got != i {
			t.Errorf("Int(%d).AsInt() = %d", i, got)
		}
	}
	for _, f := range []float64{
		math.Copysign(0, -1), 0, math.Inf(1), math.Inf(-1),
		math.Float64frombits(0x7ff8_0000_dead_beef), math.Float64frombits(0xfff0_0000_0000_0001),
		math.SmallestNonzeroFloat64, -math.MaxFloat64,
	} {
		if got := Float(f).AsFloat(); math.Float64bits(got) != math.Float64bits(f) {
			t.Errorf("Float(%#x).AsFloat() has bits %#x", math.Float64bits(f), math.Float64bits(got))
		}
	}
	for _, s := range []string{"", "a\x00b", "\x00"} {
		v := String(s)
		if got := v.AsString(); got != s {
			t.Errorf("String(%q).AsString() = %q", s, got)
		}
		if got, want := v.Footprint(), int64(32+len(s)); got != want {
			t.Errorf("String(%q).Footprint() = %d, want %d", s, got, want)
		}
	}
	for _, b := range []bool{false, true} {
		if got := Bool(b).AsBool(); got != b {
			t.Errorf("Bool(%v).AsBool() = %v", b, got)
		}
	}
}

func TestEqualBasics(t *testing.T) {
	cases := []struct {
		a, b Value
		want bool
	}{
		{Int(1), Int(1), true},
		{Int(1), Int(2), false},
		{Int(1), Float(1.0), true}, // numeric cross-kind
		{Float(1.5), Float(1.5), true},
		{String("a"), String("a"), true},
		{String("a"), String("b"), false},
		{Bool(true), Bool(true), true},
		{Bool(true), Bool(false), false},
		{Null(), Null(), true},
		{Null(), Int(0), false},
		{String("1"), Int(1), false},
		{Bool(true), Int(1), false},
	}
	for _, c := range cases {
		if got := c.a.Equal(c.b); got != c.want {
			t.Errorf("%v.Equal(%v) = %v, want %v", c.a, c.b, got, c.want)
		}
		if got := c.b.Equal(c.a); got != c.want {
			t.Errorf("Equal not symmetric for %v, %v", c.a, c.b)
		}
	}
}

func TestCompareOrdering(t *testing.T) {
	cases := []struct {
		a, b Value
		want int
	}{
		{Int(1), Int(2), -1},
		{Int(2), Int(1), 1},
		{Int(2), Int(2), 0},
		{Int(1), Float(1.5), -1},
		{Float(2.5), Int(2), 1},
		{String("a"), String("b"), -1},
		{String("b"), String("a"), 1},
		{Bool(false), Bool(true), -1},
		{Null(), Null(), 0},
	}
	for _, c := range cases {
		got, err := c.a.Compare(c.b)
		if err != nil {
			t.Errorf("%v.Compare(%v): %v", c.a, c.b, err)
			continue
		}
		if got != c.want {
			t.Errorf("%v.Compare(%v) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestCompareIncomparable(t *testing.T) {
	bad := [][2]Value{
		{String("a"), Int(1)},
		{Bool(true), Int(1)},
		{Null(), Int(1)},
		{Int(1), Null()},
		{String("a"), Bool(false)},
	}
	for _, pair := range bad {
		if _, err := pair[0].Compare(pair[1]); err == nil {
			t.Errorf("%v.Compare(%v) succeeded, want error", pair[0], pair[1])
		}
	}
}

func TestArithInt(t *testing.T) {
	cases := []struct {
		op   ArithOp
		a, b int64
		want Value
	}{
		{OpAdd, 2, 3, Int(5)},
		{OpSub, 2, 3, Int(-1)},
		{OpMul, 4, 3, Int(12)},
		{OpDiv, 6, 3, Int(2)},
		{OpDiv, 7, 2, Float(3.5)}, // inexact promotes
	}
	for _, c := range cases {
		got, err := Arith(c.op, Int(c.a), Int(c.b))
		if err != nil {
			t.Errorf("Arith(%v, %d, %d): %v", c.op, c.a, c.b, err)
			continue
		}
		if !got.Equal(c.want) {
			t.Errorf("Arith(%v, %d, %d) = %v, want %v", c.op, c.a, c.b, got, c.want)
		}
	}
}

func TestArithFloatPromotion(t *testing.T) {
	got, err := Arith(OpAdd, Int(1), Float(0.5))
	if err != nil {
		t.Fatal(err)
	}
	if got.Kind() != KindFloat || got.AsFloat() != 1.5 {
		t.Errorf("1 + 0.5 = %v, want 1.5 float", got)
	}
}

func TestArithNullPropagates(t *testing.T) {
	for _, op := range []ArithOp{OpAdd, OpSub, OpMul, OpDiv} {
		got, err := Arith(op, Null(), Int(1))
		if err != nil {
			t.Fatalf("Arith(%v, null, 1): %v", op, err)
		}
		if !got.IsNull() {
			t.Errorf("Arith(%v, null, 1) = %v, want null", op, got)
		}
	}
}

func TestArithErrors(t *testing.T) {
	if _, err := Arith(OpDiv, Int(1), Int(0)); err == nil {
		t.Error("1/0 succeeded, want error")
	}
	if _, err := Arith(OpDiv, Float(1), Float(0)); err == nil {
		t.Error("1.0/0.0 succeeded, want error")
	}
	if _, err := Arith(OpAdd, String("a"), Int(1)); err == nil {
		t.Error(`"a"+1 succeeded, want error`)
	}
	if _, err := Arith(OpAdd, Bool(true), Bool(false)); err == nil {
		t.Error("true+false succeeded, want error")
	}
}

func TestAsAccessorsPanicOnWrongKind(t *testing.T) {
	assertPanics := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		fn()
	}
	assertPanics("AsInt on string", func() { String("x").AsInt() })
	assertPanics("AsString on int", func() { Int(1).AsString() })
	assertPanics("AsBool on null", func() { Null().AsBool() })
	assertPanics("AsFloat on bool", func() { Bool(true).AsFloat() })
}

func TestAsFloatPromotesInt(t *testing.T) {
	if got := Int(3).AsFloat(); got != 3.0 {
		t.Errorf("Int(3).AsFloat() = %v, want 3", got)
	}
}

func TestString(t *testing.T) {
	cases := map[string]Value{
		"null":   Null(),
		"42":     Int(42),
		"1.5":    Float(1.5),
		`"hi"`:   String("hi"),
		"true":   Bool(true),
		"-7":     Int(-7),
		`"a\"b"`: String(`a"b`),
	}
	for want, v := range cases {
		if got := v.String(); got != want {
			t.Errorf("%#v.String() = %q, want %q", v, got, want)
		}
	}
}

// randomValue produces arbitrary values for property tests.
func randomValue(seed int64) Value {
	switch seed % 5 {
	case 0:
		return Null()
	case 1:
		return Int(seed / 5)
	case 2:
		return Float(float64(seed/5) / 3.0)
	case 3:
		return String(string(rune('a' + (seed/5)%26)))
	default:
		return Bool(seed%2 == 0)
	}
}

// TestKeyEncodingAgreesWithEqual is the core identity property: two values
// have the same key bytes iff Equal says they are the same.
func TestKeyEncodingAgreesWithEqual(t *testing.T) {
	prop := func(a, b int64) bool {
		va, vb := randomValue(a), randomValue(b)
		ka := va.AppendOrderedKey(nil)
		kb := vb.AppendOrderedKey(nil)
		return va.Equal(vb) == bytes.Equal(ka, kb)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestKeyEncodingIntFloatUnified(t *testing.T) {
	ka := Int(7).AppendOrderedKey(nil)
	kb := Float(7.0).AppendOrderedKey(nil)
	if !bytes.Equal(ka, kb) {
		t.Error("Int(7) and Float(7.0) encode differently but compare equal")
	}
}

// TestKeyEncodingNegativeZero: Equal(-0.0, 0.0) holds (IEEE ==), so the
// keys must collide too — index probes and hash joins key on the encoding,
// and a split key would make an indexed `x = 0.0` selection miss -0.0 rows
// (and the recorded probe key miss real conflicts).
func TestKeyEncodingNegativeZero(t *testing.T) {
	neg := Float(math.Copysign(0, -1))
	if !neg.Equal(Float(0)) {
		t.Fatal("-0.0 and 0.0 stopped comparing equal")
	}
	if !bytes.Equal(neg.AppendOrderedKey(nil), Float(0).AppendOrderedKey(nil)) {
		t.Error("-0.0 and 0.0 encode to different keys but compare equal")
	}
	if !bytes.Equal(neg.AppendOrderedKey(nil), Int(0).AppendOrderedKey(nil)) {
		t.Error("-0.0 and Int(0) encode to different keys but compare equal")
	}
}

// TestCompareKeyTiesAreKeyEncodingTies: CompareKey is the sign of
// bytes.Compare over the key encodings, NaNs included, over the values where
// Equal and the encoding part ways (NaN, ints beyond 2⁵³) or kinds collapse
// (int/float, ±0).
func TestCompareKeyTiesAreKeyEncodingTies(t *testing.T) {
	nan2 := math.Float64frombits(math.Float64bits(math.NaN()) ^ 1)
	negNaN := math.Float64frombits(math.Float64bits(math.NaN()) | 1<<63)
	vals := []Value{
		Null(), Bool(false), Bool(true), String(""), String("a"), String("a\x00"), String("a\x00b"),
		String("a\x01"), String("ab"), String("b"), String("\xff"),
		Int(0), Float(0), Float(math.Copysign(0, -1)), Int(1), Float(1), Float(1.5), Int(-1), Float(-1.5),
		Float(math.NaN()), Float(nan2), Float(negNaN), Float(math.Inf(1)), Float(math.Inf(-1)),
		Int(1 << 53), Int(1<<53 + 1), Int(math.MinInt64), Int(math.MaxInt64),
	}
	for _, a := range vals {
		for _, b := range vals {
			got := sign(a.CompareKey(b))
			if want := sign(bytes.Compare(a.AppendOrderedKey(nil), b.AppendOrderedKey(nil))); got != want {
				t.Errorf("CompareKey(%v, %v) = %d, bytes.Compare of encodings = %d", a, b, got, want)
			}
		}
	}
}

// TestCompareAntisymmetry checks Compare(a,b) = -Compare(b,a) whenever both
// succeed.
func TestCompareAntisymmetry(t *testing.T) {
	prop := func(a, b int64) bool {
		va, vb := randomValue(a), randomValue(b)
		c1, err1 := va.Compare(vb)
		c2, err2 := vb.Compare(va)
		if (err1 == nil) != (err2 == nil) {
			return false
		}
		if err1 != nil {
			return true
		}
		return sign(c1) == -sign(c2)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// TestArithCommutative checks + and * commute when defined.
func TestArithCommutative(t *testing.T) {
	prop := func(a, b int64, mul bool) bool {
		va, vb := randomValue(a), randomValue(b)
		op := OpAdd
		if mul {
			op = OpMul
		}
		r1, err1 := Arith(op, va, vb)
		r2, err2 := Arith(op, vb, va)
		if (err1 == nil) != (err2 == nil) {
			return false
		}
		if err1 != nil {
			return true
		}
		if r1.IsNull() || r2.IsNull() {
			return r1.IsNull() && r2.IsNull()
		}
		return math.Abs(r1.AsFloat()-r2.AsFloat()) < 1e-9
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestSortTotalOverKinds(t *testing.T) {
	vals := []Value{Null(), Bool(false), Bool(true), Int(-1), Int(3), Float(2.5), String("a"), String("b")}
	for i, a := range vals {
		for j, b := range vals {
			got := sign(Sort(a, b))
			want := sign(i - j)
			// Int(3) vs Float(2.5) are both numeric rank; Sort orders them
			// numerically, so skip the positional expectation there.
			if a.numeric() && b.numeric() {
				continue
			}
			if got != want {
				t.Errorf("Sort(%v, %v) = %d, want sign %d", a, b, got, want)
			}
		}
	}
}

func sign(n int) int {
	switch {
	case n < 0:
		return -1
	case n > 0:
		return 1
	default:
		return 0
	}
}
