package value

import (
	"bytes"
	"math"
	"testing"
)

// fuzzValue materializes one Value from fuzz primitives. The selector picks
// the kind; the unused payloads are ignored, so the fuzzer can mutate each
// independently.
func fuzzValue(sel uint8, i int64, f float64, s string, b bool) Value {
	switch sel % 5 {
	case 0:
		return Null()
	case 1:
		return Int(i)
	case 2:
		return Float(f)
	case 3:
		return String(s)
	default:
		return Bool(b)
	}
}

// FuzzOrderedKey asserts the contracts that tuple identity, indexes and
// interval reads stand on:
//
//   - Identity: Equal values share one key, and two values share a key iff
//     CompareKey ties them — the tree's allocation-free tie-break and the
//     relation trie's key can never disagree. The converse of the first
//     does not hold: NaN is not Equal to itself, and Int(2⁵³) and
//     Int(2⁵³+1) share a float64 image. This half runs on NaN too.
//   - Order preservation: bytes.Compare over AppendOrderedKey encodings
//     agrees with Sort over the values — across kinds (null < bool <
//     numeric < string), for negative floats (whose raw IEEE image would
//     sort wrongly), for -0.0 (which must both equal +0.0 and sort like
//     it), and for int/float mixes (Int(1) and Float(1.0) share one key).
//     NaN floats are skipped here: Compare answers 0 for NaN against any
//     number, an "equal to everything" that no byte order can represent.
//     NaN never becomes a range-probe bound (extractConstBounds drops it),
//     and NaN data is admitted into probe intervals explicitly
//     (index.RangesFor includeNaN), which TestRangeProbeNaNData pins at the
//     facade.
//   - Round-trip stability: DecodeOrderedKey over a concatenation of
//     encodings yields values Equal to the originals with nothing left
//     over, so an encoded key deterministically names its value sequence.
//   - Binary codec fidelity: AppendBinary then DecodeBinary over a
//     concatenation of two values gives back each kind and a bit-identical
//     payload (NaN bits and -0.0 included), with nothing left over — the
//     encoding the WAL and checkpoints persist tuples in.
func FuzzOrderedKey(f *testing.F) {
	f.Add(uint8(1), int64(1), 1.0, "", false, uint8(2), int64(0), 1.0, "", false)
	f.Add(uint8(2), int64(0), math.Copysign(0, -1), "", false, uint8(2), int64(0), 0.0, "", false)
	f.Add(uint8(2), int64(0), -1.5, "", false, uint8(2), int64(0), 1.5, "", false)
	f.Add(uint8(2), int64(0), math.Inf(-1), "", false, uint8(2), int64(0), math.Inf(1), "", false)
	f.Add(uint8(3), int64(0), 0.0, "a", false, uint8(3), int64(0), 0.0, "a\x00", false)
	f.Add(uint8(3), int64(0), 0.0, "a\x00b", false, uint8(3), int64(0), 0.0, "ab", false)
	f.Add(uint8(0), int64(0), 0.0, "", false, uint8(4), int64(0), 0.0, "", true)
	f.Add(uint8(1), int64(-9007199254740993), 0.0, "", false, uint8(1), int64(-9007199254740992), 0.0, "", false)
	f.Add(uint8(2), int64(0), math.NaN(), "", false, uint8(2), int64(0), math.NaN(), "", false)
	f.Fuzz(func(t *testing.T,
		selA uint8, iA int64, fA float64, sA string, bA bool,
		selB uint8, iB int64, fB float64, sB string, bB bool) {
		a := fuzzValue(selA, iA, fA, sA, bA)
		b := fuzzValue(selB, iB, fB, sB, bB)
		ka := a.AppendOrderedKey(nil)
		kb := b.AppendOrderedKey(nil)

		if a.Equal(b) && !bytes.Equal(ka, kb) {
			t.Fatalf("Equal(%s, %s) but keys differ: %x vs %x", a, b, ka, kb)
		}
		if same, tie := bytes.Equal(ka, kb), a.CompareKey(b) == 0; same != tie {
			t.Fatalf("equal keys %v but CompareKey tie %v for (%s, %s)", same, tie, a, b)
		}

		// Byte order must agree with value order. Sort is total here: within
		// a rank, Compare only refuses pairs involving null, and null is
		// alone in its rank.
		nan := (a.Kind() == KindFloat && math.IsNaN(a.AsFloat())) ||
			(b.Kind() == KindFloat && math.IsNaN(b.AsFloat()))
		if got, want := sign(bytes.Compare(ka, kb)), sign(Sort(a, b)); !nan && got != want {
			t.Fatalf("bytes.Compare(enc(%s), enc(%s)) = %d, Sort = %d", a, b, got, want)
		}

		// Round trip through a two-value key, as tuples encode.
		key := append(append([]byte(nil), ka...), kb...)
		da, rest, err := DecodeOrderedKey(key)
		if err != nil {
			t.Fatalf("decode first of %x: %v", key, err)
		}
		db, rest, err := DecodeOrderedKey(rest)
		if err != nil {
			t.Fatalf("decode second of %x: %v", key, err)
		}
		if len(rest) != 0 {
			t.Fatalf("decode left %d bytes of %x", len(rest), key)
		}
		if !nan && (!da.Equal(a) || !db.Equal(b)) {
			t.Fatalf("round trip (%s, %s) -> (%s, %s)", a, b, da, db)
		}
		// Re-encoding the decoded values must reproduce the key bytes
		// exactly (int collapses onto its float image, as Equal demands; a
		// NaN, which Equals nothing, keeps its bits).
		if rek := db.AppendOrderedKey(da.AppendOrderedKey(nil)); !bytes.Equal(rek, key) {
			t.Fatalf("re-encode of (%s, %s): %x != %x", da, db, rek, key)
		}

		bin := b.AppendBinary(a.AppendBinary(nil))
		ba, rest, err := DecodeBinary(bin)
		if err != nil {
			t.Fatalf("binary decode first of %x: %v", bin, err)
		}
		bb, rest, err := DecodeBinary(rest)
		if err != nil {
			t.Fatalf("binary decode second of %x: %v", bin, err)
		}
		if len(rest) != 0 {
			t.Fatalf("binary decode left %d bytes of %x", len(rest), bin)
		}
		for _, p := range [][2]Value{{a, ba}, {b, bb}} {
			if want, got := p[0], p[1]; got.kind != want.kind || got.n != want.n || got.s != want.s {
				t.Fatalf("binary round trip %s (%s, %#x) -> %s (%s, %#x)",
					want, want.kind, want.n, got, got.kind, got.n)
			}
		}
	})
}
