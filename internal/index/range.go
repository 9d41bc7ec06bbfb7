package index

import (
	"math"

	"repro/internal/value"
)

// KeyRange is a half-open interval [Lo, Hi) over key encodings
// (value.AppendOrderedKey / relation.Tuple.KeyOn). Every bound shape a range
// probe produces — inclusive, exclusive, or kind-limited on either side —
// normalizes to this one form (see RangesFor), so both the index scan and
// the commit validator's interval-membership test are plain string
// comparisons.
type KeyRange struct {
	Lo, Hi string
}

// Contains reports whether the encoded key falls inside the interval.
func (kr KeyRange) Contains(key string) bool { return kr.Lo <= key && key < kr.Hi }

// Empty reports whether the interval can contain no key at all.
func (kr KeyRange) Empty() bool { return kr.Lo >= kr.Hi }

// RangesFor builds the probe intervals for a range predicate over one
// range-probed index: the index's leading prefix columns are fixed to eqVals
// (equality conjuncts), and the next column is bounded by lo and/or hi —
// constants of kind boundKind — with the given inclusivities. A missing
// bound falls back to the limit of boundKind's rank band, so intervals are
// always kind-limited and never need an "unbounded" representation.
//
// Normalization to half-open intervals leans on two encoding facts: no
// complete value encoding continues with 0xFF (string escapes emit 0xFF only
// after 0x00, numerics are fixed-width, rank bytes stop below 0xFF), and
// every encoding starts with its rank byte. Hence over both full index keys
// and prefix-projected keys:
//
//   - an exclusive lower bound "key > enc(v)" is "key >= enc(v) + 0xFF";
//   - an inclusive upper bound "key <= enc(v)" is "key < enc(v) + 0xFF".
//
// includeNull widens the result for negated comparisons, which null values
// satisfy (ordering against null is false, so its negation is true): either
// the main interval is extended down to the start of the column's key space,
// or — when a lower bound is present — a second point interval covering
// exactly the null encoding is added.
//
// includeNaN widens the result for inclusive numeric bounds, which NaN
// values satisfy (value.Compare answers 0 for NaN against any number, so
// NaN <= c and NaN >= c are true): the NaN encodings live below -Inf and
// above +Inf inside the numeric band, so whichever zones an explicit bound
// cut off are added back as extra intervals. The caller probes every
// returned interval and records each as an interval read.
func RangesFor(eqVals []value.Value, boundKind value.Kind,
	lo, hi *value.Value, loIncl, hiIncl, includeNull, includeNaN bool) []KeyRange {
	prefix := make([]byte, 0, 16*(len(eqVals)+1))
	for _, v := range eqVals {
		prefix = v.AppendOrderedKey(prefix)
	}
	rank := value.OrderedRank(boundKind)

	loKey := string(prefix) + string([]byte{rank})
	if lo != nil {
		loKey = string(lo.AppendOrderedKey(append([]byte(nil), prefix...)))
		if !loIncl {
			loKey += "\xff"
		}
	}
	hiKey := string(prefix) + string([]byte{rank + 0x10})
	if hi != nil {
		hiKey = string(hi.AppendOrderedKey(append([]byte(nil), prefix...)))
		if hiIncl {
			hiKey += "\xff"
		}
	}

	var out []KeyRange
	nullLo := string(prefix) + string([]byte{value.OrderedRankNull})
	switch {
	case includeNull && lo == nil:
		// No lower bound: one contiguous interval from the null encoding up.
		out = append(out, KeyRange{Lo: nullLo, Hi: hiKey})
	case includeNull:
		// A lower bound splits null off into its own point interval.
		out = append(out, KeyRange{Lo: nullLo, Hi: string(prefix) + string([]byte{value.OrderedRankNull + 1})})
		out = append(out, KeyRange{Lo: loKey, Hi: hiKey})
	default:
		out = append(out, KeyRange{Lo: loKey, Hi: hiKey})
	}
	if includeNaN && rank == value.OrderedRankNumber {
		// Negative NaNs encode below -Inf: a lower bound cut that zone off.
		if lo != nil {
			negInf := value.Float(math.Inf(-1))
			out = append(out, KeyRange{
				Lo: string(prefix) + string([]byte{rank}),
				Hi: string(negInf.AppendOrderedKey(append([]byte(nil), prefix...))),
			})
		}
		// Positive NaNs encode above +Inf: an upper bound cut that zone off.
		if hi != nil {
			posInf := value.Float(math.Inf(1))
			out = append(out, KeyRange{
				Lo: string(posInf.AppendOrderedKey(append([]byte(nil), prefix...))) + "\xff",
				Hi: string(prefix) + string([]byte{rank + 0x10}),
			})
		}
	}
	kept := out[:0]
	for _, kr := range out {
		if !kr.Empty() {
			kept = append(kept, kr)
		}
	}
	return kept
}
