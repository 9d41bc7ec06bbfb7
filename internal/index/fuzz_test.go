package index

import (
	"maps"
	"slices"
	"testing"

	"repro/internal/relation"
	"repro/internal/schema"
	"repro/internal/value"
)

// fuzzLine is one of the two successor lines FuzzIndexApply derives from a
// shared base: an index over column b, one over the column list (s, b), and
// the model they must agree with.
type fuzzLine struct {
	x, pre *Index
	model  map[string]relation.Tuple
}

// check compares the index's equal-key walk and its interval walk with a
// filtered scan of the model under the key of tu, and its size with the
// model's.
func (l *fuzzLine) check(t *testing.T, tu relation.Tuple) {
	t.Helper()
	cols := l.x.Cols()
	key := tu.KeyOn(cols)
	var want []string
	for k, m := range l.model {
		if m.KeyOn(cols) == key {
			want = append(want, k)
		}
	}
	slices.Sort(want)
	if got := keysOf(l.x.Probe(key)); !slices.Equal(got, want) {
		t.Fatalf("Probe(%v) holds %d tuples, the model %d", tu, len(got), len(want))
	}
	if got := keysOf(l.x.Range(KeyRange{Lo: key, Hi: key + "\xff"})); !slices.Equal(got, want) {
		t.Fatalf("Range(%v) holds %d tuples, the model %d", tu, len(got), len(want))
	}
	if l.x.Len() != len(l.model) {
		t.Fatalf("Len = %d; the model holds %d", l.x.Len(), len(l.model))
	}
}

// checkPrefix compares a probe of the (s, b) index with the key of tu's s
// alone — an equality on the leading column of a two-column index — with a
// filtered scan of the model. The s values make some keys byte prefixes of
// others (enc("ab") of enc("ab\x00c")), which a byte-prefix walk would
// wrongly admit.
func (l *fuzzLine) checkPrefix(t *testing.T, tu relation.Tuple) {
	t.Helper()
	lead := l.pre.Cols()[:1]
	key := tu.KeyOn(lead)
	var want []string
	for k, m := range l.model {
		if m.KeyOn(lead) == key {
			want = append(want, k)
		}
	}
	slices.Sort(want)
	if got := keysOf(l.pre.Probe(key)); !slices.Equal(got, want) {
		t.Fatalf("Probe of s = %q holds %d tuples, the model %d", tu[2].AsString(), len(got), len(want))
	}
}

// fuzzStrings are the s values of fuzzTuple, indexed by a: strings whose
// key encodings are byte prefixes of one another's.
var fuzzStrings = [8]string{"", "a", "ab", "ab\x00", "ab\x00c", "ab\x00\x00", "\x00", "b"}

// fuzzTuple decodes one byte into a tuple over (a, b, s) with 8 × 4
// distinct values, s determined by a; bit 5 spells a and b as floats, which
// must not change which tuple it is.
func fuzzTuple(c byte) relation.Tuple {
	a, b := int64(c&7), int64(c>>3&3)
	s := value.String(fuzzStrings[a])
	if c&32 != 0 {
		return relation.Tuple{value.Float(float64(a)), value.Float(float64(b)), s}
	}
	return relation.Tuple{value.Int(a), value.Int(b), s}
}

func fuzzSchema() *schema.Relation {
	return schema.MustRelation("f",
		schema.Attribute{Name: "a", Type: value.KindFloat},
		schema.Attribute{Name: "b", Type: value.KindFloat},
		schema.Attribute{Name: "s", Type: value.KindString},
	)
}

// FuzzIndexApply reads its input as operations: an operation byte, then
// (op>>3&3)+1 tuple bytes. Bit 2 of the operation byte picks one of two
// lines; its low two bits pick an Apply (0 or 1), a probe and range (2), or
// a probe of the leading column of the (s, b) index (3). An Apply sends all
// the operation's tuples in one delta, each to the
// deletes when bit 6 of its byte is set and to the inserts otherwise, so
// one Apply mixes both and reaches nodes it copied itself earlier. Both
// lines start from one base built over the tuples the first bytes name, so
// they share nodes from then on. After every operation the line is checked
// against its model under each of the tuples, and so are the other line
// and the line's previous generation, neither of which may have seen the
// write. Inserts of resident tuples and deletes of absent ones are sent
// through Apply as they are.
func FuzzIndexApply(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 1, 2, 3, 0, 9, 4, 9, 1, 9, 5, 41, 2, 9, 7, 9})
	f.Add([]byte{8, 40, 16, 48, 0, 8, 4, 40, 1, 8, 5, 8, 3, 8})
	f.Add([]byte{0, 0, 0, 32, 1, 32, 1, 0, 4, 0, 5, 32, 0, 0})
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23, 24, 25, 26, 27, 28, 29, 30, 31})
	// Updates: a tuple deleted and another under its key inserted in one Apply.
	f.Add([]byte{1, 9, 17, 25, 33, 41, 0, 24, 73, 17, 24, 65, 9, 25, 3, 9, 17})
	// Whole-line churn: four-tuple deltas mixing inserts and deletes.
	f.Add([]byte{0, 1, 2, 3, 4, 5, 24, 6, 7, 64, 65, 28, 66, 67, 8, 16, 24, 72, 80, 88, 96, 3, 0})
	// Resident inserts and absent deletes beside real changes in one Apply.
	f.Add([]byte{9, 17, 10, 16, 18, 81, 82, 10, 20, 16, 24, 73, 74, 90, 106, 2, 20})
	// Prefix probes: s = "ab" beside "ab\x00" and "ab\x00c", and s = ""
	// beside "\x00", before and after deletes and inserts of either.
	f.Add([]byte{2, 4, 3, 10, 12, 6, 3, 2, 27, 2, 3, 4, 10, 7, 0, 0, 66, 3, 2, 1, 6, 0, 3, 0, 31, 6, 0, 14, 8})
	f.Add([]byte{0, 6, 8, 14, 2, 5, 3, 0, 3, 6, 9, 2, 4, 3, 2, 1, 12, 3, 4, 11, 2, 12, 4, 5})
	f.Fuzz(func(t *testing.T, data []byte) {
		s := fuzzSchema()
		cols := []int{1}
		base := relation.New(s)
		head := min(len(data), 6)
		for _, c := range data[:head] {
			base.InsertUnchecked(fuzzTuple(c))
		}
		x, pre := Build(base, cols), Build(base, []int{2, 1})
		var lines [2]*fuzzLine
		for i := range lines {
			lines[i] = &fuzzLine{x: x, pre: pre, model: make(map[string]relation.Tuple)}
			_ = base.ForEachKey(func(k string, tu relation.Tuple) error {
				lines[i].model[k] = tu
				return nil
			})
		}
		data = data[head:]
		for len(data) >= 2 {
			op := data[0]
			n := min(int(op>>3&3)+1, len(data)-1)
			tus := data[1 : 1+n]
			data = data[1+n:]
			l, other := lines[op>>2&1], lines[op>>2&1^1]
			prev := fuzzLine{x: l.x, pre: l.pre, model: maps.Clone(l.model)}
			if op&3 < 2 {
				ins, del := relation.New(s), relation.New(s)
				for _, c := range tus {
					if c&64 != 0 {
						del.InsertUnchecked(fuzzTuple(c))
					} else {
						ins.InsertUnchecked(fuzzTuple(c))
					}
				}
				l.x, l.pre = l.x.Apply(ins, del), l.pre.Apply(ins, del)
				_ = del.ForEachKey(func(k string, _ relation.Tuple) error {
					delete(l.model, k)
					return nil
				})
				_ = ins.ForEachKey(func(k string, tu relation.Tuple) error {
					l.model[k] = tu
					return nil
				})
			}
			for _, c := range tus {
				tu := fuzzTuple(c)
				l.check(t, tu)
				other.check(t, tu)
				prev.check(t, tu)
				if op&3 == 3 {
					l.checkPrefix(t, tu)
					other.checkPrefix(t, tu)
					prev.checkPrefix(t, tu)
				}
			}
			checkTree(t, l.x)
			checkTree(t, l.pre)
		}
	})
}
