package index

import (
	"slices"
	"testing"

	"repro/internal/relation"
	"repro/internal/value"
)

// fuzzLine is one of the two successor lines FuzzIndexApply derives from a
// shared base: both index kinds over column b, and the model they must
// agree with.
type fuzzLine struct {
	hash  *Index
	ord   *Ordered
	model map[string]relation.Tuple
}

// check compares both indexes with a filtered scan of the model under the
// key of tu, and their sizes with the model's.
func (l *fuzzLine) check(t *testing.T, tu relation.Tuple) {
	t.Helper()
	cols := l.hash.Cols()
	hk, ok := tu.KeyOn(cols), tu.OrderedKeyOn(cols)
	var want []string
	for k, m := range l.model {
		if m.KeyOn(cols) == hk {
			want = append(want, k)
		}
	}
	slices.Sort(want)
	if got := keysOf(l.hash.Probe(hk)); !slices.Equal(got, want) {
		t.Fatalf("Probe(%v) holds %d tuples, the model %d", tu, len(got), len(want))
	}
	if got := keysOf(l.ord.Range(KeyRange{Lo: ok, Hi: ok + "\xff"})); !slices.Equal(got, want) {
		t.Fatalf("Range(%v) holds %d tuples, the model %d", tu, len(got), len(want))
	}
	if l.hash.Len() != len(l.model) || l.ord.Len() != len(l.model) {
		t.Fatalf("Len = %d, %d; the model holds %d", l.hash.Len(), l.ord.Len(), len(l.model))
	}
}

// fuzzTuple decodes one byte into a tuple over (a, b) with 8 × 4 distinct
// values; bit 5 spells both columns as floats, which must not change which
// tuple it is.
func fuzzTuple(c byte) relation.Tuple {
	a, b := int64(c&7), int64(c>>3&3)
	if c&32 != 0 {
		return relation.Tuple{value.Float(float64(a)), value.Float(float64(b))}
	}
	return relation.Tuple{value.Int(a), value.Int(b)}
}

// FuzzIndexApply reads its input two bytes at a time as (operation, tuple):
// the operation byte picks insert, delete, probe or range in its low two
// bits and one of two lines in bit 2. Both lines start from one base built
// over the tuples the first bytes name, so they share nodes from then on.
// After every operation the line is checked against its model, and so is the
// other line, which must not have seen the write. Inserts of resident tuples
// and deletes of absent ones are sent through Apply as they are.
func FuzzIndexApply(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 1, 2, 3, 0, 9, 4, 9, 1, 9, 5, 41, 2, 9, 7, 9})
	f.Add([]byte{8, 40, 16, 48, 0, 8, 4, 40, 1, 8, 5, 8, 3, 8})
	f.Add([]byte{0, 0, 0, 32, 1, 32, 1, 0, 4, 0, 5, 32, 0, 0})
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23, 24, 25, 26, 27, 28, 29, 30, 31})
	f.Fuzz(func(t *testing.T, data []byte) {
		s := numSchema()
		cols := []int{1}
		base := relation.New(s)
		head := min(len(data), 6)
		for _, c := range data[:head] {
			base.InsertUnchecked(fuzzTuple(c))
		}
		hash, ord := Build(base, cols), BuildOrdered(base, cols)
		var lines [2]*fuzzLine
		for i := range lines {
			lines[i] = &fuzzLine{hash: hash, ord: ord, model: make(map[string]relation.Tuple)}
			_ = base.ForEachKey(func(k string, tu relation.Tuple) error {
				lines[i].model[k] = tu
				return nil
			})
		}
		data = data[head:]
		for ; len(data) >= 2; data = data[2:] {
			op, tu := data[0], fuzzTuple(data[1])
			l, other := lines[op>>2&1], lines[op>>2&1^1]
			delta := relation.MustFromTuples(s, tu)
			switch op & 3 {
			case 0:
				l.hash, l.ord = l.hash.Apply(delta, nil), l.ord.Apply(delta, nil)
				l.model[tu.Key()] = tu
			case 1:
				l.hash, l.ord = l.hash.Apply(nil, delta), l.ord.Apply(nil, delta)
				delete(l.model, tu.Key())
			}
			l.check(t, tu)
			other.check(t, tu)
			checkTree(t, &l.hash.tree)
			checkTree(t, &l.ord.tree)
		}
	})
}
