package index

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/relation"
	"repro/internal/schema"
	"repro/internal/value"
)

// The ordered-index property tests drive Apply/Range across commit
// generations against a sort-the-slice model, in the style of
// relation/prop_test.go: the model is a plain slice of tuples re-sorted by
// ordered key for every query, so any divergence in the tree's order, its
// path copying or its sharing shows up as a membership or count mismatch.

func ordPropSchema() *schema.Relation {
	return schema.MustRelation("s",
		schema.Attribute{Name: "tag", Type: value.KindString},
		schema.Attribute{Name: "qty", Type: value.KindInt},
	)
}

// ordPropTuple builds tuples over a small vocabulary engineered for
// key-prefix collisions in the ordered string encoding: "a", "a\x00" (the
// escaped-NUL case, whose encoding extends "a"'s), "ab" and "" exercise the
// terminator and escape paths, and qty collides across tags.
var ordPropTags = []string{"", "a", "a\x00", "a\x00b", "ab", "b", "\x00"}

func ordPropTuple(rng *rand.Rand) relation.Tuple {
	return relation.Tuple{
		value.String(ordPropTags[rng.Intn(len(ordPropTags))]),
		value.Int(int64(rng.Intn(8))),
	}
}

// ordModel answers range queries by sorting the slice.
type ordModel struct {
	cols   []int
	tuples map[string]relation.Tuple // canonical tuple key -> tuple
}

func (m *ordModel) inRange(kr KeyRange) []string {
	var keys []string
	for tk, tu := range m.tuples {
		if kr.Contains(tu.KeyOn(m.cols)) {
			keys = append(keys, tk)
		}
	}
	sort.Strings(keys)
	return keys
}

func (m *ordModel) clone() *ordModel {
	c := &ordModel{cols: m.cols, tuples: make(map[string]relation.Tuple, len(m.tuples))}
	for k, v := range m.tuples {
		c.tuples[k] = v
	}
	return c
}

// verifyOrdered cross-checks the index against the model over a sweep of
// intervals: the full key space, every single-tag prefix band, and random
// qty-bounded intervals under each tag.
func verifyOrdered(t *testing.T, x *Index, m *ordModel, rng *rand.Rand) {
	t.Helper()
	if x.Len() != len(m.tuples) {
		t.Fatalf("Len = %d, model has %d", x.Len(), len(m.tuples))
	}
	checkTree(t, x)
	check := func(kr KeyRange) {
		t.Helper()
		var got []string
		for _, tu := range x.Range(kr) {
			got = append(got, tu.Key())
		}
		sort.Strings(got)
		want := m.inRange(kr)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("Range(%x, %x) = %d tuples, model %d", kr.Lo, kr.Hi, len(got), len(want))
		}
	}
	// Whole key space.
	check(KeyRange{Lo: string([]byte{value.OrderedRankNull}), Hi: string([]byte{value.OrderedRankEnd})})
	// Per-tag band plus random qty intervals inside it.
	for _, tag := range ordPropTags {
		prefix := value.String(tag).AppendOrderedKey(nil)
		check(KeyRange{
			Lo: string(prefix) + string([]byte{value.OrderedRankNumber}),
			Hi: string(prefix) + string([]byte{value.OrderedRankNumber + 0x10}),
		})
		lo, hi := int64(rng.Intn(8)), int64(rng.Intn(8))
		var loV, hiV *value.Value
		l, h := value.Int(lo), value.Int(hi)
		loV, hiV = &l, &h
		for _, kr := range RangesFor([]value.Value{value.String(tag)}, value.KindInt,
			loV, hiV, rng.Intn(2) == 0, rng.Intn(2) == 0, false, rng.Intn(2) == 0) {
			check(kr)
		}
	}
}

// TestOrderedAgainstSortedSliceModel drives random commit generations —
// net insert/delete deltas applied with Apply, divergent successors of a
// shared base (the Database.Clone sharing pattern) — against the
// sort-the-slice model in lockstep.
func TestOrderedAgainstSortedSliceModel(t *testing.T) {
	s := ordPropSchema()
	cols := []int{0, 1}
	for _, seed := range []int64{1, 7, 42} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			type gen struct {
				x *Index
				m *ordModel
			}
			base := relation.New(s)
			m0 := &ordModel{cols: cols, tuples: map[string]relation.Tuple{}}
			for i := 0; i < 30; i++ {
				tu := ordPropTuple(rng)
				base.InsertUnchecked(tu)
				m0.tuples[tu.Key()] = tu
			}
			gens := []*gen{{x: Build(base, cols), m: m0}}
			for step := 0; step < 400; step++ {
				g := gens[rng.Intn(len(gens))]
				// Build a net delta respecting the overlay invariant: ins
				// tuples absent from the instance, del tuples present.
				ins, del := relation.New(s), relation.New(s)
				for i := rng.Intn(4); i > 0; i-- {
					tu := ordPropTuple(rng)
					if _, ok := g.m.tuples[tu.Key()]; !ok && !ins.Contains(tu) {
						ins.InsertUnchecked(tu)
					}
				}
				for _, tu := range g.m.tuples {
					if rng.Intn(12) == 0 {
						del.InsertUnchecked(tu)
					}
					if del.Len() >= 3 {
						break
					}
				}
				next := g.x.Apply(ins, del)
				nm := g.m.clone()
				_ = ins.ForEachKey(func(k string, tu relation.Tuple) error {
					nm.tuples[k] = tu
					return nil
				})
				_ = del.ForEachKey(func(k string, tu relation.Tuple) error {
					delete(nm.tuples, k)
					return nil
				})
				if rng.Intn(3) == 0 && len(gens) < 6 {
					// Divergent successor: keep the predecessor generation
					// alive too, sharing nodes with the successor.
					gens = append(gens, &gen{x: next, m: nm})
				} else {
					g.x, g.m = next, nm
				}
				if step%37 == 0 {
					for _, q := range gens {
						verifyOrdered(t, q.x, q.m, rng)
					}
				}
			}
			for _, q := range gens {
				verifyOrdered(t, q.x, q.m, rng)
			}
		})
	}
}

// TestOrderedManySmallDeltas pushes many one-tuple deltas, the commit shape
// the engine produces, and checks the result against the model.
func TestOrderedManySmallDeltas(t *testing.T) {
	s := ordPropSchema()
	base := relation.New(s)
	for i := 0; i < 64; i++ {
		base.InsertUnchecked(relation.Tuple{value.String(fmt.Sprintf("t%02d", i%4)), value.Int(int64(i))})
	}
	x := Build(base, []int{0, 1})
	m := &ordModel{cols: []int{0, 1}, tuples: map[string]relation.Tuple{}}
	_ = base.ForEachKey(func(k string, tu relation.Tuple) error {
		m.tuples[k] = tu
		return nil
	})
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 200; i++ {
		tu := relation.Tuple{value.String(fmt.Sprintf("t%02d", rng.Intn(4))), value.Int(int64(1000 + i))}
		x = x.Apply(relation.MustFromTuples(s, tu), nil)
		m.tuples[tu.Key()] = tu
	}
	verifyOrdered(t, x, m, rng)
}
