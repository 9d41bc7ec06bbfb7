package index

import (
	"fmt"
	"reflect"
	"sort"
	"testing"

	"repro/internal/relation"
	"repro/internal/schema"
	"repro/internal/value"
)

func childSchema() *schema.Relation {
	return schema.MustRelation("child",
		schema.Attribute{Name: "id", Type: value.KindInt},
		schema.Attribute{Name: "parent", Type: value.KindInt},
		schema.Attribute{Name: "qty", Type: value.KindInt},
	)
}

func row(id, parent, qty int64) relation.Tuple {
	return relation.Tuple{value.Int(id), value.Int(parent), value.Int(qty)}
}

func probeIDs(x *Index, parent int64) []int64 {
	key := KeyVals([]value.Value{value.Int(parent)})
	var ids []int64
	for _, t := range x.Probe(key) {
		ids = append(ids, t[0].AsInt())
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

func TestBuildAndProbe(t *testing.T) {
	r := relation.MustFromTuples(childSchema(), row(1, 10, 5), row(2, 10, 7), row(3, 20, 1))
	x := Build(r, []int{1})
	if x.Len() != 3 {
		t.Fatalf("Len = %d, want 3", x.Len())
	}
	if got := probeIDs(x, 10); !reflect.DeepEqual(got, []int64{1, 2}) {
		t.Fatalf("probe parent=10: %v", got)
	}
	if got := probeIDs(x, 20); !reflect.DeepEqual(got, []int64{3}) {
		t.Fatalf("probe parent=20: %v", got)
	}
	if got := probeIDs(x, 99); got != nil {
		t.Fatalf("probe parent=99: %v, want empty", got)
	}
}

func TestApplyLayersNetDeltas(t *testing.T) {
	s := childSchema()
	r := relation.MustFromTuples(s, row(1, 10, 5), row(2, 10, 7), row(3, 20, 1))
	x := Build(r, []int{1})

	// Commit 1: insert (4,10), delete (1,10).
	x1 := x.Apply(relation.MustFromTuples(s, row(4, 10, 2)), relation.MustFromTuples(s, row(1, 10, 5)))
	if got := probeIDs(x1, 10); !reflect.DeepEqual(got, []int64{2, 4}) {
		t.Fatalf("after commit 1, probe parent=10: %v", got)
	}
	if x1.Len() != 3 {
		t.Fatalf("Len = %d, want 3", x1.Len())
	}
	// The base index is unchanged (immutability).
	if got := probeIDs(x, 10); !reflect.DeepEqual(got, []int64{1, 2}) {
		t.Fatalf("base mutated: probe parent=10: %v", got)
	}

	// Commit 2: re-insert the deleted tuple.
	x2 := x1.Apply(relation.MustFromTuples(s, row(1, 10, 5)), nil)
	if got := probeIDs(x2, 10); !reflect.DeepEqual(got, []int64{1, 2, 4}) {
		t.Fatalf("after commit 2, probe parent=10: %v", got)
	}

	// Commit 3: move tuple 3 from parent 20 to parent 30 (delete + insert).
	x3 := x2.Apply(relation.MustFromTuples(s, row(3, 30, 1)), relation.MustFromTuples(s, row(3, 20, 1)))
	if got := probeIDs(x3, 20); got != nil {
		t.Fatalf("after commit 3, probe parent=20: %v, want empty", got)
	}
	if got := probeIDs(x3, 30); !reflect.DeepEqual(got, []int64{3}) {
		t.Fatalf("after commit 3, probe parent=30: %v", got)
	}
}

func TestApplyEmptyDeltaReturnsReceiver(t *testing.T) {
	r := relation.MustFromTuples(childSchema(), row(1, 10, 5))
	x := Build(r, []int{1})
	if x.Apply(nil, nil) != x {
		t.Fatal("empty delta should return the receiver unchanged")
	}
	if x.Apply(relation.MustFromTuples(childSchema()), nil) != x {
		t.Fatal("empty relations should return the receiver unchanged")
	}
}

func TestManySingleTupleCommits(t *testing.T) {
	s := childSchema()
	var tuples []relation.Tuple
	for i := int64(0); i < 64; i++ {
		tuples = append(tuples, row(i, i%8, 1))
	}
	x := Build(relation.MustFromTuples(s, tuples...), []int{1})
	for i := int64(100); i < 200; i++ {
		x = x.Apply(relation.MustFromTuples(s, row(i, i%8, 1)), nil)
	}
	if x.Len() != 164 {
		t.Fatalf("Len = %d, want 164", x.Len())
	}
	// Every parent key must still resolve to the right cardinality.
	for p := int64(0); p < 8; p++ {
		got := probeIDs(x, p)
		// 100..199 is 12 full residue cycles plus the residues 4..7.
		want := 64/8 + 100/8
		if p >= 100%8 {
			want++
		}
		if len(got) != want {
			t.Fatalf("parent %d: %d matches, want %d", p, len(got), want)
		}
	}
}

func TestDivergentChainsShareBaseSafely(t *testing.T) {
	s := childSchema()
	base := Build(relation.MustFromTuples(s, row(1, 10, 5), row(2, 10, 7)), []int{1})
	// Two divergent histories off the same base (Database.Clone shape): a
	// write through a shared node would show up in the sibling.
	const commits = 9
	a, b := base, base
	for i := int64(0); i < commits; i++ {
		a = a.Apply(relation.MustFromTuples(s, row(100+i, 10, 1)), nil)
		b = b.Apply(relation.MustFromTuples(s, row(200+i, 10, 1)), nil)
	}
	ai, bi := probeIDs(a, 10), probeIDs(b, 10)
	if len(ai) != 2+commits || len(bi) != 2+commits {
		t.Fatalf("divergent probe sizes: %d, %d", len(ai), len(bi))
	}
	for _, id := range ai {
		if id >= 200 {
			t.Fatalf("history A sees history B's tuple %d", id)
		}
	}
	for _, id := range bi {
		if id >= 100 && id < 200 {
			t.Fatalf("history B sees history A's tuple %d", id)
		}
	}
	if got := probeIDs(base, 10); !reflect.DeepEqual(got, []int64{1, 2}) {
		t.Fatalf("base sees its successors' tuples: %v", got)
	}
}

func TestSetCoveringPrefersWidest(t *testing.T) {
	r := relation.MustFromTuples(childSchema(), row(1, 10, 5))
	xp := Build(r, []int{1})
	xpq := Build(r, []int{1, 2})
	s := NewSet(xp, xpq)
	if got := s.Covering([]int{1}); got != xp {
		t.Fatalf("Covering({1}) = %v, want the parent index", got)
	}
	if got := s.Covering([]int{1, 2}); got != xpq {
		t.Fatalf("Covering({1,2}) should prefer the widest covering index")
	}
	if got := s.Covering([]int{2, 1, 0}); got != xpq {
		t.Fatalf("Covering should be order-insensitive on the probe columns")
	}
	if got := s.Covering([]int{0}); got != nil {
		t.Fatalf("Covering({0}) = %v, want nil", got)
	}
	var nilSet *Set
	if nilSet.Covering([]int{1}) != nil || nilSet.Len() != 0 || nilSet.Exact([]int{1}) != nil {
		t.Fatal("nil Set must behave as empty")
	}
}

func TestSetApplyAndRebuild(t *testing.T) {
	s := childSchema()
	r := relation.MustFromTuples(s, row(1, 10, 5), row(2, 20, 5))
	set := NewSet(Build(r, []int{1}), Build(r, []int{0}))
	set2 := set.Apply(relation.MustFromTuples(s, row(3, 10, 1)), nil)
	if got := probeIDs(set2.Exact([]int{1}), 10); !reflect.DeepEqual(got, []int64{1, 3}) {
		t.Fatalf("applied set probe: %v", got)
	}
	if set.Exact([]int{1}).Len() != 2 {
		t.Fatal("Apply mutated the receiver set")
	}
	fresh := relation.MustFromTuples(s, row(9, 30, 1))
	reb := set.Rebuild(fresh)
	if got := probeIDs(reb.Exact([]int{1}), 30); !reflect.DeepEqual(got, []int64{9}) {
		t.Fatalf("rebuilt set probe: %v", got)
	}
	if reb.Exact([]int{0}) == nil {
		t.Fatal("Rebuild dropped an index")
	}
}

func TestParseDecl(t *testing.T) {
	cases := []struct {
		decl    string
		rel     string
		attrs   []string
		ordered bool
		wantErr bool
	}{
		{"child(parent)", "child", []string{"parent"}, false, false},
		{" child ( parent , qty ) ", "child", []string{"parent", "qty"}, false, false},
		{"child(qty) ordered", "child", []string{"qty"}, true, false},
		{" child ( qty , parent )  ordered ", "child", []string{"qty", "parent"}, true, false},
		{"child(ordered)", "child", []string{"ordered"}, false, false},
		{"child", "", nil, false, true},
		{"child()", "", nil, false, true},
		{"(parent)", "", nil, false, true},
		{"child(parent,parent)", "", nil, false, true},
		{"child(parent,)", "", nil, false, true},
		{"child(qty) sorted", "", nil, false, true},
	}
	for _, c := range cases {
		rel, attrs, ordered, err := ParseDecl(c.decl)
		if c.wantErr {
			if err == nil {
				t.Errorf("ParseDecl(%q): want error", c.decl)
			}
			continue
		}
		if err != nil {
			t.Errorf("ParseDecl(%q): %v", c.decl, err)
			continue
		}
		if rel != c.rel || !reflect.DeepEqual(attrs, c.attrs) || ordered != c.ordered {
			t.Errorf("ParseDecl(%q) = %q %v ordered=%v", c.decl, rel, attrs, ordered)
		}
	}
}

func TestSigAndKeyVals(t *testing.T) {
	if Sig([]int{0, 2}) != "0,2" || Sig(nil) != "" {
		t.Fatalf("Sig mismatch: %q", Sig([]int{0, 2}))
	}
	tup := row(1, 10, 5)
	if tup.KeyOn([]int{1}) != KeyVals([]value.Value{value.Int(10)}) {
		t.Fatal("KeyVals must match Tuple.KeyOn encoding")
	}
	if tup.KeyOn([]int{1, 2}) != KeyVals([]value.Value{value.Int(10), value.Int(5)}) {
		t.Fatal("multi-column KeyVals must match Tuple.KeyOn encoding")
	}
}

func TestProbeAfterManyMixedCommits(t *testing.T) {
	// Randomized-ish soak: interleave inserts and deletes and compare every
	// probe against a naive recomputation.
	s := childSchema()
	live := make(map[int64]relation.Tuple)
	var all []relation.Tuple
	for i := int64(0); i < 32; i++ {
		tt := row(i, i%4, 1)
		live[i] = tt
		all = append(all, tt)
	}
	x := Build(relation.MustFromTuples(s, all...), []int{1})
	next := int64(1000)
	for step := 0; step < 50; step++ {
		ins := relation.MustFromTuples(s)
		del := relation.MustFromTuples(s)
		// Delete two arbitrary live tuples, insert three fresh ones.
		n := 0
		for id, tt := range live {
			if n >= 2 {
				break
			}
			if err := del.Insert(tt); err != nil {
				t.Fatal(err)
			}
			delete(live, id)
			n++
		}
		for k := 0; k < 3; k++ {
			tt := row(next, next%4, 1)
			if err := ins.Insert(tt); err != nil {
				t.Fatal(err)
			}
			live[next] = tt
			next++
		}
		x = x.Apply(ins, del)
		if x.Len() != len(live) {
			t.Fatalf("step %d: Len = %d, want %d", step, x.Len(), len(live))
		}
	}
	for p := int64(0); p < 4; p++ {
		want := 0
		for _, tt := range live {
			if tt[1].AsInt() == p {
				want++
			}
		}
		if got := len(probeIDs(x, p)); got != want {
			t.Fatalf("parent %d: %d matches, want %d", p, got, want)
		}
	}
	checkTree(t, x)
}

func TestDefString(t *testing.T) {
	// Sanity for the decl round trip used by the facade's Indexes().
	rel, attrs, _, err := ParseDecl("child(parent, qty)")
	if err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprintf("%s(%s)", rel, attrs[0]+", "+attrs[1]); got != "child(parent, qty)" {
		t.Fatalf("round trip: %q", got)
	}
}
