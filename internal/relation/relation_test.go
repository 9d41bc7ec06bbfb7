package relation

import (
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/schema"
	"repro/internal/value"
)

func twoColSchema(t *testing.T) *schema.Relation {
	t.Helper()
	return schema.MustRelation("r",
		schema.Attribute{Name: "a", Type: value.KindInt},
		schema.Attribute{Name: "b", Type: value.KindString},
	)
}

func tup(a int64, b string) Tuple {
	return Tuple{value.Int(a), value.String(b)}
}

func TestInsertDeduplicates(t *testing.T) {
	r := New(twoColSchema(t))
	for i := 0; i < 3; i++ {
		if err := r.Insert(tup(1, "x")); err != nil {
			t.Fatal(err)
		}
	}
	if r.Len() != 1 {
		t.Errorf("Len = %d after duplicate inserts, want 1", r.Len())
	}
}

func TestInsertArityChecked(t *testing.T) {
	r := New(twoColSchema(t))
	if err := r.Insert(Tuple{value.Int(1)}); err == nil {
		t.Error("arity-1 insert into arity-2 relation succeeded")
	}
}

func TestDeleteAndContains(t *testing.T) {
	r := MustFromTuples(twoColSchema(t), tup(1, "x"), tup(2, "y"))
	if !r.Contains(tup(1, "x")) {
		t.Error("Contains(1,x) = false")
	}
	if !r.Delete(tup(1, "x")) {
		t.Error("Delete(1,x) = false, want true")
	}
	if r.Delete(tup(1, "x")) {
		t.Error("second Delete(1,x) = true, want false")
	}
	if r.Contains(tup(1, "x")) {
		t.Error("Contains(1,x) after delete")
	}
	if r.Len() != 1 {
		t.Errorf("Len = %d, want 1", r.Len())
	}
}

func TestNumericTupleIdentity(t *testing.T) {
	r := New(twoColSchema(t))
	r.InsertUnchecked(Tuple{value.Int(1), value.String("x")})
	r.InsertUnchecked(Tuple{value.Float(1.0), value.String("x")})
	if r.Len() != 1 {
		t.Errorf("Int(1) and Float(1.0) stored as distinct tuples; Len = %d", r.Len())
	}
}

func TestCloneIndependence(t *testing.T) {
	r := MustFromTuples(twoColSchema(t), tup(1, "x"))
	c := r.Clone()
	c.InsertUnchecked(tup(2, "y"))
	if r.Len() != 1 || c.Len() != 2 {
		t.Errorf("clone not independent: r=%d c=%d", r.Len(), c.Len())
	}
	r.Delete(tup(1, "x"))
	if !c.Contains(tup(1, "x")) {
		t.Error("delete in original leaked into clone")
	}
}

func TestUnionDiffInPlace(t *testing.T) {
	a := MustFromTuples(twoColSchema(t), tup(1, "x"), tup(2, "y"))
	b := MustFromTuples(twoColSchema(t), tup(2, "y"), tup(3, "z"))
	a.UnionInPlace(b)
	if a.Len() != 3 {
		t.Errorf("union Len = %d, want 3", a.Len())
	}
	a.DiffInPlace(b)
	if a.Len() != 1 || !a.Contains(tup(1, "x")) {
		t.Errorf("diff result = %v, want {(1,x)}", a)
	}
}

func TestEqual(t *testing.T) {
	a := MustFromTuples(twoColSchema(t), tup(1, "x"), tup(2, "y"))
	b := MustFromTuples(twoColSchema(t), tup(2, "y"), tup(1, "x"))
	if !a.Equal(b) {
		t.Error("same tuple sets not Equal")
	}
	b.InsertUnchecked(tup(3, "z"))
	if a.Equal(b) {
		t.Error("different tuple sets Equal")
	}
}

func TestSortedTuplesDeterministic(t *testing.T) {
	r := MustFromTuples(twoColSchema(t), tup(3, "c"), tup(1, "a"), tup(2, "b"))
	got := r.SortedTuples()
	for i := 1; i < len(got); i++ {
		if !got[i-1].Less(got[i]) {
			t.Errorf("SortedTuples not ordered at %d: %v >= %v", i, got[i-1], got[i])
		}
	}
}

func TestForEachEarlyStop(t *testing.T) {
	r := MustFromTuples(twoColSchema(t), tup(1, "a"), tup(2, "b"), tup(3, "c"))
	stop := errSentinel("stop")
	n := 0
	err := r.ForEach(func(Tuple) error {
		n++
		return stop
	})
	if err != stop {
		t.Errorf("ForEach error = %v, want sentinel", err)
	}
	if n != 1 {
		t.Errorf("ForEach visited %d tuples after error, want 1", n)
	}
}

type errSentinel string

func (e errSentinel) Error() string { return string(e) }

func TestTupleConcat(t *testing.T) {
	a := Tuple{value.Int(1)}
	b := Tuple{value.String("x"), value.Bool(true)}
	c := a.Concat(b)
	if len(c) != 3 || !c[0].Equal(value.Int(1)) || !c[2].Equal(value.Bool(true)) {
		t.Errorf("Concat = %v", c)
	}
	// Concat must not alias the receiver's backing array.
	a2 := a.Concat(Tuple{value.Int(2)})
	_ = a2
	if len(a) != 1 {
		t.Error("Concat mutated receiver")
	}
}

func TestTupleKeyAgreesWithEqual(t *testing.T) {
	prop := func(a1, b1 int64, a2, b2 int16) bool {
		t1 := Tuple{value.Int(a1), value.Int(int64(a2))}
		t2 := Tuple{value.Int(b1), value.Int(int64(b2))}
		return t1.Equal(t2) == (t1.Key() == t2.Key())
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// TestTupleKeyOn: the projection key must agree with Key on the full column
// list, distinguish projections that differ, and collide exactly for tuples
// equal on the projected columns.
func TestTupleKeyOn(t *testing.T) {
	t1 := Tuple{value.Int(1), value.String("a"), value.Int(7)}
	t2 := Tuple{value.Int(2), value.String("a"), value.Int(7)}
	if t1.KeyOn([]int{0, 1, 2}) != t1.Key() {
		t.Error("KeyOn over all columns differs from Key")
	}
	if t1.KeyOn([]int{1, 2}) != t2.KeyOn([]int{1, 2}) {
		t.Error("tuples equal on projected columns got different keys")
	}
	if t1.KeyOn([]int{0}) == t2.KeyOn([]int{0}) {
		t.Error("tuples differing on the projected column collided")
	}
	if t1.KeyOn([]int{1, 2}) == t1.KeyOn([]int{2, 1}) {
		t.Error("column order must be part of the key")
	}
	if t1.KeyOn(nil) != "" {
		t.Error("empty projection key should be empty")
	}
}

// TestSetSemanticsProperty: inserting any sequence with duplicates yields
// the same relation as inserting the dedup set, in any order.
func TestSetSemanticsProperty(t *testing.T) {
	sch := twoColSchema(t)
	prop := func(xs []int8) bool {
		r1 := New(sch)
		r2 := New(sch)
		for _, x := range xs {
			r1.InsertUnchecked(tup(int64(x), "v"))
		}
		for i := len(xs) - 1; i >= 0; i-- {
			r2.InsertUnchecked(tup(int64(xs[i]), "v"))
		}
		return r1.Equal(r2)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestStringRendering(t *testing.T) {
	r := MustFromTuples(twoColSchema(t), tup(1, "x"))
	want := `r(a int, b string) {(1, "x")}`
	if got := r.String(); got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}

// TestSealFreezesRelation: sealed (committed) instances reject every
// mutation, while clones taken from them stay mutable — the copy-on-write
// contract the storage snapshots rely on.
func TestSealFreezesRelation(t *testing.T) {
	r := MustFromTuples(twoColSchema(t), tup(1, "x"))
	if r.Sealed() {
		t.Fatal("fresh relation reports sealed")
	}
	r.Seal()
	if !r.Sealed() {
		t.Fatal("Seal did not stick")
	}
	mutations := map[string]func(){
		"Insert":          func() { _ = r.Insert(tup(2, "y")) },
		"InsertUnchecked": func() { r.InsertUnchecked(tup(2, "y")) },
		"Delete":          func() { r.Delete(tup(1, "x")) },
		"UnionInPlace":    func() { r.UnionInPlace(MustFromTuples(twoColSchema(t), tup(3, "z"))) },
		"DiffInPlace":     func() { r.DiffInPlace(MustFromTuples(twoColSchema(t), tup(1, "x"))) },
	}
	for name, fn := range mutations {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s on sealed relation did not panic", name)
				}
			}()
			fn()
		}()
	}

	c := r.Clone()
	if c.Sealed() {
		t.Fatal("Clone of sealed relation is sealed")
	}
	if err := c.Insert(tup(2, "y")); err != nil {
		t.Fatal(err)
	}
	if r.Len() != 1 || c.Len() != 2 {
		t.Errorf("lens after clone mutation: sealed=%d clone=%d", r.Len(), c.Len())
	}
}

var (
	keySink   string
	bytesSink []byte
)

// TestKeyBuildersAllocateOnce: Key, KeyOn and AppendKeyOn(nil, …) each cost
// one allocation — the key itself, built at its exact length — for a short
// all-int tuple and for ones whose 64-byte string makes an 84-byte key (85
// when the string holds a NUL, which the encoding escapes).
func TestKeyBuildersAllocateOnce(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	cols := []int{0, 1, 2}
	for _, tu := range []Tuple{
		{value.Int(1), value.Int(2), value.String(strings.Repeat("v", 64))},
		{value.Int(1), value.Int(2), value.String(strings.Repeat("v", 63) + "\x00")},
		{value.Int(1), value.Int(2), value.Int(3)},
	} {
		for name, build := range map[string]func(){
			"Key":              func() { keySink = tu.Key() },
			"KeyOn":            func() { keySink = tu.KeyOn(cols) },
			"AppendKeyOn(nil)": func() { bytesSink = tu.AppendKeyOn(nil, cols) },
		} {
			if allocs := testing.AllocsPerRun(100, build); allocs != 1 {
				t.Errorf("%s of %v: %.0f allocations, want 1", name, tu, allocs)
			}
		}
		if key := tu.Key(); len(key) != cap(tu.AppendKeyOn(nil, cols)) || key != tu.KeyOn(cols) {
			t.Errorf("%v: key of %d bytes, buffer sized %d", tu, len(key), cap(tu.AppendKeyOn(nil, cols)))
		}
	}
}

// TestArenaDecode decodes tuples whose string payloads overflow the
// arena's chunks (among them one larger than a chunk) and checks that every
// tuple handed out keeps its value through later decodes, through a
// refused tuple, and through a Rewind that gives a decode's space back.
func TestArenaDecode(t *testing.T) {
	var want []Tuple
	for i := 0; i < 400; i++ {
		want = append(want, Tuple{value.Int(int64(i)), value.String(strings.Repeat("s", i%97)), value.Null(),
			value.String(strings.Repeat("t", (i*37)%61))})
	}
	want = append(want, Tuple{value.String(strings.Repeat("big", arenaStrs)), value.String("after")})
	var enc []byte
	for _, tp := range want {
		enc = AppendTuple(enc, tp)
	}
	var a Arena
	var got []Tuple
	for data := enc; len(data) > 0; {
		tp, rest, err := a.DecodeTuple(data)
		if err != nil {
			t.Fatalf("tuple %d: %v", len(got), err)
		}
		got, data = append(got, tp), rest
		if len(got) == 100 {
			// A tuple whose last value is corrupt is refused whole.
			bad := AppendTuple(nil, Tuple{value.String("refused"), value.Int(1)})
			if _, _, err := a.DecodeTuple(bad[:len(bad)-1]); err == nil {
				t.Fatal("a truncated tuple decoded")
			}
			// A decode given back with Rewind leaves the others intact.
			mark := a
			if _, _, err := a.DecodeTuple(AppendTuple(nil, Tuple{value.String(strings.Repeat("r", 5000))})); err != nil {
				t.Fatal(err)
			}
			a.Rewind(mark)
		}
	}
	if len(got) != len(want) {
		t.Fatalf("decoded %d tuples, want %d", len(got), len(want))
	}
	for i := range want {
		if !got[i].Equal(want[i]) || got[i].Key() != want[i].Key() {
			t.Fatalf("tuple %d = %v, want %v", i, got[i], want[i])
		}
	}
}
