package index

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"repro/internal/relation"
	"repro/internal/schema"
	"repro/internal/value"
)

// checkTree fails unless the tree under t is a search tree in compare order,
// a heap in above order, and holds exactly t.size entries.
func checkTree(tb testing.TB, t *Index) {
	tb.Helper()
	var prev *node
	count := 0
	var walk func(n *node)
	walk = func(n *node) {
		if n == nil {
			return
		}
		for _, c := range []*node{n.left, n.right} {
			if c != nil && !n.above(&c.entry) {
				tb.Fatalf("heap order broken under %v", n.tuple)
			}
		}
		walk(n.left)
		if prev != nil && prev.compare(&n.entry) >= 0 {
			tb.Fatalf("search order broken at %v, %v", prev.tuple, n.tuple)
		}
		if prev != nil && prev.key == n.key && unsafe.StringData(prev.key) != unsafe.StringData(n.key) {
			tb.Fatalf("equal keys of %v and %v are two strings", prev.tuple, n.tuple)
		}
		prev = n
		count++
		walk(n.right)
	}
	walk(t.root)
	if count != t.size {
		tb.Fatalf("tree holds %d entries, size says %d", count, t.size)
	}
}

// sameShape reports whether two trees hold the same entries in the same
// places.
func sameShape(a, b *node) bool {
	if a == nil || b == nil {
		return a == b
	}
	return a.compare(&b.entry) == 0 && sameShape(a.left, b.left) && sameShape(a.right, b.right)
}

func keysOf(ts []relation.Tuple) []string {
	out := make([]string, len(ts))
	for i, tu := range ts {
		out[i] = tu.Key()
	}
	slices.Sort(out)
	return out
}

func numSchema() *schema.Relation {
	return schema.MustRelation("d",
		schema.Attribute{Name: "id", Type: value.KindFloat},
		schema.Attribute{Name: "k", Type: value.KindFloat},
	)
}

// dupKeys are the index-column values of the duplicates-heavy test, each
// class listing spellings that Tuple.Key must treat as one value. The two
// NaNs differ in their bits and are two values.
var dupKeys = [][]value.Value{
	{value.Int(0), value.Float(0), value.Float(math.Copysign(0, -1))},
	{value.Int(1), value.Float(1)},
	{value.Float(math.NaN())},
	{value.Float(math.Float64frombits(math.Float64bits(math.NaN()) ^ 1))},
}

// TestDuplicatesHeavyTieOrder holds ≥ 400 tuples under each index key and
// applies 2000 single-tuple deltas whose tuples are spelled at random as
// int or float, +0 or -0. An insert spelled one way must be found by a
// delete spelled another, which only holds if the order among equal index
// keys ties exactly where Tuple.Key does. Probe and Range are compared with
// a filtered scan of the model after every step.
func TestDuplicatesHeavyTieOrder(t *testing.T) {
	s := numSchema()
	rng := rand.New(rand.NewSource(5))
	spell := func(id int64, class int) relation.Tuple {
		idv := value.Int(id)
		if rng.Intn(2) == 0 {
			idv = value.Float(float64(id))
		}
		return relation.Tuple{idv, dupKeys[class][rng.Intn(len(dupKeys[class]))]}
	}
	cols := []int{1}
	model := make(map[string]string) // tuple key → index key
	admit := func(tu relation.Tuple) { model[tu.Key()] = tu.KeyOn(cols) }
	const ids = 1000 // each step flips one of ids×keys slots, so about half stay filled
	base := relation.New(s)
	for id := int64(0); id < ids; id++ {
		for class := range dupKeys {
			if rng.Intn(8) != 0 {
				tu := spell(id, class)
				base.InsertUnchecked(tu)
				admit(tu)
			}
		}
	}
	x := Build(base, cols)
	for step := 0; step < 2000; step++ {
		tu := spell(int64(rng.Intn(ids)), rng.Intn(len(dupKeys)))
		delta := relation.MustFromTuples(s, tu)
		if _, ok := model[tu.Key()]; ok {
			x = x.Apply(nil, delta)
			delete(model, tu.Key())
		} else {
			x = x.Apply(delta, nil)
			admit(tu)
		}
		key := tu.KeyOn(cols)
		var want []string
		for k, ik := range model {
			if ik == key {
				want = append(want, k)
			}
		}
		slices.Sort(want)
		if len(want) < 400 {
			t.Fatalf("step %d: only %d tuples under the key, the test wants ≥ 400", step, len(want))
		}
		if got := keysOf(x.Probe(key)); !slices.Equal(got, want) {
			t.Fatalf("step %d (%v): Probe has %d tuples, the scan %d", step, tu, len(got), len(want))
		}
		if got := keysOf(x.Range(KeyRange{Lo: key, Hi: key + "\xff"})); !slices.Equal(got, want) {
			t.Fatalf("step %d (%v): Range has %d tuples, the scan %d", step, tu, len(got), len(want))
		}
		if x.Len() != len(model) {
			t.Fatalf("step %d: Len = %d; the model holds %d", step, x.Len(), len(model))
		}
	}
	checkTree(t, x)
	if got := len(x.Range(KeyRange{Lo: "\x00", Hi: "\xff"})); got != len(model) {
		t.Fatalf("Range over everything has %d tuples, the model %d", got, len(model))
	}
}

// TestTreeIsFunctionOfContents: whatever sequence of deltas led to a set of
// tuples, the tree is the one Build makes of that set.
func TestTreeIsFunctionOfContents(t *testing.T) {
	s := childSchema()
	rng := rand.New(rand.NewSource(11))
	live := relation.New(s)
	x := Build(live, []int{2, 1})
	for step := 0; step < 300; step++ {
		ins, del := relation.New(s), relation.New(s)
		for i := rng.Intn(4); i > 0; i-- {
			tu := row(int64(rng.Intn(200)), int64(rng.Intn(5)), int64(rng.Intn(3)))
			if live.Contains(tu) {
				del.InsertUnchecked(tu)
			} else {
				ins.InsertUnchecked(tu)
			}
		}
		x = x.Apply(ins, del)
		live.DiffInPlace(del)
		live.UnionInPlace(ins)
		checkTree(t, x)
		if !sameShape(x.root, Build(live, []int{2, 1}).root) {
			t.Fatalf("step %d: the applied tree differs from the built one", step)
		}
	}
}

// TestEmptyAndWholeRelationDeltas: one Apply may carry every tuple of the
// relation, in either direction.
func TestEmptyAndWholeRelationDeltas(t *testing.T) {
	s := childSchema()
	all := relation.New(s)
	for i := int64(0); i < 500; i++ {
		all.InsertUnchecked(row(i, i%7, i%3))
	}
	empty := Build(relation.New(s), []int{1})
	if empty.Len() != 0 || empty.Probe(KeyVals([]value.Value{value.Int(1)})) != nil {
		t.Fatal("an index over nothing holds something")
	}
	full := empty.Apply(all, nil)
	checkTree(t, full)
	if !sameShape(full.root, Build(all, []int{1}).root) {
		t.Fatal("inserting the whole relation differs from building over it")
	}
	if got := len(probeIDs(full, 3)); got != 71 {
		t.Fatalf("parent 3: %d matches, want 71", got)
	}
	if drained := full.Apply(nil, all); drained.Len() != 0 || drained.root != nil {
		t.Fatalf("deleting the whole relation leaves %d tuples", drained.Len())
	}
	if moved := full.Apply(all, all); moved.Len() != 500 {
		t.Fatalf("deleting and re-inserting the whole relation leaves %d tuples", moved.Len())
	}
}

// TestApplyToleratesBrokenInvariant: an insert of a resident tuple and a
// delete of an absent one change nothing, so an index can never hold a tuple
// twice or lose count.
func TestApplyToleratesBrokenInvariant(t *testing.T) {
	s := childSchema()
	x := Build(relation.MustFromTuples(s, row(1, 10, 5), row(2, 10, 7)), []int{1})
	y := x.Apply(relation.MustFromTuples(s, row(1, 10, 5)), relation.MustFromTuples(s, row(9, 10, 1)))
	if y.Len() != 2 || !sameShape(x.root, y.root) {
		t.Fatalf("Len = %d after a no-op delta", y.Len())
	}
}

// applyCost measures allocations and bytes per one-insert-one-delete commit
// over a chain of successors of two n-row indexes, a unique one and one
// with many tuples per key.
func applyCost(n int) (allocs, bytes float64) {
	s := childSchema()
	r := benchRelation(n)
	hash, ord := Build(r, []int{0}), Build(r, []int{2})
	const steps = 400
	deltas := make([][2]*relation.Relation, steps)
	for i := range deltas {
		deltas[i] = [2]*relation.Relation{
			relation.MustFromTuples(s, benchRow(n+i, n)),
			relation.MustFromTuples(s, benchRow(i*(n/steps), n)),
		}
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for _, d := range deltas {
		hash, ord = hash.Apply(d[0], d[1]), ord.Apply(d[0], d[1])
	}
	runtime.ReadMemStats(&after)
	benchSink += hash.Len() + ord.Len()
	return float64(after.Mallocs-before.Mallocs) / steps, float64(after.TotalAlloc-before.TotalAlloc) / steps
}

// TestApplyCostIsLogarithmic: a hundred times the rows may cost a few more
// levels of path, not a hundred times the allocation. A design that rebuilds
// an index every so many commits fails this by orders of magnitude.
func TestApplyCostIsLogarithmic(t *testing.T) {
	smallAllocs, smallBytes := applyCost(1000)
	largeAllocs, largeBytes := applyCost(100000)
	t.Logf("per commit: n=1000 %.0f allocs %.0f B; n=100000 %.0f allocs %.0f B",
		smallAllocs, smallBytes, largeAllocs, largeBytes)
	if largeAllocs > 2.5*smallAllocs || largeBytes > 2.5*smallBytes {
		t.Fatalf("a commit at n=100000 costs %.0f allocs / %.0f B, at n=1000 %.0f / %.0f: more than 2.5×",
			largeAllocs, largeBytes, smallAllocs, smallBytes)
	}
}

// depth counts the nodes on the search path from n down to e's node, both
// included.
func depth(n *node, e *entry) int {
	d := 0
	for n != nil {
		d++
		c := e.compare(&n.entry)
		if c == 0 {
			break
		}
		if c < 0 {
			n = n.left
		} else {
			n = n.right
		}
	}
	return d
}

// TestApplyUpdateCopiesOnePath: an update — t removed and t' inserted under
// the same index key in one Apply — copies the path the two share once. The
// nodes an Apply allocates are its allocations less those of a no-op Apply
// of two tuples (key strings, successor header). Over 100 rows of a
// 4 000-row index they may not exceed the path down to t plus two nodes per
// update; copying the path once per tuple costs about twice that.
func TestApplyUpdateCopiesOnePath(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	const n = 4000
	s := childSchema()
	r := relation.New(s)
	for i := int64(0); i < n; i++ {
		r.InsertUnchecked(row(i, i, i%10))
	}
	x := Build(r, []int{0})
	var nodes, bound float64
	for i := int64(0); i < n; i += n / 100 {
		old, upd := row(i, i, i%10), row(i, i, i%10+100)
		ins, del := relation.MustFromTuples(s, upd), relation.MustFromTuples(s, old)
		absent := relation.MustFromTuples(s, row(i, i, -1))
		noop := testing.AllocsPerRun(3, func() { benchSink += x.Apply(del, absent).Len() })
		nodes += testing.AllocsPerRun(3, func() { benchSink += x.Apply(ins, del).Len() }) - noop
		e := x.entryOf(old.Key(), old)
		bound += float64(depth(x.root, &e) + 2)
	}
	t.Logf("100 updates allocate %.0f nodes; paths plus two nodes each: %.0f", nodes, bound)
	if nodes > bound {
		t.Fatalf("100 updates allocate %.0f nodes, more than one path plus two nodes each (%.0f)", nodes, bound)
	}
}

// TestDeletedTuplesAreCollectable builds an index over n tuples, deletes all
// but a few through Apply and drops every older root. The deleted tuples
// must then be garbage. The survivors matter: their nodes date from the
// build, and if the build had carved its nodes from one allocation they
// would keep that allocation — and through its dead nodes every original
// tuple — alive.
func TestDeletedTuplesAreCollectable(t *testing.T) {
	const n, keepEvery = 4000, 100
	s := childSchema()
	var freed atomic.Int64
	r := relation.New(s)
	doomed := relation.New(s)
	for i := 0; i < n; i++ {
		tu := make(relation.Tuple, 3)
		copy(tu, row(int64(i), int64(i%50), int64(i%5)))
		r.InsertUnchecked(tu)
		if i%keepEvery != 0 {
			doomed.InsertUnchecked(tu)
			runtime.SetFinalizer(&tu[0], func(*value.Value) { freed.Add(1) })
		}
	}
	hash, ord := Build(r, []int{1}), Build(r, []int{2})
	hash, ord = hash.Apply(nil, doomed), ord.Apply(nil, doomed)
	want := int64(doomed.Len())
	r, doomed = nil, nil
	for i := 0; i < 100 && freed.Load() < want; i++ {
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
	if got := freed.Load(); got != want {
		t.Fatalf("%d of %d deleted tuples were collected", got, want)
	}
	if hash.Len() != n/keepEvery || ord.Len() != n/keepEvery {
		t.Fatalf("Len = %d, %d, want %d", hash.Len(), ord.Len(), n/keepEvery)
	}
	runtime.KeepAlive(hash)
	runtime.KeepAlive(ord)
}

// TestExactAllocatesNothing: Exact and For run on every index probe.
func TestExactAllocatesNothing(t *testing.T) {
	r := relation.MustFromTuples(childSchema(), row(1, 10, 5))
	set := NewSet(Build(r, []int{0}), Build(r, []int{1}), Build(r, []int{1, 2})).
		With(Build(r, []int{2, 1}))
	cols, eq := []int{1, 2}, []int{2}
	allocs := testing.AllocsPerRun(100, func() {
		if x, _ := set.For(eq, 1); set.Exact(cols) == nil || x == nil {
			panic("index not found")
		}
	})
	if allocs != 0 {
		t.Fatalf("Exact + For allocate %.0f times per probe", allocs)
	}
	if set.Exact([]int{2}) != nil || set.Exact([]int{2, 1}) == nil {
		t.Fatal("Exact must match the column list, order included")
	}
	var sigs []string
	for _, x := range set.With(Build(r, []int{0, 2})).All() {
		sigs = append(sigs, Sig(x.Cols()))
	}
	if fmt.Sprint(sigs) != "[0 0,2 1 1,2 2,1]" {
		t.Fatalf("All() is not in signature order: %v", sigs)
	}
}

var keySink string

// TestKeyValsAllocatesOnce: a probe key costs one allocation, the key
// itself, also past the 16 bytes per value the builder once started from.
func TestKeyValsAllocatesOnce(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	for _, vals := range [][]value.Value{
		{value.Int(1), value.Int(2), value.String(strings.Repeat("v", 64))},
		{value.Int(1), value.Int(2), value.Int(3)},
	} {
		if allocs := testing.AllocsPerRun(100, func() { keySink = KeyVals(vals) }); allocs != 1 {
			t.Errorf("KeyVals(%v): %.0f allocations, want 1", vals, allocs)
		}
	}
}

var probeSink int

// TestProbeAllocatesOnce: a probe or range read allocates its result once,
// whether 10 or 1 000 tuples match.
func TestProbeAllocatesOnce(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	r := relation.New(childSchema())
	for i := int64(0); i < 2000; i++ {
		parent := int64(2) // parent 0 holds ids 0–9, parent 1 ids 10–1009
		switch {
		case i < 10:
			parent = 0
		case i < 1010:
			parent = 1
		}
		r.InsertUnchecked(row(i, parent, i%7))
	}
	byParent, byID := Build(r, []int{1}), Build(r, []int{0})
	key := func(i int64) string { return KeyVals([]value.Value{value.Int(i)}) }
	// Each reader builds its key outside the measured call.
	for _, tc := range []struct {
		name   string
		reader func(matches int64) func() int
	}{
		{"Probe", func(m int64) func() int {
			k := key(m / 1000)
			return func() int { return len(byParent.Probe(k)) }
		}},
		{"Range", func(m int64) func() int {
			kr := KeyRange{Lo: key(0), Hi: key(m)}
			return func() int { return len(byID.Range(kr)) }
		}},
	} {
		for _, m := range []int64{10, 1000} {
			read := tc.reader(m)
			if got := read(); got != int(m) {
				t.Fatalf("%s over %d matches returned %d tuples", tc.name, m, got)
			}
			if allocs := testing.AllocsPerRun(20, func() { probeSink += read() }); allocs != 1 {
				t.Errorf("%s over %d matches: %.0f allocations, want 1", tc.name, m, allocs)
			}
		}
	}
}
