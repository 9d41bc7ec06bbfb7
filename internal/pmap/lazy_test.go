package pmap

import (
	"errors"
	"fmt"
	"math/rand"
	"strconv"
	"testing"
)

// memSink is an in-memory Sink + Loader pair: Node deep-copies the NodeInfo
// into a store keyed by a synthetic address, Load rebuilds the node through
// NewNode exactly as the storage layer's cache does. retain controls which
// addresses an incremental Persist may reference.
type memSink[V any] struct {
	next   uint64
	nodes  map[Addr]storedNode[V]
	retain map[Addr]bool // nil means retain everything present
	loads  int
	failAt Addr // Load of this address fails (0 = never)
	opened int  // scanners Scan opened
	closed int  // scanners closed
}

type storedNode[V any] struct {
	bitmap uint64
	coll   bool
	slots  []SlotData[V]
}

func newMemSink[V any]() *memSink[V] {
	return &memSink[V]{nodes: map[Addr]storedNode[V]{}}
}

func (s *memSink[V]) Retained(a Addr) bool {
	if s.retain != nil {
		return s.retain[a]
	}
	_, ok := s.nodes[a]
	return ok
}

func (s *memSink[V]) Node(info NodeInfo[V]) (Addr, error) {
	s.next++
	a := Addr(s.next)
	cp := make([]SlotData[V], len(info.Slots))
	copy(cp, info.Slots)
	s.nodes[a] = storedNode[V]{bitmap: info.Bitmap, coll: info.Coll, slots: cp}
	return a, nil
}

func (s *memSink[V]) Load(a Addr) (*Node[V], error) {
	s.loads++
	if a == s.failAt && a != 0 {
		return nil, errors.New("injected load failure")
	}
	sn, ok := s.nodes[a]
	if !ok {
		return nil, fmt.Errorf("no node at %d", a)
	}
	return NewNode(a, sn.bitmap, sn.coll, sn.slots)
}

// Scan opens a scanner over the sink, counting opens and closes.
func (s *memSink[V]) Scan() Scanner[V] {
	s.opened++
	return &memScan[V]{s: s}
}

// memScan is memSink's scanner.
type memScan[V any] struct {
	s      *memSink[V]
	closed bool
}

func (sc *memScan[V]) Close() {
	if sc.closed {
		panic("scanner closed twice")
	}
	sc.closed = true
	sc.s.closed++
}

// Stream walks the node Load rebuilds, as the storage cache does for a
// resident node.
func (sc *memScan[V]) Stream(a Addr, dst []SlotData[V]) ([]SlotData[V], error) {
	if sc.closed {
		panic("Stream on a closed scanner")
	}
	dn, err := sc.s.Load(a)
	if err != nil {
		return nil, err
	}
	err = dn.Walk(func(child Addr, val V) error {
		dst = append(dst, SlotData[V]{Child: child, Val: val})
		return nil
	})
	return dst, err
}

// persistFrozen persists m and commits retargets immediately (the in-memory
// sink's output is "durable" the moment Node returns).
func persistFrozen[V any](t *testing.T, m *Map[V], s *memSink[V]) *Persisted {
	t.Helper()
	p, err := m.Persist(s)
	if err != nil {
		t.Fatalf("Persist: %v", err)
	}
	p.CommitRetargets()
	return p
}

// TestLazyRoundTrip persists a map, reopens it lazily and checks every read
// path (Get, Range, RangeValues) against the original.
func TestLazyRoundTrip(t *testing.T) {
	s := newMemSink[int]()
	m := New[int]()
	const n = 2000
	for i := 0; i < n; i++ {
		m.Set("k"+strconv.Itoa(i), i)
	}
	p := persistFrozen(t, m.Freeze(), s)
	if p.Written == 0 || p.Root == 0 {
		t.Fatalf("expected nodes written and non-zero root, got %+v", p)
	}

	lz := NewLazy[int](p.Root, n, s)
	if lz.Len() != n {
		t.Fatalf("Len = %d, want %d", lz.Len(), n)
	}
	for i := 0; i < n; i++ {
		v, ok := lz.Get("k" + strconv.Itoa(i))
		if !ok || v != i {
			t.Fatalf("Get(k%d) = %d,%v", i, v, ok)
		}
	}
	if _, ok := lz.Get("absent"); ok {
		t.Fatal("Get(absent) = present")
	}
	seen := map[string]int{}
	if err := lz.Range(func(k string, v int) error {
		seen[k] = v
		return nil
	}); err != nil {
		t.Fatalf("Range: %v", err)
	}
	if len(seen) != n {
		t.Fatalf("Range visited %d entries, want %d", len(seen), n)
	}
	sum := 0
	if err := lz.RangeValues(func(v int) error { sum += v; return nil }); err != nil {
		t.Fatalf("RangeValues: %v", err)
	}
	if want := n * (n - 1) / 2; sum != want {
		t.Fatalf("RangeValues sum = %d, want %d", sum, want)
	}
}

// TestLazyMutation mutates a lazily opened map (through stubs), comparing
// against a model, then persists incrementally and reopens again — three
// commit generations over one backing store.
func TestLazyMutation(t *testing.T) {
	s := newMemSink[int]()
	model := map[string]int{}
	m := New[int]()
	for i := 0; i < 500; i++ {
		k := "k" + strconv.Itoa(i)
		m.Set(k, i)
		model[k] = i
	}
	p := persistFrozen(t, m.Freeze(), s)

	rng := rand.New(rand.NewSource(7))
	cur := NewLazy[int](p.Root, len(model), s)
	for gen := 0; gen < 3; gen++ {
		for op := 0; op < 300; op++ {
			k := "k" + strconv.Itoa(rng.Intn(800))
			if rng.Intn(3) == 0 {
				cur.Delete(k)
				delete(model, k)
			} else {
				v := rng.Int()
				cur.Set(k, v)
				model[k] = v
			}
		}
		if cur.Len() != len(model) {
			t.Fatalf("gen %d: Len = %d, want %d", gen, cur.Len(), len(model))
		}
		for k, want := range model {
			if got, ok := cur.Get(k); !ok || got != want {
				t.Fatalf("gen %d: Get(%s) = %d,%v want %d", gen, k, got, ok, want)
			}
		}
		got := map[string]int{}
		_ = cur.Range(func(k string, v int) error { got[k] = v; return nil })
		if len(got) != len(model) {
			t.Fatalf("gen %d: Range visited %d, want %d", gen, len(got), len(model))
		}
		for k, v := range got {
			if model[k] != v {
				t.Fatalf("gen %d: Range saw %s=%d, model %d", gen, k, v, model[k])
			}
		}
		p = persistFrozen(t, cur.Freeze(), s)
		cur = NewLazy[int](p.Root, len(model), s)
	}
}

// TestLazyIncrementalPersist checks that persisting a lightly modified lazy
// map writes O(delta) nodes: retained stub subtrees are referenced, not
// faulted or rewritten.
func TestLazyIncrementalPersist(t *testing.T) {
	s := newMemSink[int]()
	m := New[int]()
	const n = 4000
	for i := 0; i < n; i++ {
		m.Set("k"+strconv.Itoa(i), i)
	}
	p := persistFrozen(t, m.Freeze(), s)
	full := p.Written

	lz := NewLazy[int](p.Root, n, s)
	lz.Set("k1", -1)
	loadsBefore := s.loads
	p2 := persistFrozen(t, lz.Freeze(), s)
	if p2.Written >= full/4 {
		t.Fatalf("incremental persist wrote %d nodes (full was %d)", p2.Written, full)
	}
	// The delta persist may reference stubs but must not fault whole
	// subtrees: no loads at all, since the touched path was already faulted
	// by the Set and path-copied into plain nodes.
	if s.loads != loadsBefore {
		t.Fatalf("incremental persist faulted %d nodes", s.loads-loadsBefore)
	}
}

// TestLazyFullRewriteRetargets forces a full rewrite (nothing retained) of a
// map that is one big stub, and checks that the stub keeps serving reads
// before CommitRetargets, is repointed after, and that the old addresses are
// then unreferenced.
func TestLazyFullRewriteRetargets(t *testing.T) {
	s := newMemSink[int]()
	m := New[int]()
	const n = 300
	for i := 0; i < n; i++ {
		m.Set("k"+strconv.Itoa(i), i)
	}
	p := persistFrozen(t, m.Freeze(), s)

	lz := NewLazy[int](p.Root, n, s).Freeze()
	// Full rewrite: retain nothing.
	s.retain = map[Addr]bool{}
	p2, err := lz.Persist(s)
	if err != nil {
		t.Fatalf("full Persist: %v", err)
	}
	if p2.Root == p.Root {
		t.Fatal("full rewrite kept the old root address")
	}
	if p2.Written == 0 {
		t.Fatal("full rewrite wrote nothing")
	}
	// Before CommitRetargets the root stub must still read from the old
	// address.
	s.retain = nil
	if v, ok := lz.Get("k7"); !ok || v != 7 {
		t.Fatalf("pre-retarget Get = %d,%v", v, ok)
	}
	// Drop the old nodes, commit the retargets: reads must now go to the new
	// addresses only.
	for a := range s.nodes {
		if a <= Addr(p.Written) { // first-generation addresses
			delete(s.nodes, a)
		}
	}
	p2.CommitRetargets()
	for i := 0; i < n; i++ {
		if v, ok := lz.Get("k" + strconv.Itoa(i)); !ok || v != i {
			t.Fatalf("post-retarget Get(k%d) = %d,%v", i, v, ok)
		}
	}
}

// TestLazyCollisions round-trips collision nodes through persist/NewNode.
func TestLazyCollisions(t *testing.T) {
	defer func(orig func(string) uint64) { hashFn = orig }(hashFn)
	hashFn = func(string) uint64 { return 0xabcdef }

	s := newMemSink[int]()
	m := New[int]()
	const n = 20
	for i := 0; i < n; i++ {
		m.Set("c"+strconv.Itoa(i), i)
	}
	p := persistFrozen(t, m.Freeze(), s)

	lz := NewLazy[int](p.Root, n, s)
	for i := 0; i < n; i++ {
		if v, ok := lz.Get("c" + strconv.Itoa(i)); !ok || v != i {
			t.Fatalf("Get(c%d) = %d,%v", i, v, ok)
		}
	}
	if !lz.Delete("c3") {
		t.Fatal("Delete(c3) = false")
	}
	if lz.Len() != n-1 {
		t.Fatalf("Len = %d", lz.Len())
	}
	if _, ok := lz.Get("c3"); ok {
		t.Fatal("c3 still present")
	}
}

// TestLazyNoopMutationKeepsStub checks that mutations that change nothing do
// not materialize the trie: deleting an absent key must leave the root stub
// in place.
func TestLazyNoopMutationKeepsStub(t *testing.T) {
	s := newMemSink[int]()
	m := New[int]()
	for i := 0; i < 100; i++ {
		m.Set("k"+strconv.Itoa(i), i)
	}
	p := persistFrozen(t, m.Freeze(), s)

	lz := NewLazy[int](p.Root, 100, s)
	if lz.Delete("definitely-absent") {
		t.Fatal("Delete of absent key reported true")
	}
	if lz.root == nil || lz.root.lazy.Load() != uint64(p.Root) {
		t.Fatal("no-op delete materialized the root stub")
	}
}

// TestLazyFaultErrorPanics checks the documented corruption semantics: a
// failing loader panics with *FaultError on the read path and returns an
// error from Persist.
func TestLazyFaultErrorPanics(t *testing.T) {
	s := newMemSink[int]()
	m := New[int]()
	for i := 0; i < 100; i++ {
		m.Set("k"+strconv.Itoa(i), i)
	}
	p := persistFrozen(t, m.Freeze(), s)
	s.failAt = p.Root

	lz := NewLazy[int](p.Root, 100, s)
	func() {
		defer func() {
			r := recover()
			fe, ok := r.(*FaultError)
			if !ok {
				t.Fatalf("recover() = %v (%T), want *FaultError", r, r)
			}
			if fe.Addr != p.Root {
				t.Fatalf("FaultError.Addr = %d, want %d", fe.Addr, p.Root)
			}
		}()
		lz.Get("k1")
		t.Fatal("Get did not panic")
	}()

	s.retain = map[Addr]bool{} // force rewrite, which must fault and fail
	if _, err := lz.Freeze().Persist(s); err == nil {
		t.Fatal("Persist through failing loader returned nil error")
	}
}

// TestLazyRangeValuesStreams checks the streamed value walk over a map that
// mixes resident path copies with stubs: it sees every value once, stops at
// the callback's first error and returns it, and panics with *FaultError
// naming the node the loader could not stream.
func TestLazyRangeValuesStreams(t *testing.T) {
	s := newMemSink[int]()
	m := New[int]()
	const n = 2000
	for i := 0; i < n; i++ {
		m.Set("k"+strconv.Itoa(i), i)
	}
	p := persistFrozen(t, m.Freeze(), s)
	lz := NewLazy[int](p.Root, n, s).Clone()
	for i := 0; i < n; i += 97 {
		lz.Set("k"+strconv.Itoa(i), i) // path-copies resident nodes over stubs
	}
	lz.Freeze()

	sum := 0
	if err := lz.RangeValues(func(v int) error { sum += v; return nil }); err != nil {
		t.Fatalf("RangeValues: %v", err)
	}
	if want := n * (n - 1) / 2; sum != want {
		t.Fatalf("RangeValues sum = %d, want %d", sum, want)
	}

	errStop := errors.New("stop")
	seen := 0
	err := lz.RangeValues(func(int) error {
		if seen++; seen == 500 {
			return errStop
		}
		return nil
	})
	if err != errStop || seen != 500 {
		t.Fatalf("RangeValues stopped after %d values with %v, want 500 and the callback's error", seen, err)
	}

	// Every node of a map opened afresh is streamed, so any child fails it.
	for a := range s.nodes {
		if a != p.Root {
			s.failAt = a
			break
		}
	}
	lz = NewLazy[int](p.Root, n, s)
	defer func() {
		fe, ok := recover().(*FaultError)
		if !ok || fe.Addr != s.failAt {
			t.Fatalf("recover() = %v, want a *FaultError for node %d", fe, s.failAt)
		}
	}()
	_ = lz.RangeValues(func(int) error { return nil })
	t.Fatal("RangeValues over an unreadable node did not panic")
}

// TestRangeValuesScannerLifecycle: a walk over a lazy map opens one
// scanner at its first stub and closes it however the walk ends (done,
// stopped by the callback, panicking on a fault); a walk that meets no stub
// opens none and allocates nothing.
func TestRangeValuesScannerLifecycle(t *testing.T) {
	s := newMemSink[int]()
	m := New[int]()
	const n = 1000
	for i := 0; i < n; i++ {
		m.Set("k"+strconv.Itoa(i), i)
	}
	p := persistFrozen(t, m.Freeze(), s)
	lz := NewLazy[int](p.Root, n, s)

	count := 0
	if err := lz.RangeValues(func(int) error { count++; return nil }); err != nil || count != n {
		t.Fatalf("RangeValues saw %d values, err %v; want %d", count, err, n)
	}
	if s.opened != 1 || s.closed != 1 {
		t.Fatalf("a walk opened %d scanners and closed %d, want 1 and 1", s.opened, s.closed)
	}
	errStop := errors.New("stop")
	if err := lz.RangeValues(func(int) error { return errStop }); err != errStop {
		t.Fatalf("RangeValues = %v, want the callback's error", err)
	}
	if s.opened != 2 || s.closed != 2 {
		t.Fatalf("a stopped walk left %d of %d scanners open", s.opened-s.closed, s.opened)
	}
	func() {
		for a := range s.nodes {
			if a != p.Root {
				s.failAt = a
				break
			}
		}
		defer func() {
			if _, ok := recover().(*FaultError); !ok {
				t.Fatal("RangeValues over an unreadable node did not panic with a *FaultError")
			}
		}()
		_ = lz.RangeValues(func(int) error { return nil })
	}()
	if s.opened != 3 || s.closed != 3 {
		t.Fatalf("a walk that panicked left %d of %d scanners open", s.opened-s.closed, s.opened)
	}

	// A lazy map whose nodes are all resident path copies.
	res := NewLazy[int](0, 0, s)
	for i := 0; i < n; i++ {
		res.Set("k"+strconv.Itoa(i), i)
	}
	res.Freeze()
	sum := 0
	if err := res.RangeValues(func(v int) error { sum += v; return nil }); err != nil || sum != n*(n-1)/2 {
		t.Fatalf("resident RangeValues: sum %d, err %v", sum, err)
	}
	if s.opened != 3 {
		t.Fatalf("a walk over resident nodes opened %d scanners", s.opened-3)
	}
	if raceEnabled {
		return
	}
	if a := testing.AllocsPerRun(20, func() {
		_ = res.RangeValues(func(v int) error { sum += v; return nil })
	}); a != 0 {
		t.Fatalf("a walk over resident nodes allocates %.0f times, want 0", a)
	}
}

// TestLazyCloneKeepsLoader checks that clones of a lazy map page too, and
// that mutating a clone leaves the original intact.
func TestLazyCloneKeepsLoader(t *testing.T) {
	s := newMemSink[int]()
	m := New[int]()
	for i := 0; i < 200; i++ {
		m.Set("k"+strconv.Itoa(i), i)
	}
	p := persistFrozen(t, m.Freeze(), s)

	base := NewLazy[int](p.Root, 200, s).Freeze()
	c := base.Clone()
	if !c.Paged() {
		t.Fatal("clone lost the loader")
	}
	c.Set("k5", -5)
	c.Delete("k6")
	if v, _ := base.Get("k5"); v != 5 {
		t.Fatalf("base saw clone's write: k5 = %d", v)
	}
	if _, ok := base.Get("k6"); !ok {
		t.Fatal("base lost k6 after clone's delete")
	}
	if v, _ := c.Get("k5"); v != -5 {
		t.Fatalf("clone k5 = %d", v)
	}
}

// TestNewNodeRejectsCorruptStructure drives NewNode with structurally
// invalid inputs; each must error, never panic.
func TestNewNodeRejectsCorruptStructure(t *testing.T) {
	entry := func(k string, v int) SlotData[int] { return SlotData[int]{Key: k, Val: v} }
	child := func(a Addr) SlotData[int] { return SlotData[int]{Child: a} }
	cases := []struct {
		name   string
		addr   Addr
		bitmap uint64
		coll   bool
		slots  []SlotData[int]
	}{
		{"zero address", 0, 1, false, []SlotData[int]{entry("a", 1)}},
		{"empty node", 9, 0, false, nil},
		{"popcount mismatch", 9, 0b111, false, []SlotData[int]{entry("a", 1)}},
		{"coll with bitmap", 9, 1, true, []SlotData[int]{entry("a", 1), entry("b", 2)}},
		{"coll single entry", 9, 0, true, []SlotData[int]{entry("a", 1)}},
		{"coll with child", 9, 0, true, []SlotData[int]{entry("a", 1), child(3)}},
		{"coll duplicate keys", 9, 0, true, []SlotData[int]{entry("a", 1), entry("a", 2)}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := NewNode(tc.addr, tc.bitmap, tc.coll, tc.slots); err == nil {
				t.Fatal("NewNode accepted corrupt structure")
			}
		})
	}
	// Collision nodes with differing hashes are rejected too (distinct keys
	// hash apart under the real hash).
	if _, err := NewNode(9, 0, true, []SlotData[int]{entry("a", 1), entry("b", 2)}); err == nil {
		t.Fatal("NewNode accepted collision node with differing hashes")
	}
}
