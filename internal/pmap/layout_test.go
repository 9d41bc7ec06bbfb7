package pmap

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"strings"
	"testing"
)

// shapeSink records every NodeInfo a Persist hands it into one running hash:
// bitmap, collision flag, slot kinds in stored order, entry keys and values,
// and child addresses. Addresses are assigned sequentially and nothing is
// retained, so child addresses pin the bottom-up emission order as well.
type shapeSink struct {
	next  uint64
	sum   []byte
	nodes int
}

func (s *shapeSink) Retained(Addr) bool { return false }

func (s *shapeSink) Node(info NodeInfo[int]) (Addr, error) {
	s.next++
	s.nodes++
	s.sum = binary.LittleEndian.AppendUint64(s.sum, info.Bitmap)
	if info.Coll {
		s.sum = append(s.sum, 1)
	} else {
		s.sum = append(s.sum, 0)
	}
	s.sum = binary.AppendUvarint(s.sum, uint64(len(info.Slots)))
	for _, sl := range info.Slots {
		if sl.Child != 0 {
			s.sum = append(s.sum, 'c')
			s.sum = binary.LittleEndian.AppendUint64(s.sum, uint64(sl.Child))
			continue
		}
		s.sum = append(s.sum, 'e')
		s.sum = binary.AppendUvarint(s.sum, uint64(len(sl.Key)))
		s.sum = append(s.sum, sl.Key...)
		s.sum = binary.AppendVarint(s.sum, int64(sl.Val))
	}
	return Addr(s.next), nil
}

// shapeHash forces three hash shapes: "coll-" keys share one full 64-bit
// hash (a collision node), "deep-" keys agree on their first six fragments
// (a chain of single-child nodes ending in a split), and every other key
// hashes normally.
func shapeHash(s string) uint64 {
	switch {
	case strings.HasPrefix(s, "coll-"):
		return 0xc0ffee
	case strings.HasPrefix(s, "deep-"):
		return uint64(len(s)+int(s[len(s)-1]))<<40 | 0x123456789
	}
	return fnv64a(s)
}

// goldenShape is the hash of the sink stream TestPersistShapeGolden
// produces. It was recorded under the original one-slot-per-bit node layout;
// matching it proves the persisted form is unchanged, so every checkpoint
// written before keeps its meaning.
const goldenShape = "124 nodes, root 124, 1cae3a9e2d8ed6e5"

// TestPersistShapeGolden persists a fixed 500-key map, including collision
// nodes and forced deep chains, and compares the exact sequence of nodes the
// sink receives against a recorded hash.
func TestPersistShapeGolden(t *testing.T) {
	defer func(orig func(string) uint64) { hashFn = orig }(hashFn)
	hashFn = shapeHash

	m := New[int]()
	for i := 0; i < 480; i++ {
		m.Set(fmt.Sprintf("key-%d", i), i)
	}
	for i := 0; i < 8; i++ {
		m.Set(fmt.Sprintf("coll-%d", i), 1000+i)
	}
	for i := 0; i < 12; i++ {
		m.Set(fmt.Sprintf("deep-%d", i), 2000+i)
	}
	// Overwrites and deletes through a clone, so path-copied and
	// in-place-updated nodes are both in the persisted image.
	m = m.Freeze().Clone()
	for i := 0; i < 480; i += 7 {
		m.Set(fmt.Sprintf("key-%d", i), -i)
	}
	for i := 3; i < 480; i += 11 {
		m.Delete(fmt.Sprintf("key-%d", i))
	}
	m.Delete("coll-5")
	for i := 3; i < 480; i += 11 {
		m.Set(fmt.Sprintf("key-%d", i), i)
	}

	s := &shapeSink{}
	p, err := m.Freeze().Persist(s)
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	h.Write(s.sum)
	got := fmt.Sprintf("%d nodes, root %d, %016x", s.nodes, p.Root, h.Sum64())
	if got != goldenShape {
		t.Fatalf("persisted shape = %q, want %q", got, goldenShape)
	}
}

// frozenMap builds a frozen map of n entries keyed "k0".."k<n-1>".
func frozenMap(n int) *Map[int] {
	m := New[int]()
	for i := 0; i < n; i++ {
		m.Set("k"+fmt.Sprint(i), i)
	}
	return m.Freeze()
}

// commitPathCopy is one commit's worth of trie work on a sealed instance:
// clone it, delete one key, insert one key and freeze the result. Keys are
// precomputed so the loop allocates only what the trie does.
func commitPathCopy(b *testing.B, n int) {
	base := frozenMap(n)
	const spread = 1024
	dels := make([]string, spread)
	adds := make([]string, spread)
	for i := range dels {
		dels[i] = "k" + fmt.Sprint(i*(n/spread))
		adds[i] = "new-" + fmt.Sprint(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := base.Clone()
		c.Delete(dels[i%spread])
		c.Set(adds[i%spread], i)
		c.Freeze()
	}
}

// BenchmarkCommitPathCopy measures the bytes and allocations a commit's
// path copy costs at two map sizes (one and two trie levels below the root).
func BenchmarkCommitPathCopy(b *testing.B) {
	for _, n := range []int{4000, 40000} {
		b.Run(fmt.Sprint(n), func(b *testing.B) { commitPathCopy(b, n) })
	}
}

// TestCommitPathCopyBytes guards the lean node layout: a clone + delete +
// insert on a frozen 4 000-entry map copies pointers along the touched paths,
// not whole entry slots, and so stays under 4 KiB. With a 56-byte slot per
// bitmap bit the full 64-way root alone costs 3.5 KiB per copy, and the op
// costs about 6.5 KiB.
func TestCommitPathCopyBytes(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a benchmark")
	}
	r := testing.Benchmark(func(b *testing.B) { commitPathCopy(b, 4000) })
	if got := r.AllocedBytesPerOp(); got > 4<<10 {
		t.Fatalf("clone+delete+insert on a 4000-entry map allocates %d B/op, want <= %d", got, 4<<10)
	}
}

// FuzzMapOps decodes its input into Set, Delete, Clone and Freeze
// operations over a small key space (with the forced collisions and deep
// chains of shapeHash) and checks every map against a Go-map model after
// each one. Maps frozen earlier are rechecked every time: a path copy shares
// its arrays with the frozen original, so a write that reached a shared
// array would show up there. Each freeze also round-trips the map through
// Persist and NewNode.
func FuzzMapOps(f *testing.F) {
	f.Add([]byte{0, 1, 0, 2, 0, 17, 2, 0, 1, 1, 0, 5, 3, 0, 0, 9})
	f.Add([]byte{0, 16, 0, 17, 0, 18, 3, 0, 2, 0, 1, 16, 1, 17, 3, 1})
	f.Add([]byte{0, 20, 0, 21, 0, 22, 0, 23, 2, 0, 1, 20, 0, 3, 2, 1, 1, 21, 3, 0, 3, 0})

	var keys []string
	for i := 0; i < 16; i++ {
		keys = append(keys, fmt.Sprintf("key-%d", i))
	}
	for i := 0; i < 4; i++ {
		keys = append(keys, fmt.Sprintf("coll-%d", i), fmt.Sprintf("deep-%d", i))
	}

	f.Fuzz(func(t *testing.T, ops []byte) {
		defer func(orig func(string) uint64) { hashFn = orig }(hashFn)
		hashFn = shapeHash

		type version struct {
			m     *Map[int]
			model map[string]int
		}
		check := func(what string, v version) {
			t.Helper()
			if v.m.Len() != len(v.model) {
				t.Fatalf("%s: Len = %d, model %d", what, v.m.Len(), len(v.model))
			}
			for _, k := range keys {
				got, ok := v.m.Get(k)
				want, wok := v.model[k]
				if ok != wok || got != want {
					t.Fatalf("%s: Get(%s) = %d,%v, model %d,%v", what, k, got, ok, want, wok)
				}
			}
			seen := 0
			_ = v.m.Range(func(k string, val int) error {
				if mv, ok := v.model[k]; !ok || mv != val {
					t.Fatalf("%s: Range saw %s=%d, model %d,%v", what, k, val, mv, ok)
				}
				seen++
				return nil
			})
			if seen != len(v.model) {
				t.Fatalf("%s: Range visited %d, model %d", what, seen, len(v.model))
			}
		}
		copyModel := func(m map[string]int) map[string]int {
			c := make(map[string]int, len(m))
			for k, v := range m {
				c[k] = v
			}
			return c
		}

		if len(ops) > 256 {
			ops = ops[:256] // keeps each run's recheck work bounded
		}
		live := []version{{New[int](), map[string]int{}}}
		var frozen []version
		sink := newMemSink[int]()
		for i := 0; i+1 < len(ops); i += 2 {
			op, arg := ops[i]%4, int(ops[i+1])
			if len(live) == 0 {
				live = append(live, version{New[int](), map[string]int{}})
			}
			cur := &live[arg%len(live)]
			key := keys[arg%len(keys)]
			switch op {
			case 0:
				cur.m.Set(key, i)
				cur.model[key] = i
			case 1:
				_, had := cur.model[key]
				if got := cur.m.Delete(key); got != had {
					t.Fatalf("Delete(%s) = %v, model %v", key, got, had)
				}
				delete(cur.model, key)
			case 2:
				// Clone a live map (revoking its in-place rights) or a frozen
				// one, alternating on the argument's low bit.
				src := *cur
				if arg&1 == 1 && len(frozen) > 0 {
					src = frozen[arg%len(frozen)]
				}
				if len(live) < 4 {
					live = append(live, version{src.m.Clone(), copyModel(src.model)})
				}
			case 3:
				v := *cur
				live = append(live[:arg%len(live)], live[arg%len(live)+1:]...)
				v.m.Freeze()
				if len(frozen) == 8 {
					frozen = frozen[1:]
				}
				frozen = append(frozen, v)
				p, err := v.m.Persist(sink)
				if err != nil {
					t.Fatalf("Persist: %v", err)
				}
				p.CommitRetargets()
				check("reloaded", version{NewLazy[int](p.Root, len(v.model), sink), v.model})
			}
			for j, v := range live {
				check(fmt.Sprintf("op %d, live %d", i/2, j), v)
			}
			for j, v := range frozen {
				check(fmt.Sprintf("op %d, frozen %d", i/2, j), v)
			}
		}
	})
}
