package main

import (
	"fmt"
	"hash/fnv"
	"math/rand/v2"
	"strconv"
)

// op is one generated operation together with the outcome the model
// expects of it. The engine sees only text.
type op struct {
	text  string
	query bool // text is an algebra expression for Query, not a transaction
	// wantConstraint names the constraint that must abort the transaction;
	// empty means it must commit.
	wantConstraint string
	// wantRows and wantSum are the expected cardinality and the expected sum
	// of the last int column of a query result.
	wantRows int
	wantSum  int64
}

// row is one modelled tuple: (id, item, qty) of an ord relation, or
// (k, ver, -) of kv.
type row struct{ id, item, qty int64 }

// generator is one client's seeded operation stream plus its slice of the
// model. Clients own disjoint tuples, so every expected outcome is known
// whatever the interleaving; the stream never depends on an outcome.
type generator interface {
	next() op
	// live appends the rows this client's model holds for relation rel.
	live(rel int, dst []row) []row
	// hotBumps returns how often this client bumped each shared hot row.
	hotBumps() []int64
}

const (
	itemRows = 1000
	// Operation mix of the order-entry workloads, in percent.
	pctPlace  = 70
	pctBump   = 22
	pctBadRef = 4 // the remaining 4 % are bad_dom
	// clientIDStride separates the fresh-id ranges of the clients.
	clientIDStride = 1_000_000_000
)

func ordName(s int) string { return "ord" + strconv.Itoa(s) }
func refName(s int) string { return "ref" + strconv.Itoa(s) }
func domName(s int) string { return "dom" + strconv.Itoa(s) }

// preloadedOrd is row i of relation s before any operation ran.
func preloadedOrd(s int, i int64) row {
	return row{id: i, item: (i*7 + int64(s)) % itemRows, qty: i % 10}
}

// ownerOf returns the client that owns preloaded row i, or -1 for the
// shared hot rows nobody owns.
func ownerOf(w *workload, i int64) int {
	if i < int64(w.hotRows) {
		return -1
	}
	return int(i % int64(w.clients))
}

// ordGen generates the order-entry mix: place, bump, bad_ref, bad_dom.
type ordGen struct {
	w      *workload
	rng    *rand.Rand
	rings  [][]row // per relation: this client's live rows, oldest at head
	heads  []int
	nextID []int64
	hot    []int64
	buf    []byte
}

func newOrdGen(w *workload, seed uint64, client int) *ordGen {
	g := &ordGen{
		w:      w,
		rng:    rand.New(rand.NewPCG(seed, uint64(client)+1)),
		rings:  make([][]row, w.rels),
		heads:  make([]int, w.rels),
		nextID: make([]int64, w.rels),
		hot:    make([]int64, w.hotRows),
	}
	for s := range g.rings {
		for i := int64(0); i < int64(w.rows); i++ {
			if ownerOf(w, i) == client {
				g.rings[s] = append(g.rings[s], preloadedOrd(s, i))
			}
		}
		g.nextID[s] = int64(w.rows) + int64(client)*clientIDStride
	}
	return g
}

func (g *ordGen) live(rel int, dst []row) []row { return append(dst, g.rings[rel]...) }
func (g *ordGen) hotBumps() []int64             { return g.hot }

func (g *ordGen) next() op {
	s := g.rng.IntN(g.w.rels)
	kind := g.rng.IntN(100)
	b := append(g.buf[:0], "begin "...)
	var want string
	switch {
	case kind < pctPlace:
		// Insert a fresh order and delete this client's oldest one:
		// cardinality never drifts.
		ring, h := g.rings[s], g.heads[s]
		nr := row{id: g.nextID[s], item: g.rng.Int64N(itemRows), qty: g.rng.Int64N(10)}
		g.nextID[s]++
		b = appendInsert(b, s, nr)
		b = append(b, " delete("...)
		b = append(b, ordName(s)...)
		b = append(b, ", select("...)
		b = append(b, ordName(s)...)
		b = append(b, ", id = "...)
		b = strconv.AppendInt(b, ring[h].id, 10)
		b = append(b, "));"...)
		ring[h] = nr
		g.heads[s] = (h + 1) % len(ring)
	case kind < pctPlace+pctBump:
		id := int64(0)
		if g.w.hotRows > 0 {
			// Contended: every client bumps the same few rows of ord0.
			s = 0
			id = g.rng.Int64N(int64(g.w.hotRows))
			g.hot[id]++
		} else {
			r := &g.rings[s][g.rng.IntN(len(g.rings[s]))]
			r.qty++
			id = r.id
		}
		b = append(b, "update("...)
		b = append(b, ordName(s)...)
		b = append(b, ", id = "...)
		b = strconv.AppendInt(b, id, 10)
		b = append(b, ", [qty = qty + 1]);"...)
	case kind < pctPlace+pctBump+pctBadRef:
		b = appendInsert(b, s, row{id: g.nextID[s], item: itemRows + 1 + g.rng.Int64N(1000), qty: 1})
		g.nextID[s]++
		want = refName(s)
	default:
		b = appendInsert(b, s, row{id: g.nextID[s], item: g.rng.Int64N(itemRows), qty: -1})
		g.nextID[s]++
		want = domName(s)
	}
	b = append(b, " end"...)
	g.buf = b
	return op{text: string(b), wantConstraint: want}
}

func appendInsert(b []byte, s int, r row) []byte {
	b = append(b, "insert("...)
	b = append(b, ordName(s)...)
	b = append(b, ", values[("...)
	b = strconv.AppendInt(b, r.id, 10)
	b = append(b, ", "...)
	b = strconv.AppendInt(b, r.item, 10)
	b = append(b, ", "...)
	b = strconv.AppendInt(b, r.qty, 10)
	b = append(b, ")]);"...)
	return b
}

const (
	kvScanRows = 100
	// Every 400th kv operation is a range scan. A scan takes ~1000 times as
	// long as a rewrite, so the scans are two thirds of the run time all the
	// same, while 0.25 % keeps them well clear of the 99th percentile: at
	// 0.5 % the p99 sat on the edge of the jump from 0.4 ms to 35 ms and moved
	// 11 % from run to run.
	kvScanEvery = 400
	kvZipfS     = 1.1
	// kvHotKeys is the number of keys the rewrites go to, and a rewrite
	// flips ver between 0 and 1, so rewrites touch 128 tuples in all. The
	// engine keeps every trie path a commit has copied resident from then
	// on, and a tuple's place in the trie depends on all its columns:
	// rewrites to ever new versions, or spread over many keys, would make
	// the whole relation resident within ~100 000 operations and leave no
	// steady state to measure. As it is about an eighth of the leaf nodes
	// become resident during warm-up and the rest is reached by the scans
	// only, through the node cache.
	kvHotKeys = 64
	// kvKeyStride spreads ranks over the key space, so hot keys are not
	// neighbours in any ordering; it is coprime to every row count used.
	kvKeyStride = 7919
)

// appendPad appends the 64-byte payload of key k: k in decimal, zero-padded.
func appendPad(b []byte, k int64) []byte {
	var d [20]byte
	s := strconv.AppendInt(d[:0], k, 10)
	for i := len(s); i < 64; i++ {
		b = append(b, '0')
	}
	return append(b, s...)
}

// kvGen generates point rewrites of Zipf-chosen hot keys and, every
// kvScanEvery-th operation, a range scan.
type kvGen struct {
	w    *workload
	rng  *rand.Rand
	zipf *rand.Zipf
	ver  []int64
	n    int // operations generated
	buf  []byte
}

func newKVGen(w *workload, seed uint64, client int) *kvGen {
	rng := rand.New(rand.NewPCG(seed, uint64(client)+1))
	return &kvGen{
		w:    w,
		rng:  rng,
		zipf: rand.NewZipf(rng, kvZipfS, 1, kvHotKeys-1),
		ver:  make([]int64, w.rows),
	}
}

func (g *kvGen) hotBumps() []int64 { return nil }

func (g *kvGen) live(_ int, dst []row) []row {
	for k, v := range g.ver {
		dst = append(dst, row{id: int64(k), item: v})
	}
	return dst
}

func (g *kvGen) next() op {
	n := int64(g.w.rows)
	g.n++
	if g.n%kvScanEvery == 0 {
		lo := g.rng.Int64N(n - kvScanRows)
		var sum int64
		for k := lo; k < lo+kvScanRows; k++ {
			sum += g.ver[k]
		}
		return op{
			text:     fmt.Sprintf("project(select(kv, k >= %d and k < %d), k, ver)", lo, lo+kvScanRows),
			query:    true,
			wantRows: kvScanRows,
			wantSum:  sum,
		}
	}
	// The stream opens with two rewrites of every hot key, so that warm-up
	// (which is longer) leaves the paths of both versions resident; Zipf
	// ranks after.
	rank := int64(g.n - g.n/kvScanEvery - 1)
	if rank >= 2*kvHotKeys {
		rank = int64(g.zipf.Uint64())
	}
	k := rank % kvHotKeys * kvKeyStride % n
	b := append(g.buf[:0], "begin delete(kv, values[("...)
	b = appendKV(b, k, g.ver[k])
	b = append(b, ")]); insert(kv, values[("...)
	g.ver[k] ^= 1
	b = appendKV(b, k, g.ver[k])
	b = append(b, ")]); end"...)
	g.buf = b
	return op{text: string(b)}
}

func appendKV(b []byte, k, ver int64) []byte {
	b = strconv.AppendInt(b, k, 10)
	b = append(b, ", "...)
	b = strconv.AppendInt(b, ver, 10)
	b = append(b, `, "`...)
	b = appendPad(b, k)
	return append(b, '"')
}

func newGenerator(w *workload, seed uint64, client int) generator {
	if w.kv {
		return newKVGen(w, seed, client)
	}
	return newOrdGen(w, seed, client)
}

// streamHash hashes the first n operations of every client's stream: same
// workload and seed give the same hash.
func streamHash(w *workload, seed uint64, n int) uint64 {
	h := fnv.New64a()
	for c := 0; c < w.clients; c++ {
		g := newGenerator(w, seed, c)
		for i := 0; i < n; i++ {
			o := g.next()
			h.Write([]byte(o.text))
			h.Write([]byte(o.wantConstraint))
			h.Write([]byte{0})
		}
	}
	return h.Sum64()
}
