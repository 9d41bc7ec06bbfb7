// The paging buffer pool: a shared, sized cache of decoded checkpoint trie
// nodes that turns the checkpoint chain into a live backing store.
//
// A paged database's relations are pmap tries whose cold subtrees are lazy
// stubs holding checkpoint addresses (fileID<<40|offset into a ckpt-*.ck
// file). The pager is their Loader: a fault reads the addressed node block
// with two ReadAt calls (length prefix, then body), decodes it through
// pmap.NewNode, and caches the result under a byte budget. Eviction is
// CLOCK: every cached node sits in a ring with a reference bit set on hit;
// when the budget is exceeded the hand sweeps, clearing bits, and evicts the
// first unreferenced, unpinned node. Because the trie never memoizes faulted
// children (the cache is the only memo), an evicted node is simply re-read
// on the next access — correctness never depends on residency.
//
// Concurrent faults of one address are collapsed to a single read
// (singleflight): the leader reads and decodes while waiters block on its
// call and share the result. Relation roots are pinned at Open so the first
// hop of every probe stays resident.
//
// File handles are opened once per checkpoint file and kept until Close.
// A full checkpoint unlinks the files it supersedes at once, but has the
// pager open each of them first (hold): POSIX keeps an unlinked-but-open
// file readable, so a snapshot taken before that checkpoint, or a stale stub
// that escaped its retarget walk (possible when a concurrent mutation
// captured stub objects from an evicted-and-refaulted cache node), still
// faults correctly; the space is reclaimed when the pager closes.
package storage

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"time"
	"unsafe"

	"repro/internal/obs"
	"repro/internal/pmap"
	"repro/internal/relation"
)

// maxNodeBody bounds one node block's body (64 MiB); a larger length prefix
// means a corrupt file, not a real node.
const maxNodeBody = 1 << 26

// pagerMetrics are the cache's metric handles, resolved once at Open from
// the same registry the WAL uses (nil registry → all-nil, nil-safe set).
type pagerMetrics struct {
	hits         *obs.Counter
	misses       *obs.Counter
	evictions    *obs.Counter
	faultSeconds *obs.Histogram
	nodeBytes    *obs.Histogram
	occupancy    *obs.Gauge
}

func newPagerMetrics(reg *obs.Registry) pagerMetrics {
	if reg == nil {
		return pagerMetrics{}
	}
	return pagerMetrics{
		hits:         reg.Counter("repro_storage_cache_hits_total"),
		misses:       reg.Counter("repro_storage_cache_misses_total"),
		evictions:    reg.Counter("repro_storage_cache_evictions_total"),
		faultSeconds: reg.Histogram("repro_storage_cache_fault_seconds"),
		nodeBytes:    reg.Histogram("repro_storage_cache_node_bytes"),
		occupancy:    reg.Gauge("repro_storage_cache_occupancy"),
	}
}

// pageEntry is one cached decoded node.
type pageEntry struct {
	addr pmap.Addr
	node *pmap.Node[relation.Tuple]
	size int64
	ref  bool // CLOCK reference bit; set on hit, cleared by the sweeping hand
}

// pageCall is an in-flight fault other goroutines wait on (singleflight).
type pageCall struct {
	done chan struct{}
	node *pmap.Node[relation.Tuple]
	err  error
}

// pager implements pmap.Loader[relation.Tuple] over the checkpoint files of
// one database directory. Safe for concurrent use.
type pager struct {
	dir    string
	budget int64
	met    pagerMetrics

	mu       sync.Mutex
	entries  map[pmap.Addr]*pageEntry
	ring     []*pageEntry // CLOCK ring over entries
	hand     int
	pinned   map[pmap.Addr]bool
	used     int64
	inflight map[pmap.Addr]*pageCall
	files    map[uint64]*os.File
	closed   bool
}

func newPager(dir string, budget int64, reg *obs.Registry) *pager {
	return &pager{
		dir:      dir,
		budget:   budget,
		met:      newPagerMetrics(reg),
		entries:  map[pmap.Addr]*pageEntry{},
		pinned:   map[pmap.Addr]bool{},
		inflight: map[pmap.Addr]*pageCall{},
		files:    map[uint64]*os.File{},
	}
}

// pin marks a (root) address as unevictable. Called at Open only; a pinned
// node costs its size permanently, so pin roots, not subtrees.
func (p *pager) pin(a pmap.Addr) {
	p.mu.Lock()
	p.pinned[a] = true
	p.mu.Unlock()
}

// Load implements pmap.Loader: cache hit, or singleflight fault from the
// checkpoint file.
func (p *pager) Load(a pmap.Addr) (*pmap.Node[relation.Tuple], error) {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil, errors.New("storage: node cache closed")
	}
	if e, ok := p.entries[a]; ok {
		e.ref = true
		p.mu.Unlock()
		p.met.hits.Inc()
		return e.node, nil
	}
	if c, ok := p.inflight[a]; ok {
		p.mu.Unlock()
		<-c.done
		if c.err != nil {
			return nil, c.err
		}
		p.met.hits.Inc() // the leader counted the miss; waiters share its read
		return c.node, nil
	}
	c := &pageCall{done: make(chan struct{})}
	p.inflight[a] = c
	p.mu.Unlock()

	p.met.misses.Inc()
	var t0 time.Time
	if p.met.faultSeconds != nil {
		t0 = time.Now()
	}
	node, size, err := p.fault(a)
	if p.met.faultSeconds != nil {
		p.met.faultSeconds.Observe(uint64(time.Since(t0)))
	}

	p.mu.Lock()
	delete(p.inflight, a)
	if err == nil && !p.closed {
		p.insertLocked(a, node, size)
	}
	p.mu.Unlock()

	c.node, c.err = node, err
	close(c.done)
	return node, err
}

// insertLocked adds a freshly faulted node to the cache and evicts while
// over budget. Caller holds p.mu.
func (p *pager) insertLocked(a pmap.Addr, n *pmap.Node[relation.Tuple], size int64) {
	if _, ok := p.entries[a]; ok {
		return // a racing leader of an earlier generation; keep the resident one
	}
	e := &pageEntry{addr: a, node: n, size: size, ref: true}
	p.entries[a] = e
	p.ring = append(p.ring, e)
	p.used += size
	p.met.nodeBytes.Observe(uint64(size))
	for p.used > p.budget && len(p.ring) > 0 {
		if !p.evictOneLocked() {
			break // everything referenced-and-pinned; over-budget by pins
		}
	}
	p.met.occupancy.Set(p.used)
}

// evictOneLocked sweeps the CLOCK hand for one victim, clearing reference
// bits as it passes; reports whether a node was evicted. Caller holds p.mu.
func (p *pager) evictOneLocked() bool {
	for sweep := 0; sweep < 2*len(p.ring); sweep++ {
		if p.hand >= len(p.ring) {
			p.hand = 0
		}
		e := p.ring[p.hand]
		if p.pinned[e.addr] {
			p.hand++
			continue
		}
		if e.ref {
			e.ref = false
			p.hand++
			continue
		}
		// Victim: swap-remove from the ring; the swapped-in tail element is
		// examined next, so the hand does not advance.
		last := len(p.ring) - 1
		p.ring[p.hand] = p.ring[last]
		p.ring[last] = nil
		p.ring = p.ring[:last]
		delete(p.entries, e.addr)
		p.used -= e.size
		p.met.evictions.Inc()
		return true
	}
	return false
}

// fault reads and decodes the node block at a. No cache state is touched.
func (p *pager) fault(a pmap.Addr) (*pmap.Node[relation.Tuple], int64, error) {
	fid := uint64(a) >> addrShift
	off := int64(uint64(a) & offsetMask)
	f, err := p.file(fid)
	if err != nil {
		return nil, 0, err
	}
	var pfx [binary.MaxVarintLen64]byte
	n, err := f.ReadAt(pfx[:], off)
	if err != nil && err != io.EOF {
		return nil, 0, fmt.Errorf("storage: fault node %x: %w", uint64(a), err)
	}
	bodyLen, k := binary.Uvarint(pfx[:n])
	if k <= 0 || bodyLen == 0 || bodyLen > maxNodeBody {
		return nil, 0, fmt.Errorf("storage: fault node %x: bad block length", uint64(a))
	}
	body := make([]byte, bodyLen)
	if _, err := f.ReadAt(body, off+int64(k)); err != nil {
		return nil, 0, fmt.Errorf("storage: fault node %x: %w", uint64(a), err)
	}
	node, _, err := decodeNodeBlock(a, body)
	if err != nil {
		return nil, 0, err
	}
	// Measured resident size: the decoded node structures (pmap.Footprint
	// walks the slots, charging stub children, key strings and tuple
	// payloads at their unsafe.Sizeof-derived cost) plus this cache's own
	// per-entry bookkeeping. TestNodeFootprintAccuracy pins the measurement
	// against retained-heap ground truth.
	size := node.Footprint(relation.Tuple.Footprint) + int64(unsafe.Sizeof(pageEntry{}))
	return node, size, nil
}

// file returns the (cached) handle for checkpoint file fid, opening it on
// first use. Handles stay open until Close so superseded files remain
// readable after their unlink.
func (p *pager) file(fid uint64) (*os.File, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return nil, errors.New("storage: node cache closed")
	}
	if f, ok := p.files[fid]; ok {
		return f, nil
	}
	f, err := os.Open(filepath.Join(p.dir, ckptName(fid)))
	if err != nil {
		return nil, fmt.Errorf("storage: fault: %w", err)
	}
	p.files[fid] = f
	return f, nil
}

// hold reports whether checkpoint file fid may be unlinked: the pager has
// its handle open, so every later fault still reads it, or the file does not
// exist, so nothing can address it. Anything else (a failed open, a closed
// pager) says no.
func (p *pager) hold(fid uint64) bool {
	_, err := p.file(fid)
	return err == nil || errors.Is(err, os.ErrNotExist)
}

// Close drops the cache and closes every file handle (reclaiming the space
// of unlinked files). Faults racing Close fail cleanly.
func (p *pager) Close() error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil
	}
	p.closed = true
	files := p.files
	p.files = map[uint64]*os.File{}
	p.entries = map[pmap.Addr]*pageEntry{}
	p.ring = nil
	p.used = 0
	p.met.occupancy.Set(0)
	p.mu.Unlock()
	var err error
	for _, f := range files {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// decodeNodeBlock decodes a v2 node block body into a pmap node. Exact
// consumption is required; every structural violation is an error (never a
// panic), which FuzzNodeDecode leans on.
func decodeNodeBlock(addr pmap.Addr, body []byte) (*pmap.Node[relation.Tuple], int, error) {
	bitmap, k := binary.Uvarint(body)
	if k <= 0 {
		return nil, 0, fmt.Errorf("storage: node %x: bad bitmap", uint64(addr))
	}
	body = body[k:]
	if len(body) == 0 {
		return nil, 0, fmt.Errorf("storage: node %x: missing flags", uint64(addr))
	}
	flags := body[0]
	body = body[1:]
	if flags&^1 != 0 {
		return nil, 0, fmt.Errorf("storage: node %x: unknown flags %#x", uint64(addr), flags)
	}
	coll := flags&1 != 0
	nslots, k := binary.Uvarint(body)
	if k <= 0 || nslots == 0 || nslots > uint64(len(body)) {
		return nil, 0, fmt.Errorf("storage: node %x: bad slot count", uint64(addr))
	}
	body = body[k:]
	slots := make([]pmap.SlotData[relation.Tuple], nslots)
	for i := range slots {
		child, k := binary.Uvarint(body)
		if k <= 0 {
			return nil, 0, fmt.Errorf("storage: node %x: bad child address", uint64(addr))
		}
		body = body[k:]
		if child != 0 {
			if pmap.Addr(child) == addr {
				return nil, 0, fmt.Errorf("storage: node %x: self-referential child", uint64(addr))
			}
			if child>>addrShift == 0 {
				return nil, 0, fmt.Errorf("storage: node %x: child address %x in file 0", uint64(addr), child)
			}
			slots[i] = pmap.SlotData[relation.Tuple]{Child: pmap.Addr(child)}
			continue
		}
		t, rest, err := relation.DecodeTuple(body)
		if err != nil {
			return nil, 0, fmt.Errorf("storage: node %x: %w", uint64(addr), err)
		}
		body = rest
		slots[i] = pmap.SlotData[relation.Tuple]{Key: t.Key(), Val: t}
	}
	if len(body) != 0 {
		return nil, 0, fmt.Errorf("storage: node %x: %d trailing bytes", uint64(addr), len(body))
	}
	node, err := pmap.NewNode(addr, bitmap, coll, slots)
	if err != nil {
		return nil, 0, fmt.Errorf("storage: node %x: %w", uint64(addr), err)
	}
	return node, int(nslots), nil
}
