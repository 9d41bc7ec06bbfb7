// The paging buffer pool: a shared, sized cache of decoded checkpoint trie
// nodes that turns the checkpoint chain into a live backing store.
//
// A paged database's relations are pmap tries whose cold subtrees are lazy
// stubs holding checkpoint addresses (fileID<<40|offset into a ckpt-*.ck
// file). The pager is their Loader, with two ways in. A point fault (Load)
// reads the addressed node block with one ReadAt into a pooled 2 KiB
// buffer, decodes it through the block parser (block.go) and pmap.NewNode
// into arrays of exactly its size, and caches the result under a byte
// budget. Eviction is CLOCK: every cached node sits in a ring with a
// reference bit set on hit; when the budget is exceeded the hand sweeps,
// clearing bits, and evicts the first unreferenced, unpinned node. Because
// the trie never memoizes faulted children (the cache is the only memo), an
// evicted node is simply re-read on the next access — correctness never
// depends on residency.
//
// A whole-map walk opens one scanner (Scan, pageScan) at its first cold
// node and closes it when it ends. The scanner walks a cached node in place
// and sets its reference bit. On a miss it reads the block out of one of
// its own 32 KiB-aligned windows of the checkpoint file (a block that
// crosses a window's end is read alone), parses it once into the chunks of
// its own arena and hands the child addresses and tuples over straight
// from the parse, building no trie node, stub or key. It admits the node,
// built with arrays of its own, only into free budget and never evicts, so
// one pass over a relation larger than the cache cannot flush the nodes
// point probes keep hot, and a relation smaller than the cache is resident
// after one scan. Streamed reads count as misses and are timed like
// faults; repro_storage_cache_streamed_total counts those that were not
// admitted, and repro_storage_cache_reads_total counts every ReadAt.
//
// Concurrent faults of one address are collapsed to a single read
// (singleflight): the leader reads and decodes while waiters — point faults
// and scans alike — block on its call and share the result. Relation roots
// are pinned at Open so the first hop of every probe stays resident.
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

// errCacheClosed is the fault of a read after Close.
var errCacheClosed = errors.New("storage: node cache closed")

// maxNodeBody bounds one node block's body (64 MiB); a larger length prefix
// means a corrupt file, not a real node.
const maxNodeBody = 1 << 26

// pagerMetrics are the cache's metric handles, resolved once at Open from
// the same registry the WAL uses (nil registry → all-nil, nil-safe set).
type pagerMetrics struct {
	hits         *obs.Counter
	misses       *obs.Counter
	reads        *obs.Counter
	streamed     *obs.Counter
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
		reads:        reg.Counter("repro_storage_cache_reads_total"),
		streamed:     reg.Counter("repro_storage_cache_streamed_total"),
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
		return nil, errCacheClosed
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
	p.addLocked(a, n, size, true)
	for p.used > p.budget && len(p.ring) > 0 {
		if !p.evictOneLocked() {
			break // everything referenced-and-pinned; over-budget by pins
		}
	}
	p.met.occupancy.Set(p.used)
}

// admitLocked adds a node a scan read when it fits in the free budget, and
// reports whether the node is resident. It never evicts, and leaves the
// reference bit clear, so a scan's nodes are the CLOCK hand's first
// victims once point faults need the room. Caller holds p.mu.
func (p *pager) admitLocked(a pmap.Addr, n *pmap.Node[relation.Tuple], size int64) bool {
	if p.closed || p.used+size > p.budget {
		return false
	}
	p.addLocked(a, n, size, false)
	p.met.occupancy.Set(p.used)
	return true
}

// addLocked puts a node in the cache unless a racing read already did.
// Caller holds p.mu.
func (p *pager) addLocked(a pmap.Addr, n *pmap.Node[relation.Tuple], size int64, ref bool) {
	if _, ok := p.entries[a]; ok {
		return // a racing leader of an earlier generation; keep the resident one
	}
	e := &pageEntry{addr: a, node: n, size: size, ref: ref}
	p.entries[a] = e
	p.ring = append(p.ring, e)
	p.used += size
	p.met.nodeBytes.Observe(uint64(size))
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
	body, w, err := p.readBlock(a)
	if err != nil {
		return nil, 0, err
	}
	node, err := decodeNodeBlock(a, body)
	putWindow(w)
	if err != nil {
		return nil, 0, err
	}
	return node, nodeSize(node), nil
}

// nodeSize is a decoded node's measured resident size: the node structures
// (pmap.Footprint walks the slots, charging stub children, key strings and
// tuple payloads at their unsafe.Sizeof-derived cost) plus this cache's own
// per-entry bookkeeping. TestNodeFootprintAccuracy pins the measurement
// against retained-heap ground truth.
func nodeSize(n *pmap.Node[relation.Tuple]) int64 {
	return n.Footprint(relation.Tuple.Footprint) + int64(unsafe.Sizeof(pageEntry{}))
}

// Scan implements pmap.Loader: a whole-map walk's scanner, opened at the
// walk's first cold node. It owns the walk's read windows and the arena its
// streamed tuples decode into, so concurrent scans share nothing but the
// cache and the file handles.
func (p *pager) Scan() pmap.Scanner[relation.Tuple] {
	return &pageScan{p: p}
}

// pageScan is one walk's scanner (see Scan). Not safe for concurrent use.
type pageScan struct {
	p     *pager
	wins  [scanWindows]window // FIFO: the next load replaces wins[next]
	next  int
	arena relation.Arena
}

// Stream implements pmap.Scanner. A cached node is walked in place (and
// its reference bit set). Otherwise the block is read through the scan's
// windows and parsed once, and its slots are handed over straight from the
// parse: no pmap node, no stubs, no keys. When the node fits in the free
// budget it is built with arrays of its own and admitted instead, so a
// relation smaller than the cache is resident after one scan; a scan never
// evicts.
func (s *pageScan) Stream(a pmap.Addr, dst []pmap.SlotData[relation.Tuple]) ([]pmap.SlotData[relation.Tuple], error) {
	p := s.p
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return dst, errCacheClosed
	}
	if e, ok := p.entries[a]; ok {
		e.ref = true
		p.mu.Unlock()
		p.met.hits.Inc()
		return appendNode(dst, e.node), nil
	}
	c := p.inflight[a]
	room := p.budget - p.used
	p.mu.Unlock()
	if c != nil { // a point fault is reading this node: share its read
		<-c.done
		if c.err != nil {
			return dst, c.err
		}
		p.met.hits.Inc()
		return appendNode(dst, c.node), nil
	}

	p.met.misses.Inc()
	var t0 time.Time
	if p.met.faultSeconds != nil {
		t0 = time.Now()
	}
	dst, admitted, err := s.read(a, room, dst)
	if p.met.faultSeconds != nil {
		p.met.faultSeconds.Observe(uint64(time.Since(t0)))
	}
	if err == nil && !admitted {
		p.met.streamed.Inc()
	}
	return dst, err
}

// read reads the block at a and appends its slots to dst (streamBlock),
// admitting the node streamBlock builds when it still fits; it reports
// whether it did.
func (s *pageScan) read(a pmap.Addr, room int64, dst []pmap.SlotData[relation.Tuple]) ([]pmap.SlotData[relation.Tuple], bool, error) {
	body, w, err := s.block(a)
	if err != nil {
		return dst, false, err
	}
	dst, n, err := streamBlock(a, body, room, dst, &s.arena)
	putWindow(w)
	if err != nil || n == nil {
		return dst, false, err
	}
	s.p.mu.Lock()
	admitted := s.p.admitLocked(a, n, nodeSize(n))
	s.p.mu.Unlock()
	return dst, admitted, nil
}

// scanWindow is the size and alignment of a scan's read window, and
// scanWindows the number of windows one scan holds. Checkpoints lay a trie
// out in post-order, so a pre-order walk sweeps forward through a
// subtree's blocks and returns to an earlier window only to start a
// sibling. On BenchmarkPagedScan (40 000 rows of an int and a 64-byte
// string behind a 1 MiB node cache, 2-CPU host; about 6 300 streamed
// blocks) a scan made 295 reads with one 32 KiB window, 209 with two and
// 167 with four or eight; four windows of 16, 32, 64 and 128 KiB made 353,
// 167, 83 and 41 reads, at scan times within the runs' spread
// (8.5–11.8 ms). Four 32 KiB windows take that floor for 128 KiB a scan.
const (
	scanWindow  = 32 << 10
	scanWindows = 4
)

// window is checkpoint file bytes [off, off+n) of file fid, in a pooled
// buffer of exactly scanWindow bytes (a size class of its own; nil until
// the window is first loaded).
type window struct {
	fid uint64
	off int64
	n   int
	buf *[scanWindow]byte
}

var scanWindowPool = sync.Pool{New: func() any { return new([scanWindow]byte) }}

// Close implements pmap.Scanner: it returns the scan's windows to the pool
// and drops its arena (the tuples it handed out keep their chunks alive).
func (s *pageScan) Close() {
	for i := range s.wins {
		if s.wins[i].buf != nil {
			scanWindowPool.Put(s.wins[i].buf)
		}
		s.wins[i] = window{}
	}
	s.arena = relation.Arena{}
}

// block returns the body of the node block at a. A block inside one of the
// scan's windows, or inside the window its offset loads, is sliced out of
// it: nothing is returned for putWindow. A block that crosses the end of
// its window or is larger than one is read alone (readBlock).
func (s *pageScan) block(a pmap.Addr) ([]byte, *[]byte, error) {
	fid, off := uint64(a)>>addrShift, int64(uint64(a)&offsetMask)
	w, err := s.window(fid, off)
	if err != nil {
		return nil, nil, err
	}
	if w != nil {
		b := w.buf[off-w.off : w.n]
		bodyLen, k := binary.Uvarint(b)
		if k > 0 && bodyLen > 0 && bodyLen <= uint64(len(b)-k) {
			return b[k : k+int(bodyLen)], nil, nil
		}
	}
	return s.p.readBlock(a)
}

// window returns the scan's window holding byte off of file fid, loading
// it when no window does; nil when the file ends before off.
func (s *pageScan) window(fid uint64, off int64) (*window, error) {
	for i := range s.wins {
		if w := &s.wins[i]; w.fid == fid && off >= w.off && off < w.off+int64(w.n) {
			return w, nil
		}
	}
	f, err := s.p.file(fid)
	if err != nil {
		return nil, err
	}
	w := &s.wins[s.next]
	s.next = (s.next + 1) % scanWindows
	if w.buf == nil {
		w.buf = scanWindowPool.Get().(*[scanWindow]byte)
	}
	w.fid, w.off = fid, off&^(scanWindow-1)
	s.p.met.reads.Inc()
	w.n, err = f.ReadAt(w.buf[:], w.off)
	if err != nil && err != io.EOF {
		w.n = 0
		return nil, fmt.Errorf("storage: fault node %x: %w", fid<<addrShift|uint64(off), err)
	}
	if off >= w.off+int64(w.n) {
		return nil, nil
	}
	return w, nil
}

// blockWindow is the size of a pooled read window: larger than a node block
// of typical rows, so one ReadAt usually reads the length prefix and the
// whole body.
const blockWindow = 2 << 10

var windowPool = sync.Pool{New: func() any {
	b := make([]byte, blockWindow)
	return &b
}}

// putWindow returns a window readBlock handed out (nil for none).
func putWindow(w *[]byte) {
	if w != nil {
		windowPool.Put(w)
	}
}

// readBlock reads the node block at a with one ReadAt into a pooled window,
// and a second only when the block is larger than the window. It returns
// the body and the window it aliases (nil when it does not), which the
// caller hands to putWindow once it has decoded the body.
func (p *pager) readBlock(a pmap.Addr) ([]byte, *[]byte, error) {
	fid := uint64(a) >> addrShift
	off := int64(uint64(a) & offsetMask)
	f, err := p.file(fid)
	if err != nil {
		return nil, nil, err
	}
	w := windowPool.Get().(*[]byte)
	buf := *w
	p.met.reads.Inc()
	n, err := f.ReadAt(buf, off)
	if err != nil && err != io.EOF {
		putWindow(w)
		return nil, nil, fmt.Errorf("storage: fault node %x: %w", uint64(a), err)
	}
	bodyLen, k := binary.Uvarint(buf[:n])
	if k <= 0 || bodyLen == 0 || bodyLen > maxNodeBody || (n < len(buf) && uint64(n-k) < bodyLen) {
		putWindow(w)
		return nil, nil, fmt.Errorf("storage: fault node %x: bad block length", uint64(a))
	}
	end := k + int(bodyLen)
	if end <= n {
		return buf[k:end], w, nil
	}
	big := make([]byte, end)
	copy(big, buf[:n])
	putWindow(w)
	p.met.reads.Inc()
	if _, err := f.ReadAt(big[n:], off+int64(n)); err != nil {
		return nil, nil, fmt.Errorf("storage: fault node %x: %w", uint64(a), err)
	}
	return big[k:], nil, nil
}

// file returns the (cached) handle for checkpoint file fid, opening it on
// first use. Handles stay open until Close so superseded files remain
// readable after their unlink.
func (p *pager) file(fid uint64) (*os.File, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return nil, errCacheClosed
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
