// Checkpoint files: periodic persistent images of a published snapshot,
// bounding how much WAL a recovery must replay.
//
// A checkpoint file (ckpt-%08d.ck) serializes the snapshot's relation tries
// through pmap's bottom-up Persist walk: each trie node becomes one
// length-prefixed block carrying its exact structure — bitmap, collision
// flag and slots in stored order, each slot either a child address or a
// tuple — and a node's address packs (file id << 40 | offset) into a
// pmap.Addr. The block is decodable in isolation (decodeNodeBlock), which is
// what lets the pager fault single nodes back in and makes the checkpoint a
// live backing store, not just a backup. Because frozen trie nodes memoize
// the address the last checkpoint assigned them, an incremental checkpoint
// re-serializes only the nodes created since the previous one (path copies
// of the commits in between) and refers to everything else by address into
// earlier files of its chain. Every FullEvery-th checkpoint is full — it
// retains no earlier address, so it is self-contained — and once it commits,
// all older checkpoint files are superseded and the WAL is truncated to the
// checkpoint's LSN watermark. Superseded files are unlinked on the spot. On
// a paged database an older snapshot may still hold stubs addressed into
// them, so the pager opens each one first: it keeps every handle until
// Close, and an unlinked file stays readable through an open handle.
//
// The directory at the end of the file records, per relation, the schema,
// the trie root address and the cardinality, followed by the index
// definitions, so recovery needs no other source of schema. A footer stores
// the directory offset, a CRC of the directory and a magic; the file is
// written to a temp name, fsynced, renamed into place and the directory
// fsynced, so a crash mid-checkpoint leaves no half-visible file — recovery
// simply uses the previous chain and a longer WAL tail.
package storage

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/obs"
	"repro/internal/pmap"
	"repro/internal/relation"
	"repro/internal/schema"
)

const (
	// ckptMagic names the format version. RPRCKPT1 node blocks lacked the
	// self-describing framing; RPRCKPT2 placed tuples in the trie by a
	// different key encoding, so its tries would be misread. Both are
	// refused by checkCkpt.
	ckptMagic    = ckptMagicFamily + "3"
	ckptEndMagic = "RPRCKEND"
	// ckptMagicFamily is the prefix every version's magic shares.
	ckptMagicFamily = "RPRCKPT"
	// ckptFooterLen is the footer: dirOff u64, crc32c(directory) u32, and
	// ckptEndMagic.
	ckptFooterLen = 8 + 4 + 8
	// addrShift packs a node address as fileID<<addrShift | offset: 24 bits
	// of file id, 40 bits of offset (1 TiB per checkpoint file).
	addrShift  = 40
	offsetMask = (uint64(1) << addrShift) - 1
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

func ckptName(id uint64) string { return fmt.Sprintf("ckpt-%08d.ck", id) }

func parseCkptName(name string) (uint64, bool) {
	var id uint64
	if _, err := fmt.Sscanf(name, "ckpt-%08d.ck", &id); err != nil {
		return 0, false
	}
	return id, true
}

// ckptSink implements pmap.Sink over the checkpoint file being written.
type ckptSink struct {
	w         *bufio.Writer
	off       int64
	fileID    uint64
	chainBase uint64
	live      map[uint64]bool
	buf       []byte
}

func (s *ckptSink) Retained(a pmap.Addr) bool {
	fid := uint64(a) >> addrShift
	return fid >= s.chainBase && s.live[fid]
}

func (s *ckptSink) Node(info pmap.NodeInfo[relation.Tuple]) (pmap.Addr, error) {
	off := s.off
	if uint64(off) > offsetMask {
		return 0, fmt.Errorf("storage: checkpoint file exceeds addressable size")
	}
	// Body: bitmap, flags, slot count, then the slots in stored order — a
	// child address, or address 0 followed by the tuple (the pmap key is the
	// tuple's canonical key: derivable, so recomputed on load).
	b := s.buf[:0]
	b = binary.AppendUvarint(b, info.Bitmap)
	var flags byte
	if info.Coll {
		flags |= 1
	}
	b = append(b, flags)
	b = binary.AppendUvarint(b, uint64(len(info.Slots)))
	for _, sl := range info.Slots {
		b = binary.AppendUvarint(b, uint64(sl.Child))
		if sl.Child == 0 {
			b = relation.AppendTuple(b, sl.Val)
		}
	}
	s.buf = b
	var pfx [binary.MaxVarintLen64]byte
	hdr := binary.PutUvarint(pfx[:], uint64(len(b)))
	if _, err := s.w.Write(pfx[:hdr]); err != nil {
		return 0, err
	}
	if _, err := s.w.Write(b); err != nil {
		return 0, err
	}
	s.off += int64(hdr + len(b))
	return pmap.Addr(s.fileID<<addrShift | uint64(off)), nil
}

// Checkpoint writes a checkpoint of the current snapshot, truncates the WAL
// through its LSN watermark and, when the checkpoint was full, deletes the
// superseded files. It is safe to call concurrently with commits (the
// snapshot is immutable; concurrent Checkpoint calls serialize). Errors
// leave the previous chain and the WAL untouched.
func (d *Database) Checkpoint() error {
	du := d.dur
	if du == nil {
		return fmt.Errorf("storage: Checkpoint on an in-memory database")
	}
	du.ckptMu.Lock()
	defer du.ckptMu.Unlock()

	met := d.met
	timed := met.ckptSeconds != nil || d.tr != nil
	var tStart time.Time
	if timed {
		tStart = time.Now()
	}
	snap := d.snap.Load()
	fileID := du.nextFile
	du.nextFile++
	full := du.opts.FullEvery <= 1 || du.count%uint64(du.opts.FullEvery) == 0 || len(du.live) == 0
	chainBase := du.lastFull
	if full {
		chainBase = fileID
	}
	d.emit(obs.Event{Kind: obs.EvCheckpointStart, Time: snap.time, LSN: snap.lsn})

	tmp := filepath.Join(du.dir, ckptName(fileID)+".tmp")
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("storage: checkpoint: %w", err)
	}
	defer os.Remove(tmp) // no-op after the rename succeeds

	sink := &ckptSink{w: bufio.NewWriter(f), fileID: fileID, chainBase: chainBase, live: du.live}
	hdr := append([]byte(ckptMagic), binary.AppendUvarint(nil, fileID)...)
	hdr = binary.AppendUvarint(hdr, chainBase)
	hdr = binary.AppendUvarint(hdr, snap.lsn)
	hdr = binary.AppendUvarint(hdr, snap.time)
	if _, err := sink.w.Write(hdr); err != nil {
		f.Close()
		return fmt.Errorf("storage: checkpoint: %w", err)
	}
	sink.off = int64(len(hdr))

	names := make([]string, 0, len(snap.tabs))
	for name := range snap.tabs {
		names = append(names, name)
	}
	sort.Strings(names)
	type relEntry struct {
		name string
		root pmap.Addr
		size int
	}
	entries := make([]relEntry, 0, len(names))
	results := make([]*pmap.Persisted, 0, len(names))
	for _, name := range names {
		r := snap.tabs[name].inst
		res, err := r.Persist(sink)
		if err != nil {
			f.Close()
			return fmt.Errorf("storage: checkpoint relation %q: %w", name, err)
		}
		entries = append(entries, relEntry{name: name, root: res.Root, size: r.Len()})
		results = append(results, res)
	}

	// Directory: schemas, roots and cardinalities, then the index defs.
	dirOff := sink.off
	dir := binary.AppendUvarint(nil, uint64(len(entries)))
	for _, e := range entries {
		rs, ok := snap.sch.Relation(e.name)
		if !ok {
			f.Close()
			return fmt.Errorf("storage: checkpoint: relation %q missing from schema", e.name)
		}
		dir = encodeRelationSchema(dir, rs)
		dir = binary.AppendUvarint(dir, uint64(e.root))
		dir = binary.AppendUvarint(dir, uint64(e.size))
	}
	var hashDefs, orderedDefs [][]byte
	for _, name := range names {
		set := snap.tabs[name].idx
		for _, x := range set.All() {
			hashDefs = append(hashDefs, encodeIndexDef(name, x.Cols(), false))
		}
		for _, x := range set.OrderedAll() {
			orderedDefs = append(orderedDefs, encodeIndexDef(name, x.Cols(), true))
		}
	}
	dir = binary.AppendUvarint(dir, uint64(len(hashDefs)))
	for _, b := range hashDefs {
		dir = append(dir, b...)
	}
	dir = binary.AppendUvarint(dir, uint64(len(orderedDefs)))
	for _, b := range orderedDefs {
		dir = append(dir, b...)
	}
	if _, err := sink.w.Write(dir); err != nil {
		f.Close()
		return fmt.Errorf("storage: checkpoint: %w", err)
	}
	var footer [ckptFooterLen]byte
	binary.LittleEndian.PutUint64(footer[:], uint64(dirOff))
	binary.LittleEndian.PutUint32(footer[8:], crc32.Checksum(dir, crcTable))
	copy(footer[12:], ckptEndMagic)
	if _, err := sink.w.Write(footer[:]); err != nil {
		f.Close()
		return fmt.Errorf("storage: checkpoint: %w", err)
	}
	if err := sink.w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("storage: checkpoint: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("storage: checkpoint: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("storage: checkpoint: %w", err)
	}
	if err := os.Rename(tmp, filepath.Join(du.dir, ckptName(fileID))); err != nil {
		return fmt.Errorf("storage: checkpoint: %w", err)
	}
	if err := syncDir(du.dir); err != nil {
		return fmt.Errorf("storage: checkpoint: %w", err)
	}

	// Committed: the new file is durable and readable, so stubs rewritten by
	// a full checkpoint may now be repointed at their new addresses.
	for _, res := range results {
		res.CommitRetargets()
	}

	// The new file joins the chain; a full checkpoint supersedes everything
	// older, and the superseded files are unlinked here. On a paged database
	// a snapshot taken before this checkpoint may still fault through stubs
	// addressed into them, so the pager takes their handles first (see
	// pager.hold). A file it cannot open stays on disk; the next Open removes
	// it as lying below the chain base.
	du.live[fileID] = true
	du.count++
	if full {
		du.lastFull = fileID
		for id := range du.live {
			if id < fileID {
				if du.pager == nil || du.pager.hold(id) {
					os.Remove(filepath.Join(du.dir, ckptName(id)))
				}
				delete(du.live, id)
			}
		}
	}
	du.bytes.Store(0)
	total := uint64(dirOff) + uint64(len(dir)) + uint64(len(footer))
	met.ckptRuns.Inc()
	if full {
		met.ckptFull.Inc()
	}
	met.ckptBytes.Observe(total)
	var dur time.Duration
	if timed {
		dur = time.Since(tStart)
	}
	if met.ckptSeconds != nil {
		met.ckptSeconds.Observe(uint64(dur))
	}
	d.emit(obs.Event{Kind: obs.EvCheckpointEnd, Time: snap.time, LSN: snap.lsn, Bytes: total, Dur: dur, OK: full})
	if err := du.w.TruncateThrough(snap.lsn); err != nil {
		return err
	}
	return nil
}

func syncDir(dir string) error {
	f, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = f.Sync()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// ckptState is a checkpoint chain loaded back into memory.
type ckptState struct {
	fileID   uint64 // newest file of the chain
	lastFull uint64 // chain base
	live     map[uint64]bool
	lsn      uint64
	time     uint64
	sch      *schema.Database
	rels     map[string]*relation.Relation // mutable, for WAL replay on top
	hash     [][]byte                      // encoded index defs, in definition order
	ordered  [][]byte
}

// loadCheckpoint reads the newest checkpoint chain under dir, or returns nil
// when none exists. The relations come back mutable (unsealed) so the WAL
// tail can replay onto them. With a pager, only the newest file's header and
// directory are read — each relation materializes as a root stub over the
// chain and every node faults in on demand — so opening an arbitrarily large
// database touches kilobytes. Without one, every node of the chain is
// decoded eagerly as before. Files below the chain base (superseded by a
// full checkpoint that could not unlink them, or died before it did) are
// removed: nothing can address them.
func loadCheckpoint(dir string, pg *pager) (*ckptState, error) {
	entries, err := os.ReadDir(dir)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("storage: recover: %w", err)
	}
	var ids []uint64
	for _, e := range entries {
		if id, ok := parseCkptName(e.Name()); ok {
			ids = append(ids, id)
		}
	}
	if len(ids) == 0 {
		return nil, nil
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	newest := ids[len(ids)-1]

	var rest, dirBytes []byte
	var files map[uint64][]byte
	if pg != nil {
		rest, dirBytes, err = readCkptMeta(filepath.Join(dir, ckptName(newest)))
	} else {
		var data []byte
		data, rest, dirBytes, err = readCkptFile(filepath.Join(dir, ckptName(newest)))
		files = map[uint64][]byte{newest: data}
	}
	if err != nil {
		return nil, err
	}
	st := &ckptState{fileID: newest, live: map[uint64]bool{newest: true}}
	var k int
	if _, k = binary.Uvarint(rest); k <= 0 { // file id (redundant with the name)
		return nil, fmt.Errorf("storage: checkpoint %d: bad header", newest)
	}
	rest = rest[k:]
	if st.lastFull, k = binary.Uvarint(rest); k <= 0 {
		return nil, fmt.Errorf("storage: checkpoint %d: bad header", newest)
	}
	rest = rest[k:]
	if st.lsn, k = binary.Uvarint(rest); k <= 0 {
		return nil, fmt.Errorf("storage: checkpoint %d: bad header", newest)
	}
	rest = rest[k:]
	if st.time, k = binary.Uvarint(rest); k <= 0 {
		return nil, fmt.Errorf("storage: checkpoint %d: bad header", newest)
	}

	// The chain: every surviving file in [lastFull, newest]. Ids of failed
	// attempts are simply absent; nothing references them. Leftover files
	// below the chain base are dead — remove them.
	for _, id := range ids {
		switch {
		case id < st.lastFull:
			os.Remove(filepath.Join(dir, ckptName(id)))
		case id < newest:
			if pg == nil {
				d, _, _, err := readCkptFile(filepath.Join(dir, ckptName(id)))
				if err != nil {
					return nil, err
				}
				files[id] = d
			}
			st.live[id] = true
		}
	}

	// Directory: relations.
	n, k := binary.Uvarint(dirBytes)
	if k <= 0 {
		return nil, fmt.Errorf("storage: checkpoint %d: bad directory", newest)
	}
	dirBytes = dirBytes[k:]
	var schemas []*schema.Relation
	st.rels = make(map[string]*relation.Relation, n)
	for i := uint64(0); i < n; i++ {
		rs, rem, err := decodeRelationSchema(dirBytes)
		if err != nil {
			return nil, fmt.Errorf("storage: checkpoint %d: %w", newest, err)
		}
		dirBytes = rem
		root, k := binary.Uvarint(dirBytes)
		if k <= 0 {
			return nil, fmt.Errorf("storage: checkpoint %d: bad root", newest)
		}
		dirBytes = dirBytes[k:]
		size, k := binary.Uvarint(dirBytes)
		if k <= 0 {
			return nil, fmt.Errorf("storage: checkpoint %d: bad size", newest)
		}
		dirBytes = dirBytes[k:]
		var r *relation.Relation
		if pg != nil {
			// Shallow open: a root stub over the chain, cardinality trusted
			// from the CRC-checked directory. Pinning the root keeps the
			// first hop of every probe resident.
			r = relation.FromPersisted(rs, pmap.Addr(root), int(size), pg)
			if root != 0 {
				pg.pin(pmap.Addr(root))
			}
		} else {
			r = relation.New(rs)
			if root != 0 {
				if err := collectNodes(files, pmap.Addr(root), 0, func(t relation.Tuple) {
					r.InsertUnchecked(t)
				}); err != nil {
					return nil, fmt.Errorf("storage: checkpoint %d: relation %q: %w", newest, rs.Name, err)
				}
			}
			if uint64(r.Len()) != size {
				return nil, fmt.Errorf("storage: checkpoint %d: relation %q: %d tuples, directory says %d",
					newest, rs.Name, r.Len(), size)
			}
		}
		schemas = append(schemas, rs)
		st.rels[rs.Name] = r
	}
	st.sch, err = schema.NewDatabase(schemas...)
	if err != nil {
		return nil, fmt.Errorf("storage: checkpoint %d: %w", newest, err)
	}

	// Directory: index definitions.
	for _, defs := range []*[][]byte{&st.hash, &st.ordered} {
		n, k := binary.Uvarint(dirBytes)
		if k <= 0 {
			return nil, fmt.Errorf("storage: checkpoint %d: bad index defs", newest)
		}
		dirBytes = dirBytes[k:]
		for i := uint64(0); i < n; i++ {
			before := dirBytes
			_, _, _, rest, err := decodeIndexDef(dirBytes)
			if err != nil {
				return nil, fmt.Errorf("storage: checkpoint %d: %w", newest, err)
			}
			*defs = append(*defs, before[:len(before)-len(rest)])
			dirBytes = rest
		}
	}
	return st, nil
}

// readCkptFile loads one checkpoint file, validated by checkCkpt, and
// returns the whole file plus its header (past the magic) and directory.
func readCkptFile(path string) (data, hdr, dir []byte, err error) {
	data, err = os.ReadFile(path)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("storage: recover: %w", err)
	}
	hdr, dir, err = checkCkpt(bytes.NewReader(data), int64(len(data)), path)
	return data, hdr, dir, err
}

// readCkptMeta opens a checkpoint file and reads only its header and
// CRC-checked directory, never the node blocks — the paged Open path.
func readCkptMeta(path string) (hdr, dir []byte, err error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, fmt.Errorf("storage: recover: %w", err)
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, nil, fmt.Errorf("storage: recover: %w", err)
	}
	return checkCkpt(f, st.Size(), path)
}

// checkCkpt is the one validation of a checkpoint file, read through r
// (size bytes): the version magic, the footer magic and the directory CRC.
// It returns the header bytes past the magic and the directory. A file of
// another version of the format is refused with an error naming that
// version.
func checkCkpt(r io.ReaderAt, size int64, path string) (hdr, dir []byte, err error) {
	name := filepath.Base(path)
	read := func(n, off int64) ([]byte, error) {
		b := make([]byte, n)
		if _, err := r.ReadAt(b, off); err != nil {
			return nil, fmt.Errorf("storage: recover: %s: %w", name, err)
		}
		return b, nil
	}
	// Header: the magic plus four uvarints (fileID, chainBase, lsn, time).
	hdr, err = read(min(size, int64(len(ckptMagic)+4*binary.MaxVarintLen64)), 0)
	if err != nil {
		return nil, nil, err
	}
	if len(hdr) >= len(ckptMagic) && string(hdr[:len(ckptMagicFamily)]) == ckptMagicFamily {
		if v := string(hdr[:len(ckptMagic)]); v != ckptMagic {
			return nil, nil, fmt.Errorf("storage: %s: unsupported checkpoint version %s (this build reads %s; re-load the data)", name, v, ckptMagic)
		}
	}
	if size < int64(len(ckptMagic))+ckptFooterLen || string(hdr[:len(ckptMagic)]) != ckptMagic {
		return nil, nil, fmt.Errorf("storage: %s: not a checkpoint file", name)
	}
	foot, err := read(ckptFooterLen, size-ckptFooterLen)
	if err != nil {
		return nil, nil, err
	}
	if string(foot[12:]) != ckptEndMagic {
		return nil, nil, fmt.Errorf("storage: %s: missing footer magic", name)
	}
	dirOff := binary.LittleEndian.Uint64(foot)
	if dirOff > uint64(size-ckptFooterLen) {
		return nil, nil, fmt.Errorf("storage: %s: directory offset out of range", name)
	}
	if dir, err = read(size-ckptFooterLen-int64(dirOff), int64(dirOff)); err != nil {
		return nil, nil, err
	}
	if crc32.Checksum(dir, crcTable) != binary.LittleEndian.Uint32(foot[8:]) {
		return nil, nil, fmt.Errorf("storage: %s: directory checksum mismatch", name)
	}
	return hdr[len(ckptMagic):], dir, nil
}

// ckptMaxDepth bounds the eager trie walk, mirroring pmap's own depth guard:
// a deeper chain means a corrupt file forged a cyclic address graph.
const ckptMaxDepth = 16

// collectNodes walks a persisted trie depth-first from addr, invoking fn for
// every stored tuple — the eager (resident) load path.
func collectNodes(files map[uint64][]byte, addr pmap.Addr, depth int, fn func(relation.Tuple)) error {
	if depth > ckptMaxDepth {
		return fmt.Errorf("node %x: trie deeper than hash width", uint64(addr))
	}
	fid := uint64(addr) >> addrShift
	off := uint64(addr) & offsetMask
	data := files[fid]
	if data == nil {
		return fmt.Errorf("node %x references missing checkpoint file %d", uint64(addr), fid)
	}
	if off >= uint64(len(data)) {
		return fmt.Errorf("node %x offset out of range", uint64(addr))
	}
	b := data[off:]
	bodyLen, k := binary.Uvarint(b)
	if k <= 0 || bodyLen == 0 || bodyLen > maxNodeBody || bodyLen > uint64(len(b)-k) {
		return fmt.Errorf("node %x: bad block length", uint64(addr))
	}
	node, _, err := decodeNodeBlock(addr, b[k:uint64(k)+bodyLen])
	if err != nil {
		return err
	}
	return node.Walk(func(child pmap.Addr, t relation.Tuple) error {
		if child != 0 {
			return collectNodes(files, child, depth+1, fn)
		}
		fn(t)
		return nil
	})
}
