// Package mds implements one OrigamiFS metadata server for the networked
// deployment (§4.2): a kvstore-backed inode shard with the Data Collector
// counters, the RPC service exposing metadata operations, and the subtree
// Migrator endpoints. Requests for metadata this shard does not hold are
// answered with a not-owner redirect, the networked analogue of the
// simulator's fake-inode forwarding.
//
// Concurrency: the request path is lock-striped. Every entry operation
// takes the stripe of its parent directory (shared for reads, exclusive
// for mutations), so operations on different directories proceed in
// parallel while same-directory check-then-act sequences (create's
// exists check, remove's emptiness check) stay atomic. Every mutation
// goes through applyBatchOps (batch.go) or ApplyRecord (replica.go),
// which take all the stripes their ops touch in index order, keeping
// multi-directory ops deadlock-free. The lock hierarchy, top to bottom, is:
//
//	Service.opMu (mutations vs. a migration's freeze) → Store stripe(s) → Store.inoMu (directory index) → kvstore.DB
//
// A lock is only ever taken below one already held, never above.
package mds

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"

	"origami/internal/kvstore"
	"origami/internal/namespace"
	"origami/internal/rpc"
	"origami/internal/telemetry"
)

// Sentinel errors of the compound store operations. The Service maps
// them onto wire error codes.
var (
	// ErrExist reports a create of a name that is already present.
	ErrExist = errors.New("mds: entry exists")
	// ErrNoEnt reports an operation on a missing entry.
	ErrNoEnt = errors.New("mds: no such entry")
	// ErrNotEmpty reports a remove (or rename-over) of a non-empty
	// directory.
	ErrNotEmpty = errors.New("mds: directory not empty")
	// ErrNotDir reports a create under a parent that is not a live
	// directory on this shard.
	ErrNotDir = errors.New("mds: parent not a directory on this shard")
)

// storeStripes is the number of per-directory lock stripes. Power of
// two so the stripe index is a mask; 64 stripes keep the collision
// probability negligible at the paper's 50-client concurrency.
const storeStripes = 64

// Store is the durable inode shard of one MDS: inodes keyed by
// (parent, name) in the local fragmented-LSM store, with an in-memory
// index of its directories.
type Store struct {
	db *kvstore.DB

	// stripes serialise same-directory operations: an op locks the
	// stripe of the parent whose entries it touches (shared for reads).
	stripes [storeStripes]sync.RWMutex

	// inoMu guards the directory index: byIno binds each directory here to
	// its (parent, name); any other entry adds one to files[its parent],
	// here or not, and nFiles is their sum. It nests strictly below the
	// stripes and is never held across a db call that blocks.
	inoMu  sync.RWMutex
	byIno  map[namespace.Ino]inoRef
	files  map[namespace.Ino]int32
	nFiles int

	// nextIno allocates inode numbers from this MDS's private range.
	// inoWatermark is the durably persisted upper bound: every ino
	// below it is covered by a metaNextInoKey record already in the
	// WAL, so allocation is a lock-free atomic add in the common case
	// and only extends (and persists) the watermark once per
	// inoChunk allocations. Restart resumes from the watermark,
	// wasting at most inoChunk-1 numbers — inos are never reused.
	nextIno      atomic.Uint64
	inoWatermark atomic.Uint64
	// inoSaveMu serialises watermark extension so the stored value
	// only moves forward.
	inoSaveMu sync.Mutex
	idBase    uint64
}

// inoChunk is the allocation watermark stride: one durable watermark
// write covers this many subsequent AllocIno calls.
const inoChunk = 64

// inoRef is an entry as the directory index sees it. A directory is
// bound by its ino to its (parent, name). Any other entry — a file, or
// the fake inode a migration leaves — only counts toward its parent.
type inoRef struct {
	ino, parent namespace.Ino
	name        string
	typ         namespace.FileType
}

func (r inoRef) isDir() bool { return r.typ == namespace.TypeDir }

func refOfInode(in *namespace.Inode) inoRef {
	return inoRef{ino: in.Ino, parent: in.Parent, name: in.Name, typ: in.Type}
}

// refAt reads the inoRef of the record v stored under key: the key's
// parent and the record's type byte, and only for a directory its ino.
// ok is false for a metadata key or an undecodable record.
func refAt(key, v []byte) (r inoRef, ok bool) {
	if len(key) < 8 || isMetaKey(key) {
		return r, false
	}
	r.parent = namespace.Ino(binary.BigEndian.Uint64(key))
	if r.typ, ok = namespace.RecordType(v); !ok || !r.isDir() {
		return r, ok
	}
	var in namespace.Inode
	if _, err := namespace.DecodeInodeInto(&in, v); err != nil {
		return r, false
	}
	r.ino, r.name = in.Ino, string(key[8:])
	return r, true
}

// indexLocked enters r into the index (n > 0) or takes it out (n < 0).
// A directory is bound, or unbound if it is still bound to r's (parent,
// name): an ino bound elsewhere since keeps that live binding, as when a
// cross-shard rename's destination directory migrates onto the source's
// shard between the rename's insert and its remove. Any other entry moves
// its parent's count by n. Caller holds inoMu.
func (s *Store) indexLocked(r inoRef, n int32) {
	switch {
	case !r.isDir():
		s.nFiles += int(n)
		if s.files[r.parent] += n; n <= 0 && s.files[r.parent] == 0 {
			delete(s.files, r.parent)
		}
	case n > 0:
		s.byIno[r.ino] = r
	default:
		if cur, ok := s.byIno[r.ino]; ok && cur.parent == r.parent && cur.name == r.name {
			delete(s.byIno, r.ino)
		}
	}
}

// inoRangeBits shifts the MDS id into the top bits of allocated inode
// numbers so shards never collide.
const inoRangeBits = 48

// Metadata keys persist store-internal state. Their 0xff prefix keeps
// them above every real (parent, name) key, whose 8-byte big-endian
// parent prefix never reaches 0xff at realistic MDS counts.
var (
	metaNextInoKey = []byte("\xffmeta\xffnext_ino")
	metaPinMapKey  = []byte("\xffmeta\xffpin_map")
)

// OpenStore opens (or creates) the shard at dir for the given MDS id.
func OpenStore(dir string, mdsID int, opts kvstore.Options) (*Store, error) {
	db, err := kvstore.Open(dir, opts)
	if err != nil {
		return nil, err
	}
	s := &Store{
		db:     db,
		byIno:  make(map[namespace.Ino]inoRef),
		files:  make(map[namespace.Ino]int32),
		idBase: uint64(mdsID) << inoRangeBits,
	}
	s.nextIno.Store(s.idBase + 2) // skip 0 (invalid) and 1 (root)
	// Rebuild the directory index, counting a parent's other entries as
	// one run: they are contiguous in key order. The watermark covers
	// every ino this MDS handed out; a directory of its range above it (a
	// store written before the watermark was) moves it up.
	run, runLen := inoRef{typ: namespace.TypeFile}, int32(0)
	err = db.Scan(nil, nil, func(k, v []byte) bool {
		r, ok := refAt(k, v)
		switch {
		case !ok:
		case !r.isDir() && r.parent == run.parent:
			runLen++
		case !r.isDir():
			s.indexLocked(run, runLen)
			run, runLen = r, 1
		default:
			s.indexLocked(r, 1)
			if u := uint64(r.ino); u>>inoRangeBits == s.idBase>>inoRangeBits && u >= s.nextIno.Load() {
				s.nextIno.Store(u + 1)
			}
		}
		return true
	})
	s.indexLocked(run, runLen)
	if err != nil {
		db.Close()
		return nil, err
	}
	if v, found, _ := db.Get(metaNextInoKey); found && len(v) == 8 {
		var u uint64
		for _, b := range v {
			u = u<<8 | uint64(b)
		}
		if u > s.nextIno.Load() {
			s.nextIno.Store(u)
		}
	}
	// Nothing above nextIno is covered yet; the first AllocIno after a
	// restart extends (and persists) the watermark again.
	s.inoWatermark.Store(s.nextIno.Load())
	return s, nil
}

// stripe returns the lock stripe covering entries under parent.
func (s *Store) stripe(parent namespace.Ino) *sync.RWMutex {
	return &s.stripes[uint64(parent)&(storeStripes-1)]
}

// stripeSet is a set of lock stripes, one bit per stripe index.
type stripeSet uint64

func (set *stripeSet) add(dir namespace.Ino) {
	*set |= 1 << (uint64(dir) & (storeStripes - 1))
}

// lockStripes write-locks the stripes of set in index order. Ordered
// acquisition keeps multi-directory ops deadlock-free against each other
// and against single-stripe ops.
func (s *Store) lockStripes(set stripeSet) {
	for rest := set; rest != 0; rest &= rest - 1 {
		s.stripes[bits.TrailingZeros64(uint64(rest))].Lock()
	}
}

func (s *Store) unlockStripes(set stripeSet) {
	for rest := set; rest != 0; rest &= rest - 1 {
		s.stripes[bits.TrailingZeros64(uint64(rest))].Unlock()
	}
}

// Close flushes and closes the shard. The caller must have quiesced
// request traffic (the Service closes its RPC server first).
func (s *Store) Close() error {
	return s.db.Close()
}

// DBStats exposes the underlying store's counters (WAL sync batching,
// flush/compaction activity) for benchmarks and the admin surface.
func (s *Store) DBStats() kvstore.Stats {
	return s.db.Stats()
}

// SetTracer wires the span tracer through to the underlying kvstore so
// traced mutations record their "kvstore.commit" spans.
func (s *Store) SetTracer(t *telemetry.Tracer) {
	s.db.SetTracer(t)
}

// AllocIno returns a fresh inode number from this MDS's range. The
// common case is one atomic add with no lock and no I/O: the durable
// watermark record already covers the number. Once per inoChunk
// allocations one caller extends the watermark with a single db.Put;
// because the WAL is ordered, the watermark record always precedes any
// create record using a covered ino, so a crash can never replay an
// inode whose number could be handed out again.
func (s *Store) AllocIno() namespace.Ino {
	ino := s.nextIno.Add(1) - 1
	for s.inoWatermark.Load() <= ino {
		s.inoSaveMu.Lock()
		if wm := s.inoWatermark.Load(); wm <= ino {
			next := ino + inoChunk
			var buf [8]byte
			u := next
			for i := 7; i >= 0; i-- {
				buf[i] = byte(u)
				u >>= 8
			}
			if err := s.db.Put(metaNextInoKey, buf[:]); err == nil {
				s.inoWatermark.Store(next)
			}
		}
		s.inoSaveMu.Unlock()
	}
	return namespace.Ino(ino)
}

// Put installs (or replaces) an inode record unconditionally — the root's
// bootstrap — as a record of one put through ApplyRecord. Client
// mutations go through applyBatchOps for their atomic checks.
func (s *Store) Put(in *namespace.Inode) error {
	var b kvstore.Batch
	addSubtree(&b, []*namespace.Inode{in}, true)
	return s.ApplyRecord(&b)
}

// keyScratch and recordScratch size the stack buffers keys and inode
// records are built and read in: a name of up to 64 bytes (records: 96)
// stays off the heap, a longer one simply spills.
const (
	keyScratch    = 8 + 64
	recordScratch = 160
)

// getRaw appends the stored record of (parent, name) to dst. Caller holds
// the parent's stripe (shared or exclusive). The stored record is the
// inode's wire form, so a read handler passes it through undecoded.
func getRaw[S ~string | ~[]byte](s *Store, parent namespace.Ino, name S, dst []byte) ([]byte, bool, error) {
	var kb [keyScratch]byte
	return s.db.GetInto(namespace.AppendKey(kb[:0], parent, name), dst)
}

// getLocked fetches (parent, name) by value, on the caller's stack; caller
// holds the parent's stripe (shared or exclusive).
func (s *Store) getLocked(parent namespace.Ino, name string) (in namespace.Inode, found bool, err error) {
	var vb [recordScratch]byte
	v, found, err := getRaw(s, parent, name, vb[:0])
	if err != nil || !found {
		return in, false, err
	}
	if _, err = namespace.DecodeInodeInto(&in, v); err != nil {
		return in, false, err
	}
	in.Name = name // the record repeats the key's name
	return in, true, nil
}

// scanDir visits the stored records of dir's entries in name order until
// fn returns false; v is valid until fn returns. Caller holds dir's
// stripe.
func (s *Store) scanDir(dir namespace.Ino, fn func(v []byte) bool) error {
	var lo, hi [8]byte
	return s.db.Scan(namespace.AppendKey(lo[:0], dir, ""), namespace.AppendKey(hi[:0], dir+1, ""),
		func(_, v []byte) bool { return fn(v) })
}

// hasChildLocked reports whether dir has at least one entry; caller
// holds dir's stripe (blocking concurrent creates under it).
func (s *Store) hasChildLocked(dir namespace.Ino) (bool, error) {
	any := false
	err := s.scanDir(dir, func([]byte) bool {
		any = true
		return false
	})
	return any, err
}

// CreateEntry atomically installs a brand-new entry: the parent must be
// a live directory on this shard and (parent, name) must be absent.
// Returns ErrNotDir or ErrExist otherwise.
func (s *Store) CreateEntry(in *namespace.Inode) error {
	op := [1]batchOp{{kind: BatchOpCreate, in: *in, hasIn: true}}
	s.applyBatchOps(telemetry.SpanContext{}, op[:])
	return op[0].err
}

// RemoveEntry atomically deletes (parent, name), enforcing that a
// directory victim is empty. Returns the removed inode.
func (s *Store) RemoveEntry(parent namespace.Ino, name string) (*namespace.Inode, error) {
	op := [1]batchOp{{kind: BatchOpRemove, parent: parent, name: name}}
	s.applyBatchOps(telemetry.SpanContext{}, op[:])
	if op[0].err != nil {
		return nil, op[0].err
	}
	gone := op[0].gone
	return &gone, nil
}

// lookup fetches the entry name under parent by value.
func (s *Store) lookup(parent namespace.Ino, name string) (namespace.Inode, bool, error) {
	mu := s.stripe(parent)
	mu.RLock()
	defer mu.RUnlock()
	return s.getLocked(parent, name)
}

// lookupRaw is lookup for a read handler, one component of a server-side
// walk: it appends the stored record of (parent, name) to w as a blob —
// the record is the inode's wire form — and decodes only what a walk
// decides on, every field but the name. A miss or an error leaves w
// untouched.
func (s *Store) lookupRaw(parent namespace.Ino, name []byte, w *rpc.Wire) (in namespace.Inode, found bool, err error) {
	var vb [recordScratch]byte
	mu := s.stripe(parent)
	mu.RLock()
	v, found, err := getRaw(s, parent, name, vb[:0])
	mu.RUnlock()
	if err != nil || !found {
		return in, false, err
	}
	if _, err = namespace.DecodeInodeInto(&in, v); err != nil {
		return in, false, err
	}
	w.Blob(v)
	return in, true, nil
}

// Lookup fetches the entry name under parent.
func (s *Store) Lookup(parent namespace.Ino, name string) (*namespace.Inode, bool, error) {
	in, found, err := s.lookup(parent, name)
	if !found {
		return nil, false, err
	}
	return &in, true, nil
}

// dirAt returns the ino of the directory at (parent, name), or 0 when
// the entry is missing or not a directory.
func (s *Store) dirAt(parent namespace.Ino, name string) namespace.Ino {
	if in, found, _ := s.lookup(parent, name); found && in.IsDir() {
		return in.Ino
	}
	return 0
}

// refOf returns the (parent, name) binding of a directory held here.
func (s *Store) refOf(ino namespace.Ino) (inoRef, bool) {
	s.inoMu.RLock()
	defer s.inoMu.RUnlock()
	ref, ok := s.byIno[ino]
	return ref, ok
}

// getattr fetches a directory by number, by value; a file is addressed
// by (parent, name) only.
func (s *Store) getattr(ino namespace.Ino) (namespace.Inode, bool, error) {
	ref, ok := s.refOf(ino)
	if !ok {
		return namespace.Inode{}, false, nil
	}
	return s.lookup(ref.parent, ref.name)
}

// readDirRaw appends dir's listing to w the way an inode-list response
// carries it — a count, then every child's stored record as a blob —
// without decoding a single one: what the store keeps IS the wire record.
// It returns the number of children listed.
func (s *Store) readDirRaw(dir namespace.Ino, w *rpc.Wire) (int, error) {
	mu := s.stripe(dir)
	mu.RLock()
	defer mu.RUnlock()
	count := w.BeginBlob() // patched into the entry count below
	n := uint32(0)
	err := s.scanDir(dir, func(v []byte) bool {
		w.Blob(v)
		n++
		return true
	})
	w.PatchU32(count, n)
	return int(n), err
}

// ReadDir lists the direct children of a directory held on this shard.
func (s *Store) ReadDir(parent namespace.Ino) ([]*namespace.Inode, error) {
	mu := s.stripe(parent)
	mu.RLock()
	defer mu.RUnlock()
	var out []*namespace.Inode
	err := s.scanDir(parent, func(v []byte) bool {
		if in, derr := namespace.DecodeInode(v); derr == nil {
			out = append(out, in)
		}
		return true
	})
	return out, err
}

// HasIno reports whether this shard holds the directory.
func (s *Store) HasIno(ino namespace.Ino) bool {
	_, ok := s.refOf(ino)
	return ok
}

// Count returns the number of inodes held: the directories bound and the
// other entries counted.
func (s *Store) Count() int {
	s.inoMu.RLock()
	defer s.inoMu.RUnlock()
	return len(s.byIno) + s.nFiles
}

// dirRows returns one Data Collector row per directory held on this
// shard — its ino, its parent and its child file count, access counters
// zero — built in one pass over the directory index under inoMu: no
// kvstore read and no decode, so a dump costs a walk of the directories
// rather than a scan of every record. A directory's child files are its
// entries that are not directories: files and fake inodes.
func (s *Store) dirRows() []DumpRow {
	s.inoMu.RLock()
	defer s.inoMu.RUnlock()
	rows := make([]DumpRow, 0, len(s.byIno))
	for ino, r := range s.byIno {
		rows = append(rows, DumpRow{Ino: ino, Parent: r.parent, ChildFiles: s.files[ino]})
	}
	return rows
}

// subtreeDirs returns the directories of the subtree rooted at root,
// root included, and root's own binding — a migration's frozen set —
// from the directory index alone: no kvstore read, no file walked. ok
// is false when root is no directory here.
func (s *Store) subtreeDirs(root namespace.Ino) (dirs map[namespace.Ino]bool, ref inoRef, ok bool) {
	s.inoMu.RLock()
	defer s.inoMu.RUnlock()
	if ref, ok = s.byIno[root]; !ok {
		return nil, ref, false
	}
	children := make(map[namespace.Ino][]namespace.Ino)
	for ino, r := range s.byIno {
		if ino != r.parent {
			children[r.parent] = append(children[r.parent], ino)
		}
	}
	dirs = map[namespace.Ino]bool{root: true}
	for queue := []namespace.Ino{root}; len(queue) > 0; {
		cur := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		for _, c := range children[cur] {
			dirs[c] = true
			queue = append(queue, c)
		}
	}
	return dirs, ref, true
}

// CollectSubtree gathers every inode in the subtree rooted at root that
// this shard holds, in breadth-first order — the migration source's copy
// set, collected while the subtree is frozen, so the walk sees it still.
func (s *Store) CollectSubtree(root namespace.Ino) ([]*namespace.Inode, error) {
	rootIn, ok, err := s.getattr(root)
	if err != nil {
		return nil, err
	}
	if !ok {
		return nil, fmt.Errorf("mds: subtree root %d not on this shard", root)
	}
	out := []*namespace.Inode{&rootIn}
	queue := []namespace.Ino{root}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		children, err := s.ReadDir(cur)
		if err != nil {
			return nil, err
		}
		for _, in := range children {
			out = append(out, in)
			if in.IsDir() {
				queue = append(queue, in.Ino)
			}
		}
	}
	return out, nil
}

// SavePinMap durably records the serialised partition map (MDS 0 is the
// map authority and must survive restarts with it). The metadata key
// lives outside every directory's key range, so no stripe is involved.
func (s *Store) SavePinMap(data []byte) error {
	return s.db.Put(metaPinMapKey, data)
}

// LoadPinMap returns the serialised partition map, or nil if none was
// saved.
func (s *Store) LoadPinMap() ([]byte, error) {
	v, found, err := s.db.Get(metaPinMapKey)
	if err != nil || !found {
		return nil, err
	}
	return v, nil
}
