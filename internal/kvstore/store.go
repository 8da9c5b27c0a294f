package kvstore

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"origami/internal/telemetry"
)

// Throttle is a dynamically tunable write-path delay — the slow-disk
// injector chaos harnesses attach to a store. While the delay is
// non-zero every logical write stalls that long under the write lock,
// which serialises writers exactly the way a saturated device does.
// Safe for concurrent use; the zero value (and a zero delay) is free.
type Throttle struct{ ns atomic.Int64 }

// Set replaces the per-write delay (0 restores full speed).
func (t *Throttle) Set(d time.Duration) { t.ns.Store(int64(d)) }

// Delay returns the current per-write delay.
func (t *Throttle) Delay() time.Duration { return time.Duration(t.ns.Load()) }

// Options configures a DB. The zero value is usable; unset fields take the
// defaults documented on each field.
type Options struct {
	// MemtableBytes is the approximate memtable size that triggers a
	// flush. Default 4 MiB.
	MemtableBytes int
	// MaxL0Tables is the number of level-0 tables that triggers an
	// L0 -> L1 compaction. Default 4.
	MaxL0Tables int
	// MaxTablesPerGuard is the per-guard table count that triggers a
	// fragmented compaction into the next level. Default 4.
	MaxTablesPerGuard int
	// MaxLevels is the number of guarded levels below L0. Default 4.
	MaxLevels int
	// SyncWAL makes every write durable before it is acknowledged: the
	// writer waits for a WAL fsync covering its record. Concurrent
	// writers share fsyncs (group commit). Default false — durability
	// rides the OS flush, standard for benchmarks.
	SyncWAL bool
	// Seed seeds the memtable skiplist's height generator so runs are
	// reproducible. Default 1.
	Seed int64
	// PlainLeveled switches compaction to classic leveled mode (merge
	// with overlapping next-level tables, rewriting them) instead of
	// PebblesDB-style fragmented mode. Used by the ablation benchmark.
	PlainLeveled bool
	// Throttle, when non-nil, is consulted on every write: a non-zero
	// delay stalls the write under the write lock (slow-disk fault
	// injection). Default nil — no per-write check at all.
	Throttle *Throttle
}

func (o Options) withDefaults() Options {
	if o.MemtableBytes <= 0 {
		o.MemtableBytes = 4 << 20
	}
	if o.MaxL0Tables <= 0 {
		o.MaxL0Tables = 4
	}
	if o.MaxTablesPerGuard <= 0 {
		o.MaxTablesPerGuard = 4
	}
	if o.MaxLevels <= 0 {
		o.MaxLevels = 4
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

// guardRun is the set of tables (newest first) belonging to one guard of
// one level.
type guardRun struct {
	tables []*sstable
}

// dbLevel is one guarded level. guards[i] covers keys in
// [guardKeys[i], guardKeys[i+1]); the sentinel covers (-inf, guardKeys[0]).
type dbLevel struct {
	guardKeys [][]byte
	sentinel  guardRun
	guards    []guardRun
}

// Stats reports cumulative and point-in-time DB statistics.
type Stats struct {
	Puts            int64
	Deletes         int64
	Gets            int64
	Flushes         int64
	Compactions     int64
	BytesFlushed    int64
	BytesCompacted  int64
	MemtableEntries int
	TablesPerLevel  []int
	WALBytes        int64
	// WALSyncs counts group-commit fsyncs. Under SyncWAL with
	// concurrent writers it runs well below Puts+Deletes — the batching
	// factor is (writes / syncs).
	WALSyncs int64
	// Batches counts atomic multi-op applies (ApplyBatch calls that
	// reached the WAL). Each is ONE record and one commit ack no matter
	// how many ops it carries; Puts and Deletes still count the ops.
	Batches int64
	// TableProbes counts the SSTables a Get had to consider (its key
	// inside the table's key range), BloomSkips the probes the table's
	// filter answered without I/O, and BlockReads the data ReadAt calls
	// of point reads, scans and compaction together. Probes per get is
	// TableProbes/Gets; the filter's hit rate is BloomSkips/TableProbes.
	TableProbes int64
	BloomSkips  int64
	BlockReads  int64
	// ScanSkips counts the entries Scans walked without yielding:
	// tombstones, and older versions a newer one shadows. Per readdir it
	// is the dead weight a directory's history adds to listing it.
	ScanSkips int64
}

// dbStats is the live counter set behind Stats. The counters are
// atomics because Gets is bumped by concurrent readers holding only the
// shared lock; the write-side counters ride along for uniformity.
type dbStats struct {
	puts, deletes, gets          atomic.Int64
	batches                      atomic.Int64
	flushes, compactions         atomic.Int64
	bytesFlushed, bytesCompacted atomic.Int64
	walSyncs                     atomic.Int64
	reads                        readStats
}

// DB is a fragmented log-structured merge store. All methods are safe
// for concurrent use: point and range reads run concurrently with each
// other (shared lock over the immutable SSTables and the memtable),
// while mutations — which append to the WAL, update the memtable in
// place, and may flush or compact — hold the lock exclusively.
//
// With SyncWAL enabled, durability uses group commit: a writer appends
// its record and inserts into the memtable under short locks, then
// waits for a WAL fsync covering its sequence number. One writer at a
// time leads an fsync; every record appended before the sync rides the
// same fsync, so N concurrent writers share ~one fsync instead of
// paying one each. A write is acknowledged only after its record is
// durable, but a concurrent reader may observe it slightly earlier —
// the standard trade (a crash can lose data a reader saw but whose
// writer was never acknowledged).
type DB struct {
	// writeMu serialises the write path so WAL append order, memtable
	// insert order, and crash-replay order all agree. Lock hierarchy:
	// writeMu → mu → gc.mu; a group-commit sync leader holds writeMu
	// alone while fsyncing, so readers (mu shared) are never blocked
	// behind an fsync.
	writeMu sync.Mutex
	mu      sync.RWMutex
	dir     string
	opts    Options
	mem     *skiplist
	wal     *wal
	// walSeq counts records appended to the WAL. Writers advance it
	// under writeMu; the group-commit leader also polls it locklessly
	// in its gather loop, hence the atomic.
	walSeq      atomic.Uint64
	walGen      uint64 // bumped when a flush swaps the WAL; guarded by writeMu
	gc          groupCommit
	l0          []*sstable // newest first
	levels      []*dbLevel // levels[0] is L1
	guards      guardSet
	nextFileNum uint64
	stats       dbStats
	keep        []bool       // tombstone decisions of the record being applied; guarded by writeMu
	probe       []byte       // needsTombstone's value scratch; guarded by writeMu
	hook        CommitHook   // guarded by writeMu
	committer   Committer    // guarded by writeMu
	tracer      atomic.Value // tracerBox
	closed      bool
}

type tracerBox struct{ t *telemetry.Tracer }

// SetTracer installs the span tracer consulted by the write path: every
// traced write (a context carrying a trace ID reaches PutCtx /
// DeleteCtx / ApplyBatchCtx) records a "kvstore.commit" span covering
// the WAL append, memtable insert, durability wait, and any commit-hook
// wait. Nil removes it. Safe to call while serving.
func (db *DB) SetTracer(t *telemetry.Tracer) { db.tracer.Store(tracerBox{t}) }

func (db *DB) spanTracer() *telemetry.Tracer {
	if box, ok := db.tracer.Load().(tracerBox); ok {
		return box.t
	}
	return nil
}

// CommitHook observes every committed WAL record in WAL order: ops is the
// record's n op bodies, back to back in WAL layout (ForEachOp walks
// them). It is called under the DB's write lock — immediately after the
// record is logged and applied to the memtable, before the next write can
// start — so the sequence of hook invocations is exactly the WAL sequence.
// ops is the memtable's own copy, which nothing ever writes to again: the
// hook may keep it without copying, but must not modify it. The hook must
// be fast and must not call back into the DB. It may return a non-nil
// wait func, which the writer runs after releasing the DB locks (and
// after its own durability wait): this is where a synchronous replication
// ack blocks without stalling other writers. ctx is the writer's request
// context (trace/span propagation); it may be nil for untraced writes and
// must not be retained past the wait func.
type CommitHook func(ctx context.Context, ops []byte, n int) (wait func() error)

// SetCommitHook installs (or, with nil, removes) the commit hook.
func (db *DB) SetCommitHook(h CommitHook) {
	db.writeMu.Lock()
	db.hook = h
	db.writeMu.Unlock()
}

// Committer decides when a committed write is acknowledged. The store
// hands it two optional waits, both derived from the write that just
// reached the WAL and memtable: local blocks until the group-commit
// fsync covers the record (nil when SyncWAL is off or a flush already
// made it durable), repl blocks until the commit hook's downstream —
// replication — acknowledged it (nil when no hook wait exists). Commit
// returning nil acknowledges the write; the policy decides which waits
// that implies. Commit runs outside every DB lock.
//
// Without a committer the store keeps its historical behaviour: wait
// for the local fsync (under SyncWAL), then for the hook wait.
type Committer interface {
	Commit(ctx context.Context, local, repl func() error) error
}

// SetCommitter installs (or, with nil, removes) the commit policy. Like
// the commit hook it is guarded by the write lock, so it can be swapped
// while serving.
func (db *DB) SetCommitter(c Committer) {
	db.writeMu.Lock()
	db.committer = c
	db.writeMu.Unlock()
}

// groupCommit tracks which WAL sequence numbers are durable and elects
// one waiting writer at a time to lead the next fsync.
type groupCommit struct {
	mu      sync.Mutex
	cond    *sync.Cond
	synced  uint64 // highest WAL seq known durable
	leading bool   // an fsync is in flight
	err     error  // sticky sync failure
}

// Open opens or creates a DB rooted at dir, replaying any WAL left by a
// crash.
func Open(dir string, opts Options) (*DB, error) {
	opts = opts.withDefaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("kvstore: mkdir %s: %w", dir, err)
	}
	db := &DB{
		dir:    dir,
		opts:   opts,
		mem:    newSkiplist(opts.Seed),
		levels: make([]*dbLevel, opts.MaxLevels),
	}
	for i := range db.levels {
		db.levels[i] = &dbLevel{}
	}
	if err := db.loadManifest(); err != nil {
		return nil, err
	}
	// Replay mutations that were logged but never flushed, then resume the
	// log where the intact records end. The table set is the one the
	// records were first applied against — it changes only by a flush,
	// which retires the log — so replay rebuilds the same memtable.
	end, err := replayWAL(db.walPath(), func(ops []byte, n int) {
		db.applyToMemtable(ops, n, db.tombstonesNeeded(ops, n))
	})
	if err != nil {
		return nil, err
	}
	w, err := openWAL(db.walPath(), end)
	if err != nil {
		return nil, err
	}
	db.wal = w
	db.gc.cond = sync.NewCond(&db.gc.mu)
	return db, nil
}

func (db *DB) walPath() string { return filepath.Join(db.dir, "wal.log") }

func (db *DB) newTablePath() string {
	db.nextFileNum++
	return filepath.Join(db.dir, fmt.Sprintf("%08d.sst", db.nextFileNum))
}

// write runs n mutations — op bodies in WAL layout, back to back in ops —
// through the write path as one logical write: one WAL record (a batch
// record when batch is set), then the memtable inserts, in a globally
// consistent order under writeMu, taking mu exclusively only for the
// inserts (and an inline flush when the memtable is full). The memtable
// keeps slices of ops, so the caller hands ops over. With SyncWAL, the
// writer then waits on the group-commit fsync covering its record —
// unless a flush already made it durable via the SSTable sync. ctx
// (nilable) carries the request's trace: traced writes record a
// "kvstore.commit" span spanning the whole path, including the durability
// and commit-hook waits.
func (db *DB) write(ctx context.Context, ops []byte, n int, batch bool) error {
	ctx, span := db.spanTracer().StartSpan(ctx, "kvstore.commit")
	err := db.writeInner(ctx, ops, n, batch)
	span.Finish(err)
	return err
}

func (db *DB) writeInner(ctx context.Context, ops []byte, n int, batch bool) error {
	db.writeMu.Lock()
	if db.closed {
		db.writeMu.Unlock()
		return fmt.Errorf("kvstore: write on closed DB")
	}
	if t := db.opts.Throttle; t != nil {
		if d := t.Delay(); d > 0 {
			time.Sleep(d) // injected slow disk: stall the append path
		}
	}
	if err := db.wal.append(ops, n, batch); err != nil {
		db.writeMu.Unlock()
		return err
	}
	seq := db.walSeq.Add(1)
	// The table set changes only under writeMu and mu together, so the
	// tombstone decisions made here, before mu, still hold at the insert.
	keep := db.tombstonesNeeded(ops, n)
	db.mu.Lock()
	puts, deletes := db.applyToMemtable(ops, n, keep)
	db.stats.puts.Add(puts)
	db.stats.deletes.Add(deletes)
	var ferr error
	flushed := false
	if db.mem.sizeBytes() >= db.opts.MemtableBytes {
		flushed = true
		ferr = db.flushLocked()
	}
	db.mu.Unlock()
	// The hook runs under writeMu so its invocation order is the WAL
	// order; its wait func (if any) runs only after every lock is
	// released and the local durability wait is done.
	var wait func() error
	if db.hook != nil {
		wait = db.hook(ctx, ops, n)
	}
	committer := db.committer
	db.writeMu.Unlock()
	if ferr != nil {
		return ferr
	}
	// Both durability waits as closures; the commit policy decides which
	// of them gate the acknowledgement. local is nil when the record is
	// already durable (an inline flush fsynced the SSTable) or SyncWAL
	// never promised an fsync in the first place.
	var local func() error
	if db.opts.SyncWAL && !flushed {
		local = func() error { return db.waitSynced(seq) }
	}
	if committer != nil {
		return committer.Commit(ctx, local, wait)
	}
	// No policy installed: historical behaviour — local fsync first,
	// then the hook (replication) wait.
	if local != nil {
		if err := local(); err != nil {
			return err
		}
	}
	if wait != nil {
		return wait()
	}
	return nil
}

// beneath names the tables under some point of the tree, newest first:
// tables, then one guard run per level from levels[level] down.
type beneath struct {
	tables []*sstable
	level  int
}

// lookup reads key from the tables beneath b the way a point read does:
// per table, key range, then filter, then one block read, newest table
// first, stopping at the first version found. A tombstone reads as not
// found. A found value is appended to dst.
func (db *DB) lookup(b beneath, key, dst []byte, rs *readStats) (value []byte, found bool, err error) {
	h := bloomHash(key)
	for li := b.level - 1; li < len(db.levels); li++ {
		tables := b.tables
		if li >= b.level {
			lvl := db.levels[li]
			tables = lvl.run(guardIndexFor(lvl.guardKeys, key)).tables
		}
		for _, t := range tables {
			v, f, tomb, err := t.get(key, h, dst, rs)
			if err != nil || tomb {
				return nil, false, err
			}
			if f {
				return v, true, nil
			}
		}
	}
	return nil, false, nil
}

// needsTombstone reports whether a delete of key must leave a tombstone
// above the tables beneath b: whether, without one, reading key from
// them would still find a value. With nothing beneath holding a live
// version, deleting the key and forgetting it read the same. A failed
// read keeps the tombstone, which is never wrong. The probe's block
// reads count in BlockReads; its probes and filter skips stay out of
// the point-read counters. The caller holds writeMu, which pins the
// table set (only a holder of both locks changes it) and the scratch
// buffer.
func (db *DB) needsTombstone(b beneath, key []byte) bool {
	var rs readStats
	v, found, err := db.lookup(b, key, db.probe[:0], &rs)
	if found {
		db.probe = v[:0]
	}
	db.stats.reads.blockReads.Add(rs.blockReads.Load())
	return found || err != nil
}

// tombstonesNeeded decides, for each of a record's n ops, whether it must
// reach the memtable as a tombstone: a delete whose key the tables still
// hold a value for. The slice is scratch reused by the next record.
func (db *DB) tombstonesNeeded(ops []byte, n int) []bool {
	keep := db.keep[:0]
	ForEachOp(ops, n, func(key, _ []byte, tombstone bool) {
		keep = append(keep, tombstone && db.needsTombstone(beneath{tables: db.l0}, key))
	})
	db.keep = keep
	return keep
}

// applyToMemtable is the one way a record reaches the memtable, live and
// in WAL replay. A put inserts; a delete in keep leaves a tombstone; any
// other delete cancels the key's memtable node, if it has one, and leaves
// nothing. It returns the puts and deletes applied.
func (db *DB) applyToMemtable(ops []byte, n int, keep []bool) (puts, deletes int64) {
	i := 0
	ForEachOp(ops, n, func(key, value []byte, tombstone bool) {
		switch {
		case !tombstone:
			db.mem.put(key, value, false)
			puts++
		case keep[i]:
			db.mem.put(key, nil, true)
			deletes++
		default:
			db.mem.cancel(key)
			deletes++
		}
		i++
	})
	return puts, deletes
}

// waitSynced blocks until the WAL is durable through seq. The first
// waiter to find no fsync in flight leads one (covering every record
// appended so far); the rest wait and are released by the broadcast —
// the group-commit batch.
func (db *DB) waitSynced(seq uint64) error {
	g := &db.gc
	g.mu.Lock()
	defer g.mu.Unlock()
	for g.synced < seq {
		if g.err != nil {
			return g.err
		}
		if g.leading {
			g.cond.Wait()
			continue
		}
		g.leading = true
		g.mu.Unlock()
		// Gather: yield while concurrent writers are still appending,
		// so one fsync covers as many records as the scheduler can
		// deliver. A lone writer pays a single yield — the first
		// re-read sees no progress and breaks.
		cur := db.walSeq.Load()
		for i := 0; i < 16; i++ {
			runtime.Gosched()
			next := db.walSeq.Load()
			if next == cur {
				break
			}
			cur = next
		}
		// Pin the WAL file under writeMu, then fsync WITHOUT holding it:
		// writers keep appending during the sync and ride the next one —
		// that window is where the group-commit batch forms. Every record
		// counted in walSeq has reached the OS (writeRecord flushes its
		// buffered writer), so the fsync covers all of them.
		db.writeMu.Lock()
		target := db.walSeq.Load()
		gen := db.walGen
		f := db.wal.f
		closed := db.closed
		db.writeMu.Unlock()
		var err error
		if closed {
			err = fmt.Errorf("kvstore: DB closed awaiting WAL sync")
		} else if err = syncFile(f); err != nil {
			// A concurrent flush may have swapped (and closed) the WAL
			// mid-sync. If so, the flush fsynced an SSTable covering
			// every record through target — the failure is benign.
			db.writeMu.Lock()
			if db.walGen != gen {
				err = nil
			}
			db.writeMu.Unlock()
		}
		if err == nil {
			db.stats.walSyncs.Add(1)
		}
		g.mu.Lock()
		g.leading = false
		if err != nil {
			if g.err == nil {
				g.err = err
			}
		} else if target > g.synced {
			g.synced = target
		}
		g.cond.Broadcast()
	}
	return nil
}

// markSynced records that the WAL is durable through seq (a flush made
// everything durable via the SSTable fsync) and releases any waiters.
func (db *DB) markSynced(seq uint64) {
	g := &db.gc
	g.mu.Lock()
	if seq > g.synced {
		g.synced = seq
	}
	g.cond.Broadcast()
	g.mu.Unlock()
}

// Put inserts or replaces the value for key.
func (db *DB) Put(key, value []byte) error {
	return db.PutCtx(nil, key, value)
}

// PutCtx is Put carrying the request context for trace propagation.
func (db *DB) PutCtx(ctx context.Context, key, value []byte) error {
	return db.write(ctx, appendOpBody(nil, walKindPut, key, value), 1, false)
}

// Delete removes key. Deleting an absent key is not an error.
func (db *DB) Delete(key []byte) error {
	return db.DeleteCtx(nil, key)
}

// DeleteCtx is Delete carrying the request context for trace propagation.
func (db *DB) DeleteCtx(ctx context.Context, key []byte) error {
	return db.write(ctx, appendOpBody(nil, walKindDelete, key, nil), 1, false)
}

// Batch collects mutations to be applied atomically by ApplyBatch. It
// keeps them the way the log and the memtable will: already encoded, back
// to back, copied once from the caller's slices.
type Batch struct {
	ops []byte
	n   int
}

// Put adds an insert/replace to the batch.
func (b *Batch) Put(key, value []byte) {
	b.ops = appendOpBody(b.ops, walKindPut, key, value)
	b.n++
}

// Delete adds a deletion to the batch.
func (b *Batch) Delete(key []byte) {
	b.ops = appendOpBody(b.ops, walKindDelete, key, nil)
	b.n++
}

// Len returns the number of mutations in the batch.
func (b *Batch) Len() int { return b.n }

// Ops returns the batch as the record it will be: its n op bodies in WAL
// layout, aliasing the batch.
func (b *Batch) Ops() (ops []byte, n int) { return b.ops, b.n }

// AppendOps adds a record received from elsewhere — n op bodies in WAL
// layout, bytes off a socket as far as the batch knows — after checking
// that they parse and fill ops exactly, and that there is at least one.
// ops is copied; a record that fails the check adds nothing.
func (b *Batch) AppendOps(ops []byte, n int) error {
	if n < 1 || !ForEachOp(ops, n, nil) {
		return fmt.Errorf("kvstore: malformed record of %d ops in %d bytes", n, len(ops))
	}
	b.ops = append(b.ops, ops...)
	b.n += n
	return nil
}

// ApplyBatch applies every mutation in b atomically: either all of them
// survive a crash or none do. The store keeps the batch's bytes, so b is
// left empty.
func (db *DB) ApplyBatch(b *Batch) error {
	return db.ApplyBatchCtx(nil, b)
}

// ApplyBatchCtx is ApplyBatch carrying the request context for trace
// propagation.
func (db *DB) ApplyBatchCtx(ctx context.Context, b *Batch) error {
	if b.Len() == 0 {
		return nil
	}
	db.stats.batches.Add(1)
	ops, n := b.ops, b.n
	*b = Batch{}
	return db.write(ctx, ops, n, true)
}

// Get returns the value stored for key in a buffer of its own.
func (db *DB) Get(key []byte) (value []byte, found bool, err error) {
	return db.GetInto(key, nil)
}

// GetInto is Get appending the value to dst (and returning the extended
// slice), so a caller with a scratch buffer reads without allocating.
// Point reads hold the lock shared, so any number of them run concurrently
// with each other (and with Scans); a read sees every write that completed
// before it. The memtable answers first, then L0 newest-first, then one
// run per guarded level; each table is asked only if its key range and its
// bloom filter admit the key, and answers with a single block read.
func (db *DB) GetInto(key, dst []byte) (value []byte, found bool, err error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	db.stats.gets.Add(1)
	if v, f, deleted := db.mem.get(key); f {
		if deleted {
			return nil, false, nil
		}
		return append(dst, v...), true, nil
	}
	return db.lookup(beneath{tables: db.l0}, key, dst, &db.stats.reads)
}

// run returns the run of guard slot gi; -1 is the sentinel.
func (l *dbLevel) run(gi int) *guardRun {
	if gi < 0 {
		return &l.sentinel
	}
	return &l.guards[gi]
}

// allRuns returns every run in the level, sentinel first.
func (l *dbLevel) allRuns() []*guardRun {
	out := make([]*guardRun, 0, len(l.guards)+1)
	out = append(out, &l.sentinel)
	for i := range l.guards {
		out = append(out, &l.guards[i])
	}
	return out
}

// Scan visits all live entries with lo <= key < hi in ascending key order
// until fn returns false. A nil hi scans to the end of the key space. The
// scan streams through a k-way merge of lazy cursors: memory use is
// bounded by the number of sources, not the range size. key and value
// alias the scan's read buffers and are valid only until fn returns — a
// consumer that retains them must copy. Like Get, a Scan holds the lock
// shared for its whole run — concurrent with other reads, excluded only
// by writers — so fn must not call back into a mutating DB method.
func (db *DB) Scan(lo, hi []byte, fn func(key, value []byte) bool) error {
	db.mu.RLock()
	defer db.mu.RUnlock()
	// Source order encodes recency: memtable, then L0 newest-first, then
	// the guarded levels top-down.
	cursors := []cursor{newMemCursor(db.mem, lo, hi)}
	addTables := func(tables []*sstable) {
		for _, t := range tables {
			if t.overlaps(lo, hi) {
				cursors = append(cursors, newSSTCursor(t, lo, hi, &db.stats.reads))
			}
		}
	}
	addTables(db.l0)
	for _, lvl := range db.levels {
		// Every table lies wholly inside one guard's run, so only the
		// runs [lo, hi) covers can hold a key of the range.
		last := len(lvl.guards) - 1
		if hi != nil {
			last = guardIndexFor(lvl.guardKeys, hi)
		}
		for gi := guardIndexFor(lvl.guardKeys, lo); gi <= last; gi++ {
			addTables(lvl.run(gi).tables)
		}
	}
	m, err := newMergeIterator(cursors)
	if err != nil {
		return err
	}
	tombstones := 0
	defer func() {
		m.close()
		db.stats.reads.scanSkips.Add(int64(tombstones + m.shadowed))
	}()
	for {
		key, value, tombstone, ok, err := m.next()
		if err != nil {
			return err
		}
		if !ok {
			return nil
		}
		if tombstone {
			tombstones++
			continue
		}
		if !fn(key, value) {
			return nil
		}
	}
}

// Flush forces the memtable to an L0 table (no-op when empty) and runs any
// due compactions.
func (db *DB) Flush() error {
	db.writeMu.Lock()
	defer db.writeMu.Unlock()
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.flushLocked()
}

// flushLocked writes the memtable to an L0 table and resets the WAL.
// Caller holds both writeMu (the WAL is swapped) and mu exclusively.
func (db *DB) flushLocked() error {
	if db.mem.len() == 0 {
		if db.mem.sizeBytes() == 0 {
			return nil
		}
		// Every logged op cancelled out against tables that hold none of
		// its keys — replay would rebuild this same empty memtable — so
		// the log retires without a table.
		db.mem = newSkiplist(db.opts.Seed + db.stats.flushes.Load())
		if err := db.resetWALLocked(); err != nil {
			return err
		}
		db.markSynced(db.walSeq.Load())
		return nil
	}
	b, err := newTableBuilder(db.newTablePath())
	if err != nil {
		return err
	}
	var werr error
	db.mem.scan(nil, nil, func(k, v []byte, tomb bool) bool {
		db.guards.observe(k)
		if err := b.add(k, v, tomb); err != nil {
			werr = err
			return false
		}
		return true
	})
	if werr != nil {
		b.abort()
		return werr
	}
	t, err := b.finish()
	if err != nil {
		return err
	}
	db.l0 = append([]*sstable{t}, db.l0...)
	flushes := db.stats.flushes.Add(1)
	db.stats.bytesFlushed.Add(t.size)
	db.mem = newSkiplist(db.opts.Seed + flushes)
	if err := db.resetWALLocked(); err != nil {
		return err
	}
	// The SSTable build fsynced everything the old WAL covered, so any
	// group-commit waiters are durable now.
	db.markSynced(db.walSeq.Load())
	if err := db.maybeCompactLocked(); err != nil {
		return err
	}
	return db.saveManifest()
}

func (db *DB) resetWALLocked() error {
	if err := db.wal.close(); err != nil {
		return err
	}
	if err := os.Remove(db.walPath()); err != nil && !os.IsNotExist(err) {
		return err
	}
	w, err := openWAL(db.walPath(), 0)
	if err != nil {
		return err
	}
	db.wal = w
	db.walGen++
	return nil
}

// Snapshot streams every live key/value pair in ascending key order —
// the full-state export used for replica bootstrap. It is a plain Scan
// over the whole key space: tombstoned keys are skipped, so replaying a
// snapshot plus the WAL tail that accumulated during the export
// converges to the source state (mutations are last-writer-wins and
// deletes of absent keys are no-ops). Scan's slice lifetime applies: key
// and value are valid only until fn returns.
func (db *DB) Snapshot(fn func(key, value []byte) bool) error {
	return db.Scan(nil, nil, fn)
}

// Wipe discards every record in the store — memtable, WAL, and all
// SSTables — leaving an empty DB with the same options. It is the first
// half of a snapshot install: the caller streams the snapshot's pairs
// back in (ApplyBatch) afterwards. The install is not crash-atomic; a
// crash mid-install leaves a partial store, so installers must restart
// the whole install (the replication receiver re-bootstraps from
// scratch). The commit hook, if any, is left in place.
func (db *DB) Wipe() error {
	db.writeMu.Lock()
	defer db.writeMu.Unlock()
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return fmt.Errorf("kvstore: wipe on closed DB")
	}
	for _, t := range db.l0 {
		t.close()
		if err := removeFile(t.path); err != nil {
			return err
		}
	}
	db.l0 = nil
	for _, lvl := range db.levels {
		for _, run := range lvl.allRuns() {
			for _, t := range run.tables {
				t.close()
				if err := removeFile(t.path); err != nil {
					return err
				}
			}
		}
	}
	db.levels = make([]*dbLevel, db.opts.MaxLevels)
	for i := range db.levels {
		db.levels[i] = &dbLevel{}
	}
	db.guards = guardSet{}
	db.mem = newSkiplist(db.opts.Seed)
	if err := db.resetWALLocked(); err != nil {
		return err
	}
	// Nothing is pending anymore; release any group-commit waiters.
	db.markSynced(db.walSeq.Load())
	return db.saveManifest()
}

// Close flushes and releases all resources.
func (db *DB) Close() error {
	db.writeMu.Lock()
	defer db.writeMu.Unlock()
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return nil
	}
	if err := db.flushLocked(); err != nil {
		return err
	}
	db.closed = true
	if err := db.wal.close(); err != nil {
		return err
	}
	for _, t := range db.l0 {
		t.close()
	}
	for _, lvl := range db.levels {
		for _, run := range lvl.allRuns() {
			for _, t := range run.tables {
				t.close()
			}
		}
	}
	return nil
}

// Stats returns a snapshot of DB statistics.
func (db *DB) Stats() Stats {
	db.writeMu.Lock() // pins db.wal and its size against concurrent appends
	defer db.writeMu.Unlock()
	db.mu.RLock()
	defer db.mu.RUnlock()
	s := Stats{
		Puts:           db.stats.puts.Load(),
		Deletes:        db.stats.deletes.Load(),
		Gets:           db.stats.gets.Load(),
		Flushes:        db.stats.flushes.Load(),
		Compactions:    db.stats.compactions.Load(),
		BytesFlushed:   db.stats.bytesFlushed.Load(),
		BytesCompacted: db.stats.bytesCompacted.Load(),
		WALSyncs:       db.stats.walSyncs.Load(),
		Batches:        db.stats.batches.Load(),
		TableProbes:    db.stats.reads.tableProbes.Load(),
		BloomSkips:     db.stats.reads.bloomSkips.Load(),
		BlockReads:     db.stats.reads.blockReads.Load(),
		ScanSkips:      db.stats.reads.scanSkips.Load(),
	}
	s.MemtableEntries = db.mem.len()
	s.WALBytes = db.wal.size
	s.TablesPerLevel = make([]int, 1+len(db.levels))
	s.TablesPerLevel[0] = len(db.l0)
	for i, lvl := range db.levels {
		n := 0
		for _, run := range lvl.allRuns() {
			n += len(run.tables)
		}
		s.TablesPerLevel[i+1] = n
	}
	return s
}
