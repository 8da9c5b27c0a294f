package kvstore

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
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
	// SyncWAL gives every write a WAL fsync covering its record
	// (concurrent writers share fsyncs: group commit); the installed
	// Committer decides whether the ack waits for it. A cluster's
	// sync commit modes always set it; only async reads it, and without
	// it an async write is never fsynced by its own path. Default false.
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
	// WALRecords counts records appended to the WAL since Open, and
	// WALSyncs the group-commit fsyncs: under SyncWAL with concurrent
	// writers, WALRecords/WALSyncs is the records one fsync carries.
	// WALSyncWaitNs is the time fsync leaders spent waiting for their
	// cohort before pinning the WAL.
	WALRecords    int64
	WALSyncs      int64
	WALSyncWaitNs int64
	// WALWriteBytes counts the bytes the WAL wrote since Open: its sector
	// write-outs, and the zero-fill of the size set ahead of its tail at
	// Open and whenever one generation outgrows the file.
	WALWriteBytes int64
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
	walSyncs, walSyncWaitNs      atomic.Int64
	walWriteBytes                atomic.Int64
	reads                        readStats
}

// DB is a fragmented log-structured merge store. All methods are safe
// for concurrent use: point and range reads run concurrently with each
// other (shared lock over the immutable SSTables and the memtable),
// while mutations — which append to the WAL, update the memtable in
// place, and may flush or compact — hold the lock exclusively.
//
// With SyncWAL enabled, durability uses group commit: a writer appends
// its record to the WAL's in-memory tail and inserts into the memtable
// under short locks, then waits for a WAL sync covering its sequence
// number. One writer at a time leads a sync: it cuts the tail's dirty
// 512-byte sectors, writes them with one direct write and fdatasyncs.
// Every record appended before the cut rides the same sync, so N
// concurrent writers share ~one sync instead of paying one each, and a
// sync writes the sectors its records filled, not a page. The leader
// first waits for its cohort (see awaitCohort): the writers the last
// sync served are usually on their way back with their next record. A
// write is acknowledged only after its record is durable, but a
// concurrent reader may observe it slightly earlier — the standard trade
// (a crash can lose data a reader saw but whose writer was never
// acknowledged).
type DB struct {
	// writeMu serialises the write path so WAL append order, memtable
	// insert order, and crash-replay order all agree. Lock hierarchy:
	// writeMu → mu → gc.mu, and writeMu → mu → wal.outMu; a group-commit
	// sync leader holds writeMu only while it cuts, then wal.outMu alone
	// while it writes and no lock while it fsyncs, so readers (mu shared)
	// are never blocked behind an fsync.
	writeMu sync.Mutex
	mu      sync.RWMutex
	dir     string
	opts    Options
	mem     *skiplist
	wal     *wal
	// walSeq counts records appended to the WAL. Writers advance it
	// under writeMu; the group-commit leader also reads it locklessly
	// while it waits for its cohort, hence the atomic.
	walSeq      atomic.Uint64
	gc          groupCommit
	l0          []*sstable // newest first
	levels      []*dbLevel // levels[0] is L1
	guards      guardSet
	nextFileNum uint64
	retired     []string // paths of tables replaced since the last install: closed, deleted by the next
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
// traced write (an ApplyBatch whose Batch.Span carries a trace ID)
// records a "kvstore.commit" span covering the WAL append, memtable
// insert, durability wait, and any commit-hook wait. Nil removes it.
// Safe to call while serving.
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
// wait func, which the installed Committer may run after the DB locks
// are released: this is where a synchronous replication ack blocks
// without stalling other writers. sc is the writer's span context — the
// kvstore.commit span, or the request's span when the store records
// none — and is zero for untraced writes.
type CommitHook func(sc telemetry.SpanContext, ops []byte, n int) (wait func() error)

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
// Without a committer the store waits for the local fsync (under
// SyncWAL) alone: a hook's wait is only ever awaited by a committer.
// The store always passes a nil ctx: nothing cancels a store write.
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
	waiters int    // goroutines inside waitSynced
	// What the last fsync saw when it completed: cohort is waiters at
	// that moment (the writers it released and those already queued),
	// cohortSeq the seq it covered, cohortWait half its duration.
	cohort     int
	cohortSeq  uint64
	cohortWait time.Duration
	// wakeAt is the walSeq that completes a waiting leader's cohort, 0
	// when no leader waits; writers read it locklessly after appending
	// and kick the leader once they reach it.
	wakeAt atomic.Uint64
	kick   chan struct{} // buffered 1: Close and writers wake the leader
	timer  *time.Timer   // the leader's cohort deadline, stopped between uses
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
	gen, err := db.loadManifest()
	if err != nil {
		return nil, err
	}
	if err := db.sweep(); err != nil {
		return nil, err
	}
	// Replay mutations that were logged but never flushed, then resume the
	// log where the intact records end. The table set is the one the
	// records were first applied against — it changes only by a flush,
	// which restarts the log in a new generation — so replay rebuilds the
	// same memtable.
	end, err := replayWAL(db.walPath(), gen, func(ops []byte, n int) {
		db.applyToMemtable(ops, n, db.tombstonesNeeded(ops, n))
	})
	if err != nil {
		return nil, err
	}
	w, err := openWAL(db.walPath(), gen, end, opts.SyncWAL, &db.stats.walWriteBytes)
	if err != nil {
		return nil, err
	}
	db.wal = w
	db.gc.cond = sync.NewCond(&db.gc.mu)
	db.gc.kick = make(chan struct{}, 1)
	db.gc.timer = time.NewTimer(time.Hour)
	db.gc.timer.Stop()
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
// unless a flush already made it durable via the SSTable sync. sc (zero
// for none) is the request's span: traced writes record a
// "kvstore.commit" span spanning the whole path, including the durability
// and commit-hook waits.
func (db *DB) write(sc telemetry.SpanContext, ops []byte, n int, batch bool) error {
	span := db.spanTracer().StartSpanFrom(sc, "kvstore.commit")
	err := db.writeInner(span.Propagate(sc), ops, n, batch)
	span.Finish(err)
	return err
}

func (db *DB) writeInner(sc telemetry.SpanContext, ops []byte, n int, batch bool) error {
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
	if w := db.gc.wakeAt.Load(); w != 0 && seq >= w {
		db.gc.wake()
	}
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
	// order; its wait func (if any) is the committer's to run, after
	// every lock is released.
	var wait func() error
	if db.hook != nil {
		wait = db.hook(sc, ops, n)
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
		return committer.Commit(nil, local, wait)
	}
	if local != nil {
		return local()
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
	g.waiters++
	defer func() { g.waiters-- }()
	for g.synced < seq {
		if g.err != nil {
			return g.err
		}
		if g.leading {
			g.cond.Wait()
			continue
		}
		g.leading = true
		cohortEnd, wait := g.cohortSeq+uint64(g.cohort), g.cohortWait
		if g.cohort <= 1 {
			wait = 0
		}
		g.mu.Unlock()
		db.awaitCohort(cohortEnd, wait)
		// Cut the WAL's dirty sectors under writeMu, then write and
		// fdatasync them WITHOUT holding it: writers keep appending to the
		// tail during the sync and ride the next one — that window is
		// where the group-commit batch forms. The cut holds every record
		// counted in walSeq, so the sync covers all of them. A flush that
		// restarts the log meanwhile waits until the cut sectors are
		// written (wal.recycle); those records are in its table anyway.
		db.writeMu.Lock()
		target := db.walSeq.Load()
		closed := db.closed
		var sectors []byte
		var off int64
		if !closed {
			sectors, off = db.wal.cut()
		}
		db.writeMu.Unlock()
		var err error
		start := time.Now()
		if closed {
			err = fmt.Errorf("kvstore: DB closed awaiting WAL sync")
		} else {
			err = db.wal.sync(sectors, off)
		}
		took := time.Since(start)
		if err == nil {
			db.stats.walSyncs.Add(1)
		}
		g.mu.Lock()
		g.leading = false
		if err != nil {
			if g.err == nil {
				g.err = err
			}
		} else {
			if target > g.synced {
				g.synced = target
			}
			g.cohort, g.cohortSeq, g.cohortWait = g.waiters, target, took/2
		}
		g.cond.Broadcast()
	}
	return nil
}

// awaitCohort holds an fsync leader, before it pins the WAL, until the
// WAL reaches seq end — the last fsync's cohort has appended again — or
// until d passes, whichever comes first. A closed-loop writer released
// by the last fsync is a client round trip away from its next record;
// leading without it gives every fsync one record. d is half the last
// fsync, so a cohort member that never returns costs at most that (plus
// the runtime's timer slack). A cohort of one (a lone writer, the
// commit pipeline's background syncer) passes d = 0 and never waits.
func (db *DB) awaitCohort(end uint64, d time.Duration) {
	g := &db.gc
	if d <= 0 || db.walSeq.Load() >= end {
		return
	}
	start := time.Now()
	select { // a kick meant for an earlier leader
	case <-g.kick:
	default:
	}
	g.wakeAt.Store(end)
	// A writer that appended before wakeAt was set did not kick.
	if db.walSeq.Load() < end {
		g.timer.Reset(d)
		select {
		case <-g.kick:
		case <-g.timer.C:
		}
		// go.mod's language version keeps the pre-1.23 timer: a fire
		// racing the kick must be drained before the next Reset.
		if !g.timer.Stop() {
			select {
			case <-g.timer.C:
			default:
			}
		}
	}
	g.wakeAt.Store(0)
	db.stats.walSyncWaitNs.Add(int64(time.Since(start)))
}

// wake kicks a leader waiting in awaitCohort, if any; it never blocks.
func (g *groupCommit) wake() {
	select {
	case g.kick <- struct{}{}:
	default:
	}
}

// markSynced records that the WAL is durable through seq (a flush
// installed a table holding everything) and releases any waiters.
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
	return db.write(telemetry.SpanContext{}, appendOpBody(nil, walKindPut, key, value), 1, false)
}

// Delete removes key. Deleting an absent key is not an error.
func (db *DB) Delete(key []byte) error {
	return db.write(telemetry.SpanContext{}, appendOpBody(nil, walKindDelete, key, nil), 1, false)
}

// Batch collects mutations to be applied atomically by ApplyBatch. It
// keeps them the way the log and the memtable will: already encoded, back
// to back, copied once from the caller's slices.
type Batch struct {
	ops []byte
	n   int
	// Span is the span context of the request the batch commits for: a
	// traced one records its kvstore.commit span under it. Zero, the
	// default, is untraced.
	Span telemetry.SpanContext
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
	if b.Len() == 0 {
		return nil
	}
	db.stats.batches.Add(1)
	ops, n, sc := b.ops, b.n, b.Span
	*b = Batch{}
	return db.write(sc, ops, n, true)
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

// flushLocked writes the memtable to an L0 table, runs any due
// compactions and installs the result (installLocked), which restarts
// the log. Caller holds both writeMu and mu exclusively.
func (db *DB) flushLocked() error {
	if db.mem.len() == 0 {
		if db.mem.sizeBytes() == 0 {
			return nil
		}
		// Every logged op cancelled out against tables that hold none of
		// its keys — replay would rebuild this same empty memtable — so
		// the log restarts without a table.
		db.mem = newSkiplist(db.opts.Seed + db.stats.flushes.Load())
		return db.installLocked()
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
	if err := db.maybeCompactLocked(); err != nil {
		return err
	}
	return db.installLocked()
}

// installLocked makes the table set durable and only then retires what
// it replaces. Every table is already fsynced; the manifest naming them
// and the log's next generation is written, fsynced and renamed into
// place, and the directory fsynced. Then the group-commit waiters are
// released (the tables hold every record logged so far), the log restarts
// in that generation, and the tables a compaction or Wipe replaced are
// deleted. A failed install retires nothing: the log and the replaced
// tables stay what the last manifest recovers from, and a crash between
// the install and the deletions leaves orphans that Open sweeps.
func (db *DB) installLocked() error {
	gen := db.wal.gen + 1
	if err := db.saveManifest(gen); err != nil {
		return err
	}
	db.markSynced(db.walSeq.Load())
	db.wal.recycle(gen)
	for _, path := range db.retired {
		_ = removeFile(path) // one left behind is an orphan Open sweeps
	}
	db.retired = nil
	return nil
}

// retire closes tables that left the table set; installLocked deletes
// them.
func (db *DB) retire(ts []*sstable) {
	for _, t := range ts {
		t.close()
		db.retired = append(db.retired, t.path)
	}
}

// tables returns every table in the store, L0 first.
func (db *DB) tables() []*sstable {
	ts := append([]*sstable(nil), db.l0...)
	for _, lvl := range db.levels {
		for _, run := range lvl.allRuns() {
			ts = append(ts, run.tables...)
		}
	}
	return ts
}

// sweep deletes what a crash can leave beside the manifest: tables it
// does not name — written but never installed, or retired but not yet
// deleted — and a manifest that was never renamed into place.
func (db *DB) sweep() error {
	live := map[string]bool{}
	for _, t := range db.tables() {
		live[t.path] = true
	}
	paths, err := filepath.Glob(filepath.Join(db.dir, "*.sst"))
	if err != nil {
		return err
	}
	for _, p := range paths {
		if !live[p] {
			if err := removeFile(p); err != nil {
				return fmt.Errorf("kvstore: sweep: %w", err)
			}
		}
	}
	if err := removeFile(db.manifestPath() + ".tmp"); err != nil {
		return fmt.Errorf("kvstore: sweep: %w", err)
	}
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
	db.retire(db.tables())
	db.l0 = nil
	db.levels = make([]*dbLevel, db.opts.MaxLevels)
	for i := range db.levels {
		db.levels[i] = &dbLevel{}
	}
	db.guards = guardSet{}
	db.mem = newSkiplist(db.opts.Seed)
	// Nothing is pending anymore: the install releases any group-commit
	// waiters.
	return db.installLocked()
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
	// A leader waiting for its cohort would otherwise sit out its
	// deadline before finding the store closed.
	db.gc.wake()
	if err := db.wal.close(); err != nil {
		return err
	}
	for _, t := range db.tables() {
		t.close()
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
		WALRecords:     int64(db.walSeq.Load()),
		WALSyncs:       db.stats.walSyncs.Load(),
		WALSyncWaitNs:  db.stats.walSyncWaitNs.Load(),
		WALWriteBytes:  db.stats.walWriteBytes.Load(),
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
