package replication

import (
	"fmt"
	"sync"
	"time"

	"origami/internal/kvstore"
	"origami/internal/mds"
	"origami/internal/rpc"
	"origami/internal/telemetry"
)

// Options configures a Shipper. The zero value of every optional field
// takes the default documented on it.
type Options struct {
	// Primary is the MDS id whose store is being shipped.
	Primary int
	// Backup is the MDS id hosting the replica.
	Backup int
	// Window is the op budget of one Append frame. A frame carries whole
	// records only: it closes on the record that reaches Window, and a
	// record larger than Window travels alone. Default DefaultWindow.
	Window int
	// MaxBacklog is the max ops buffered unshipped; past it the buffer is
	// dropped and the backup is resynced by snapshot. This bounds both
	// shipper memory and the unshipped tail a failover can lose when
	// acks do not wait for the backup. Default
	// DefaultMaxBacklog.
	MaxBacklog int
	// SnapChunk is the max puts per snapshot chunk record. Default 512.
	SnapChunk int
	// SyncTimeout bounds one record's ack wait; past it the write is
	// reported failed to its issuer (it is still applied locally — the
	// conservative side of the no-loss guarantee). Default 2s.
	SyncTimeout time.Duration
	// RetryBackoff is the pause after a failed ship attempt. Default 50ms.
	RetryBackoff time.Duration
	// Registry receives the shipper's gauges and counters; nil means a
	// private registry.
	Registry *telemetry.Registry
	// Tracer, when non-nil, records a "repl.sync_ack" span for every
	// ack wait run under a traced write.
	Tracer *telemetry.Tracer
	// Dial resolves an MDS id to an RPC client for its current address.
	Dial func(id int) (*rpc.Client, error)
}

// DefaultWindow and DefaultMaxBacklog are the shipper's batching and
// buffering defaults, in ops. Exported because the scenario harness's
// loss-window assertion derives the unshipped-tail budget
// (MaxBacklog + Window) from them when a fleet leaves them unset.
const (
	DefaultWindow     = 256
	DefaultMaxBacklog = 16384
)

func (o Options) withDefaults() Options {
	if o.Window <= 0 {
		o.Window = DefaultWindow
	}
	if o.MaxBacklog <= 0 {
		o.MaxBacklog = DefaultMaxBacklog
	}
	if o.SnapChunk <= 0 {
		o.SnapChunk = 512
	}
	if o.SyncTimeout <= 0 {
		o.SyncTimeout = 2 * time.Second
	}
	if o.RetryBackoff <= 0 {
		o.RetryBackoff = 50 * time.Millisecond
	}
	if o.Registry == nil {
		o.Registry = telemetry.NewRegistry()
	}
	return o
}

// record is one WAL record awaiting shipment: its stream sequence number
// and its n op bodies (the primary memtable's immutable copy, kept as is).
type record struct {
	seq uint64
	ops []byte
	n   int
}

// Shipper is the primary side of one replication stream: a shard's
// store flowing to one replica host. It is the store's commit hook, so
// it sees every committed WAL record in WAL order; it buffers them, and
// a background sender streams them to the backup in frames of whole
// records. A new (or retargeted, or gapped, or overflowed) stream starts
// with a snapshot: the shipper exports the store, ships it as records of
// puts under a fresh session, and resumes tail appends from the sequence
// number the snapshot covers. Feed hands each writer a wait that blocks
// until the backup has applied its record (or SyncTimeout); the commit
// pipeline alone decides whether anyone runs it.
type Shipper struct {
	store *mds.Store
	opts  Options
	log   *telemetry.Logger

	mu       sync.Mutex
	cond     *sync.Cond    // wakes the sender: work or state change
	ackCh    chan struct{} // closed and replaced whenever acked advances
	buf      []record      // unshipped tail, seq-ordered
	bufOps   int           // ops in buf
	lastSeq  uint64        // last assigned record seq
	acked    uint64        // highest seq known applied on the backup
	session  uint64
	sessGen  uint64 // feeds session ids
	backup   int
	needSnap bool
	stopped  bool
	dropped  uint64 // records dropped to overflow (async loss exposure)

	// wire and resp are the sender's frame and response buffers, reused
	// across calls; only the sender goroutine touches them.
	wire rpc.Wire
	resp []byte

	wg     sync.WaitGroup
	stopCh chan struct{}

	backlogG     *telemetry.Gauge
	lastSeqG     *telemetry.Gauge
	ackedG       *telemetry.Gauge
	lagG         *telemetry.Gauge
	shippedC     *telemetry.Counter
	resyncC      *telemetry.Counter
	syncTimeoutC *telemetry.Counter
	shipErrC     *telemetry.Counter
	droppedC     *telemetry.Counter
}

// NewShipper starts streaming store to opts.Backup: the shipper takes
// the store's commit hook, then its sender bootstraps the backup with a
// snapshot. Stop releases both.
func NewShipper(store *mds.Store, opts Options) *Shipper {
	opts = opts.withDefaults()
	reg := opts.Registry
	sh := &Shipper{
		store:        store,
		opts:         opts,
		log:          telemetry.L("repl").With("mds", opts.Primary),
		ackCh:        make(chan struct{}),
		backup:       opts.Backup,
		needSnap:     true, // a new stream always starts with a snapshot
		stopCh:       make(chan struct{}),
		backlogG:     reg.Gauge("repl.shipper.backlog"),
		lastSeqG:     reg.Gauge("repl.shipper.last_seq"),
		ackedG:       reg.Gauge("repl.shipper.acked_seq"),
		lagG:         reg.Gauge("repl.shipper.lag"),
		shippedC:     reg.Counter("repl.shipper.shipped_records"),
		resyncC:      reg.Counter("repl.shipper.resyncs"),
		syncTimeoutC: reg.Counter("repl.shipper.sync_timeouts"),
		shipErrC:     reg.Counter("repl.shipper.ship_errors"),
		droppedC:     reg.Counter("repl.shipper.dropped_records"),
	}
	sh.cond = sync.NewCond(&sh.mu)
	// Seed sessions off the clock so a restarted primary never reuses a
	// session id against a backup that outlived it.
	sh.sessGen = uint64(time.Now().UnixNano())
	// The hook goes in before the sender starts: every record committed
	// from here on is either fed or covered by the first snapshot.
	store.SetCommitHook(sh.Feed)
	sh.wg.Add(1)
	go sh.run()
	return sh
}

// Stop releases the store's commit hook and any sync waiters (with an
// error) and waits for the sender to exit. Idempotent.
func (sh *Shipper) Stop() {
	// Before mu: the hook runs under the DB write lock and takes mu.
	sh.store.SetCommitHook(nil)
	sh.mu.Lock()
	if sh.stopped {
		sh.mu.Unlock()
		return
	}
	sh.stopped = true
	close(sh.stopCh)
	close(sh.ackCh) // wake sync waiters; they re-check stopped
	sh.ackCh = make(chan struct{})
	sh.cond.Broadcast()
	sh.mu.Unlock()
	sh.wg.Wait()
}

// Retarget points the shipper at a new backup (re-replication after the
// old backup was promoted elsewhere or died). The new stream bootstraps
// with a snapshot.
func (sh *Shipper) Retarget(newBackup int) {
	sh.mu.Lock()
	sh.backup = newBackup
	sh.needSnap = true
	sh.cond.Signal()
	sh.mu.Unlock()
}

// Status is a point-in-time view of the stream (admin /healthz, tests).
// Sequence numbers, lag and drops count records; the backlog counts ops.
type Status struct {
	Primary  int    `json:"primary"`
	Backup   int    `json:"backup"`
	Session  uint64 `json:"session"`
	LastSeq  uint64 `json:"last_seq"`
	AckedSeq uint64 `json:"acked_seq"`
	Lag      uint64 `json:"lag"`
	Backlog  int    `json:"backlog"`
	Dropped  uint64 `json:"dropped_records"`
	Syncing  bool   `json:"snapshotting"`
}

// Status reports the stream state.
func (sh *Shipper) Status() Status {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return Status{
		Primary:  sh.opts.Primary,
		Backup:   sh.backup,
		Session:  sh.session,
		LastSeq:  sh.lastSeq,
		AckedSeq: sh.acked,
		Lag:      sh.lastSeq - sh.acked,
		Backlog:  sh.bufOps,
		Dropped:  sh.dropped,
		Syncing:  sh.needSnap,
	}
}

// Feed ingests one committed WAL record — n op bodies in ops — in WAL
// order. It is the store's commit hook, run under the DB write lock, so
// it must not take store locks. It keeps ops (the memtable's immutable
// copy), assigns the record its sequence number, and returns its ack
// wait, which the commit pipeline awaits inline (sync-repl), drives to
// completion in the background (async) or drops (sync-fsync).
func (sh *Shipper) Feed(sc telemetry.SpanContext, ops []byte, n int) func() error {
	sh.mu.Lock()
	if sh.stopped {
		sh.mu.Unlock()
		return nil
	}
	sh.lastSeq++
	seq := sh.lastSeq
	sh.buf = append(sh.buf, record{seq: seq, ops: ops, n: n})
	sh.bufOps += n
	sh.lastSeqG.Set(float64(seq))
	if sh.bufOps > sh.opts.MaxBacklog {
		// Overflow: drop the buffer and resync by snapshot. The store
		// itself still holds every dropped record, so the snapshot covers
		// them; only the stream restarts.
		sh.dropped += uint64(len(sh.buf))
		sh.droppedC.Add(int64(len(sh.buf)))
		sh.buf, sh.bufOps = nil, 0
		if !sh.needSnap {
			sh.needSnap = true
			sh.resyncC.Inc()
		}
	}
	sh.backlogG.Set(float64(sh.bufOps))
	sh.lagG.Set(float64(sh.lastSeq - sh.acked))
	sh.cond.Signal()
	sh.mu.Unlock()
	return func() error {
		// The ack wait is where sync-repl latency hides; give it its own
		// span under the writer's kvstore.commit span.
		span := sh.opts.Tracer.StartSpanFrom(sc, "repl.sync_ack")
		err := sh.waitAcked(seq)
		span.Finish(err)
		return err
	}
}

// ackTimers recycles waitAcked's timeout timers: every awaited record
// waits once, and a fresh timer per wait is three allocations.
var ackTimers sync.Pool

// waitAcked blocks until the backup has applied seq, the shipper stops,
// or SyncTimeout passes.
func (sh *Shipper) waitAcked(seq uint64) error {
	timeout := sh.opts.SyncTimeout
	timer, _ := ackTimers.Get().(*time.Timer)
	if timer == nil {
		timer = time.NewTimer(timeout)
	} else {
		timer.Reset(timeout)
	}
	start := time.Now()
	defer func() {
		timer.Stop()
		ackTimers.Put(timer)
	}()
	for {
		sh.mu.Lock()
		if sh.acked >= seq {
			sh.mu.Unlock()
			return nil
		}
		if sh.stopped {
			sh.mu.Unlock()
			return fmt.Errorf("replication: shipper stopped before seq %d was acked", seq)
		}
		ch := sh.ackCh
		sh.mu.Unlock()
		select {
		case <-ch:
		case <-timer.C:
			if time.Since(start) < timeout {
				continue // a tick the timer's previous wait left behind
			}
			sh.syncTimeoutC.Inc()
			return fmt.Errorf("replication: sync ack timeout at seq %d (backup %d unreachable or lagging)", seq, sh.backup)
		}
	}
}

// advanceAcked moves the ack frontier and wakes waiters. Caller holds mu.
func (sh *Shipper) advanceAcked(seq uint64) {
	if seq <= sh.acked {
		return
	}
	sh.acked = seq
	sh.ackedG.Set(float64(seq))
	sh.lagG.Set(float64(sh.lastSeq - sh.acked))
	close(sh.ackCh)
	sh.ackCh = make(chan struct{})
}

// sleep pauses for the retry backoff, returning early on Stop.
func (sh *Shipper) sleep() {
	select {
	case <-sh.stopCh:
	case <-time.After(sh.opts.RetryBackoff):
	}
}

// frame returns the records of the next Append frame — whole records from
// the head of the buffer, closing on the one that reaches Window; a
// record larger than Window goes alone — and the ops they carry. The
// slice aliases buf: the sender reads it after releasing mu, which is
// safe because until the sender pops these records, Feed only appends
// past them. Caller holds mu; buf is not empty.
func (sh *Shipper) frame() ([]record, int) {
	k, ops := 0, 0
	for k < len(sh.buf) && ops < sh.opts.Window {
		if k > 0 && sh.buf[k].n > sh.opts.Window {
			break
		}
		ops += sh.buf[k].n
		k++
	}
	return sh.buf[:k:k], ops
}

// run is the sender loop: bootstrap by snapshot whenever the stream
// needs one, otherwise ship the buffered tail in frames of whole records.
func (sh *Shipper) run() {
	defer sh.wg.Done()
	for {
		sh.mu.Lock()
		for !sh.stopped && !sh.needSnap && len(sh.buf) == 0 {
			sh.cond.Wait()
		}
		if sh.stopped {
			sh.mu.Unlock()
			return
		}
		if sh.needSnap {
			// Open a fresh session. Everything assigned so far is in the
			// store and therefore covered by the snapshot; the buffer
			// restarts empty and collects the tail that commits during
			// the export (double-applied harmlessly — replay is
			// idempotent).
			sh.needSnap = false
			sh.sessGen++
			sh.session = sh.sessGen
			sh.buf, sh.bufOps = nil, 0
			base := sh.lastSeq
			session := sh.session
			backup := sh.backup
			sh.mu.Unlock()
			err := sh.bootstrap(backup, session, base)
			sh.mu.Lock()
			if err != nil {
				sh.shipErrC.Inc()
				if !sh.stopped {
					sh.needSnap = true
				}
				sh.mu.Unlock()
				sh.log.Warn("replica bootstrap failed", "backup", backup, "err", err)
				sh.sleep()
				continue
			}
			// Every seq <= base is applied on the backup now, even if a
			// newer resync was requested meanwhile.
			sh.advanceAcked(base)
			sh.mu.Unlock()
			sh.log.Info("replica bootstrapped", "backup", backup, "session", session, "base_seq", base)
			continue
		}
		recs, ops := sh.frame()
		session := sh.session
		backup := sh.backup
		head := sh.lastSeq
		sh.mu.Unlock()

		applied, err := sh.ship(backup, session, head, recs[0].seq, recs)
		sh.mu.Lock()
		if err == nil && sh.session == session {
			// Pop exactly what we shipped — unless an overflow reset the
			// buffer underneath us. A drained buffer restarts at the front
			// of its array, so a stream that keeps up appends in place.
			if len(sh.buf) >= len(recs) && sh.buf[0].seq == recs[0].seq {
				if len(sh.buf) == len(recs) {
					sh.buf = sh.buf[:0]
				} else {
					sh.buf = sh.buf[len(recs):]
				}
				sh.bufOps -= ops
			}
			sh.advanceAcked(applied)
			sh.shippedC.Add(int64(len(recs)))
			sh.backlogG.Set(float64(sh.bufOps))
			sh.mu.Unlock()
			continue
		}
		if err != nil && IsGap(err) && sh.session == session {
			// The backup lost our stream (restart, wipe, session
			// mismatch): start over with a snapshot.
			sh.needSnap = true
			sh.resyncC.Inc()
			sh.mu.Unlock()
			sh.log.Warn("backup reports gap; resyncing", "backup", backup)
			continue
		}
		sh.mu.Unlock()
		if err != nil {
			sh.shipErrC.Inc()
			sh.sleep()
		}
	}
}

// call sends the body built in sh.wire and returns the response, which
// lives in sh.resp until the next call. Sender goroutine only.
func (sh *Shipper) call(backup int, m rpc.Method) ([]byte, error) {
	cli, err := sh.opts.Dial(backup)
	if err != nil {
		return nil, err
	}
	resp, err := cli.CallInto(telemetry.SpanContext{}, m, sh.wire.Bytes(), sh.resp[:0])
	if err == nil {
		sh.resp = resp
	}
	return resp, err
}

// ship sends one Append frame of whole records and
// returns the backup's applied frontier.
func (sh *Shipper) ship(backup int, session, head, fromSeq uint64, recs []record) (uint64, error) {
	w := sh.body(session).U64(head).U64(fromSeq)
	mds.AppendRecordList(w, len(recs))
	for _, rec := range recs {
		mds.AppendRecord(w, rec.ops, rec.n)
	}
	resp, err := sh.call(backup, MethodAppend)
	if err != nil {
		return 0, err
	}
	return decodeAppliedResp(resp)
}

// body starts the next request body in sh.wire with the stream header.
func (sh *Shipper) body(session uint64) *rpc.Wire {
	sh.wire.Reset()
	appendHeader(&sh.wire, sh.opts.Primary, session)
	return &sh.wire
}

// bootstrap ships a store snapshot under a fresh session: SnapBegin, the
// store's pairs as records of at most SnapChunk puts, SnapEnd carrying the
// base seq the tail resumes from. The export is copied into those records
// under the store's read lock before the first chunk is sent, so writers
// are never blocked behind the backup.
func (sh *Shipper) bootstrap(backup int, session uint64, base uint64) error {
	sh.body(session)
	if _, err := sh.call(backup, MethodSnapBegin); err != nil {
		return err
	}
	chunks := make([]kvstore.Batch, 1)
	err := sh.store.SnapshotPairs(func(k, v []byte) bool {
		if chunks[len(chunks)-1].Len() == sh.opts.SnapChunk {
			chunks = append(chunks, kvstore.Batch{})
		}
		chunks[len(chunks)-1].Put(k, v)
		return true
	})
	for i := 0; err == nil && i < len(chunks) && chunks[i].Len() > 0; i++ {
		ops, n := chunks[i].Ops()
		w := sh.body(session)
		mds.AppendRecordList(w, 1)
		mds.AppendRecord(w, ops, n)
		_, err = sh.call(backup, MethodSnapChunk)
	}
	if err == nil {
		sh.body(session).U64(base)
		_, err = sh.call(backup, MethodSnapEnd)
	}
	return err
}
