package replication

import (
	"context"
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
	// Unit identifies what is shipped: 0 replicates the whole store (the
	// ring backup), any other value is the root inode of a subtree
	// replicated for reads. The receiver keys its replica stores by
	// (primary, unit).
	Unit uint64
	// Snapshot overrides the bootstrap export (nil = the whole store via
	// SnapshotPairs). Subtree units export only their subtree. The slices
	// handed to emit are only valid until it returns.
	Snapshot func(emit func(k, v []byte) bool) error
	// KeepaliveEvery, when > 0, sends an empty Append at this interval
	// while the stream is idle, refreshing the receiver's view of the
	// primary's head (its staleness age bound). Subtree read units need
	// it; the ring backup does not.
	KeepaliveEvery time.Duration
	// Sync makes Feed hand every write an ack wait that blocks until its
	// record is applied on the backup. Whether the writer actually blocks
	// on it before acknowledging is the commit pipeline's decision, not
	// the shipper's: sync-repl mode awaits it inline (the -repl-sync
	// guarantee — zero acknowledged-write loss across a primary crash),
	// async mode completes it in the background under a bounded window.
	// Default false — fire-and-forget shipping with a bounded backlog,
	// no per-write ack tracking.
	Sync bool
	// Window is the max records per Append RPC. Default DefaultWindow.
	Window int
	// MaxBacklog is the max buffered unshipped records; past it the
	// buffer is dropped and the backup is resynced by snapshot. This
	// bounds both shipper memory and the async-mode loss window.
	// Default DefaultMaxBacklog.
	MaxBacklog int
	// SnapChunk is the max pairs per snapshot chunk RPC. Default 512.
	SnapChunk int
	// SyncTimeout bounds a sync-mode ack wait; past it the write is
	// reported failed to its issuer (it is still applied locally — the
	// conservative side of the no-loss guarantee). Default 2s.
	SyncTimeout time.Duration
	// RetryBackoff is the pause after a failed ship attempt. Default 50ms.
	RetryBackoff time.Duration
	// Registry receives the shipper's gauges and counters; nil means a
	// private registry.
	Registry *telemetry.Registry
	// Tracer, when non-nil, records a "repl.sync_ack" span for every
	// sync-mode ack wait under a traced write.
	Tracer *telemetry.Tracer
	// Dial resolves an MDS id to an RPC client for its current address.
	Dial func(id int) (*rpc.Client, error)
}

// DefaultWindow and DefaultMaxBacklog are the shipper's batching and
// buffering defaults. Exported because the scenario harness's
// loss-window assertion derives the async unshipped-tail budget
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

// Shipper is the primary side of one replication stream: the records of
// one unit flowing to one replica host. It observes the unit's mutations
// in WAL order — either by tapping the store's kvstore commit hook
// directly (Start; the classic whole-store ring backup) or by being fed
// pre-filtered batches from a Fanout (StartFed; one stream per
// (unit, replica)) — buffers them, and a background sender streams them
// to the backup in bounded batches. A new (or retargeted, or gapped, or
// overflowed) stream starts with a snapshot: the shipper exports the
// unit's state, ships it chunk-wise under a fresh session, and resumes
// tail appends from the sequence number the snapshot covers. In Sync
// mode the hook hands each writer a wait that blocks until the backup
// has applied its record (or SyncTimeout).
type Shipper struct {
	store *mds.Store
	opts  Options
	log   *telemetry.Logger

	mu       sync.Mutex
	cond     *sync.Cond    // wakes the sender: work or state change
	ackCh    chan struct{} // closed and replaced whenever acked advances
	buf      []Record      // unshipped tail, seq-ordered
	lastSeq  uint64        // last assigned record seq
	acked    uint64        // highest seq known applied on the backup
	session  uint64
	sessGen  uint64 // feeds session ids
	backup   int
	needSnap bool
	pingDue  bool // keepalive timer fired; send an empty append when idle
	stopped  bool
	dropped  uint64 // records dropped to overflow (async loss exposure)
	ownsHook bool   // Start installed the store's commit hook (vs Fanout-fed)

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

// NewShipper creates a shipper for store. Call Start to install the
// commit hook and begin streaming, or StartFed when a Fanout feeds it.
func NewShipper(store *mds.Store, opts Options) *Shipper {
	opts = opts.withDefaults()
	if opts.Snapshot == nil {
		opts.Snapshot = store.SnapshotPairs
	}
	reg := opts.Registry
	// The ring backup (unit 0) keeps its historical repl.shipper.* metric
	// names; subtree read units get per-unit replica.stream.* names so
	// several streams can share one registry.
	name := func(leaf string) string {
		if opts.Unit == 0 {
			return "repl.shipper." + leaf
		}
		return fmt.Sprintf("replica.stream.%s.u%d.b%d", leaf, opts.Unit, opts.Backup)
	}
	sh := &Shipper{
		store:        store,
		opts:         opts,
		log:          telemetry.L("repl").With("mds", opts.Primary),
		ackCh:        make(chan struct{}),
		backup:       opts.Backup,
		needSnap:     true, // a new stream always starts with a snapshot
		stopCh:       make(chan struct{}),
		backlogG:     reg.Gauge(name("backlog")),
		lastSeqG:     reg.Gauge(name("last_seq")),
		ackedG:       reg.Gauge(name("acked_seq")),
		lagG:         reg.Gauge(name("lag")),
		shippedC:     reg.Counter(name("shipped_records")),
		resyncC:      reg.Counter(name("resyncs")),
		syncTimeoutC: reg.Counter(name("sync_timeouts")),
		shipErrC:     reg.Counter(name("ship_errors")),
		droppedC:     reg.Counter(name("dropped_records")),
	}
	sh.cond = sync.NewCond(&sh.mu)
	// Seed sessions off the clock so a restarted primary never reuses a
	// session id against a backup that outlived it.
	sh.sessGen = uint64(time.Now().UnixNano())
	return sh
}

// Start installs the commit hook and launches the sender. The first
// thing the sender does is bootstrap the backup with a snapshot.
func (sh *Shipper) Start() {
	sh.mu.Lock()
	sh.ownsHook = true
	sh.mu.Unlock()
	sh.store.SetCommitHook(sh.tap)
	sh.startSender()
}

// StartFed launches the sender without touching the store's commit-hook
// slot: the owning Fanout holds the hook and feeds this shipper
// pre-filtered batches via Feed.
func (sh *Shipper) StartFed() { sh.startSender() }

func (sh *Shipper) startSender() {
	sh.wg.Add(1)
	go sh.run()
	if sh.opts.KeepaliveEvery > 0 {
		sh.wg.Add(1)
		go sh.keepaliveLoop()
	}
}

// keepaliveLoop marks an idle-stream ping due at each tick; the sender
// turns it into an empty Append carrying the current head.
func (sh *Shipper) keepaliveLoop() {
	defer sh.wg.Done()
	t := time.NewTicker(sh.opts.KeepaliveEvery)
	defer t.Stop()
	for {
		select {
		case <-sh.stopCh:
			return
		case <-t.C:
			sh.mu.Lock()
			sh.pingDue = true
			sh.cond.Signal()
			sh.mu.Unlock()
		}
	}
}

// Stop uninstalls the hook (when this shipper owns it), releases any
// sync waiters (with an error), and waits for the sender to exit.
func (sh *Shipper) Stop() {
	sh.mu.Lock()
	owns := sh.ownsHook
	sh.mu.Unlock()
	if owns {
		sh.store.SetCommitHook(nil)
	}
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
type Status struct {
	Primary  int    `json:"primary"`
	Unit     uint64 `json:"unit,omitempty"`
	Backup   int    `json:"backup"`
	Sync     bool   `json:"sync"`
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
		Unit:     sh.opts.Unit,
		Backup:   sh.backup,
		Sync:     sh.opts.Sync,
		Session:  sh.session,
		LastSeq:  sh.lastSeq,
		AckedSeq: sh.acked,
		Lag:      sh.lastSeq - sh.acked,
		Backlog:  len(sh.buf),
		Dropped:  sh.dropped,
		Syncing:  sh.needSnap,
	}
}

// tap is the kvstore commit hook of a Start-ed (hook-owning) shipper.
func (sh *Shipper) tap(ctx context.Context, muts []kvstore.Mutation) func() error {
	return sh.Feed(ctx, muts)
}

// Feed ingests one committed batch in WAL order. It is called either as
// the store's commit hook (whole-store shipper) or by the Fanout with
// the batch already filtered to this unit's subtree — in both cases
// under the DB write lock, so it must not take store locks. It assigns
// sequence numbers, buffers the records, and in Sync mode returns the
// per-write ack wait, which the commit pipeline either awaits inline
// (sync-repl) or drives to completion in the background (async).
func (sh *Shipper) Feed(ctx context.Context, muts []kvstore.Mutation) func() error {
	sh.mu.Lock()
	if sh.stopped {
		sh.mu.Unlock()
		return nil
	}
	for _, m := range muts {
		sh.lastSeq++
		sh.buf = append(sh.buf, Record{Seq: sh.lastSeq, Mut: m})
	}
	last := sh.lastSeq
	sh.lastSeqG.Set(float64(last))
	if len(sh.buf) > sh.opts.MaxBacklog {
		// Overflow: drop the buffer and resync by snapshot. The store
		// itself still holds every dropped mutation, so the snapshot
		// covers them; only the stream restarts.
		sh.dropped += uint64(len(sh.buf))
		sh.droppedC.Add(int64(len(sh.buf)))
		sh.buf = nil
		if !sh.needSnap {
			sh.needSnap = true
			sh.resyncC.Inc()
		}
	}
	sh.backlogG.Set(float64(len(sh.buf)))
	sh.lagG.Set(float64(sh.lastSeq - sh.acked))
	sh.cond.Signal()
	sh.mu.Unlock()
	if !sh.opts.Sync {
		return nil
	}
	return func() error {
		// The ack wait is where sync-mode latency hides; give it its own
		// span under the writer's kvstore.commit span.
		_, span := sh.opts.Tracer.StartSpan(ctx, "repl.sync_ack")
		err := sh.waitAcked(last)
		span.Finish(err)
		return err
	}
}

// waitAcked blocks until the backup has applied seq, the shipper stops,
// or SyncTimeout passes.
func (sh *Shipper) waitAcked(seq uint64) error {
	timer := time.NewTimer(sh.opts.SyncTimeout)
	defer timer.Stop()
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

// run is the sender loop: bootstrap by snapshot whenever the stream
// needs one, otherwise ship the buffered tail in Window-sized batches.
func (sh *Shipper) run() {
	defer sh.wg.Done()
	for {
		sh.mu.Lock()
		for !sh.stopped && !sh.needSnap && len(sh.buf) == 0 && !sh.pingDue {
			sh.cond.Wait()
		}
		if sh.stopped {
			sh.mu.Unlock()
			return
		}
		if sh.pingDue && !sh.needSnap && len(sh.buf) == 0 {
			// Idle keepalive: an empty append refreshing the receiver's
			// head/age view. Errors are ignored — the next tick retries,
			// and a gap answer just means a resync is already pending.
			sh.pingDue = false
			session := sh.session
			backup := sh.backup
			head := sh.lastSeq
			from := sh.acked + 1
			sh.mu.Unlock()
			if session != 0 {
				_, _ = sh.ship(backup, session, head, from, nil)
			}
			continue
		}
		sh.pingDue = false
		if sh.needSnap {
			// Open a fresh session. Everything assigned so far is in the
			// store and therefore covered by the snapshot; the buffer
			// restarts empty and collects the tail that commits during
			// the export (double-applied harmlessly — replay is
			// idempotent).
			sh.needSnap = false
			sh.sessGen++
			sh.session = sh.sessGen
			sh.buf = nil
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
		n := len(sh.buf)
		if n > sh.opts.Window {
			n = sh.opts.Window
		}
		recs := make([]Record, n)
		copy(recs, sh.buf[:n])
		session := sh.session
		backup := sh.backup
		head := sh.lastSeq
		sh.mu.Unlock()

		applied, err := sh.ship(backup, session, head, recs[0].Seq, recs)
		sh.mu.Lock()
		if err == nil && sh.session == session {
			// Pop exactly what we shipped — unless an overflow reset the
			// buffer underneath us.
			if len(sh.buf) >= n && sh.buf[0].Seq == recs[0].Seq {
				sh.buf = sh.buf[n:]
			}
			sh.advanceAcked(applied)
			sh.shippedC.Add(int64(n))
			sh.backlogG.Set(float64(len(sh.buf)))
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

func (sh *Shipper) streamID() streamID {
	return streamID{Primary: sh.opts.Primary, Unit: sh.opts.Unit}
}

// ship sends one Append batch and returns the backup's applied frontier.
func (sh *Shipper) ship(backup int, session, head, fromSeq uint64, recs []Record) (uint64, error) {
	cli, err := sh.opts.Dial(backup)
	if err != nil {
		return 0, err
	}
	resp, err := cli.Call(MethodAppend, encodeAppend(sh.streamID(), session, head, fromSeq, recs))
	if err != nil {
		return 0, err
	}
	return decodeAppliedResp(resp)
}

// bootstrap ships a unit snapshot under a fresh session: SnapBegin,
// chunked pairs, SnapEnd carrying the base seq the tail resumes from.
// The export is copied out under the store's read lock before any
// network send, so writers are never blocked behind the backup.
func (sh *Shipper) bootstrap(backup int, session uint64, base uint64) error {
	cli, err := sh.opts.Dial(backup)
	if err != nil {
		return err
	}
	if _, err := cli.Call(MethodSnapBegin, encodeSnapBegin(sh.streamID(), session)); err != nil {
		return err
	}
	var pairs []kvstore.Mutation
	err = sh.opts.Snapshot(func(k, v []byte) bool {
		pairs = append(pairs, kvstore.Mutation{
			Key:   append([]byte(nil), k...),
			Value: append([]byte(nil), v...),
		})
		return true
	})
	if err != nil {
		return err
	}
	for off := 0; off < len(pairs); off += sh.opts.SnapChunk {
		end := off + sh.opts.SnapChunk
		if end > len(pairs) {
			end = len(pairs)
		}
		if _, err := cli.Call(MethodSnapChunk, encodeSnapChunk(sh.streamID(), session, pairs[off:end])); err != nil {
			return err
		}
	}
	if _, err := cli.Call(MethodSnapEnd, encodeSnapEnd(sh.streamID(), session, base)); err != nil {
		return err
	}
	return nil
}
