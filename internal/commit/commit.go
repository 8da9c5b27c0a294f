// Package commit is the single place that answers "when is a write
// acknowledged, and what does that acknowledgement promise". A Pipeline
// is one policy object that the kvstore write path consults on every
// committed mutation: the store offers it a local fsync wait and a
// replication ack wait, and the policy alone decides which gate the ack.
//
// Three policies exist:
//
//	sync-fsync  ack after the local WAL fsync (group commit). The
//	            default: durability = the local disk.
//	sync-repl   ack after the backup replica applied the record; the
//	            local fsync runs on the background syncer, off the
//	            critical path. Durability = the replication domain.
//	async       ack from the memtable immediately, bounded by an
//	            in-flight window; replication (or the local fsync)
//	            completes in the background. A crash can lose at most
//	            the window's worth of acknowledged writes.
//
// A cluster (server.StartClusterConfig) always turns the store's
// SyncWAL on in the two sync modes, so their local wait exists; async
// is the one mode that runs with whatever SyncWAL its caller chose, and
// without it an async write is never fsynced by its own path.
//
// The pipeline also owns the commit telemetry vocabulary
// (commit.ops.acked, commit.ops.durable, commit.window.inflight,
// commit.ops.replayed, commit.durable.errors), so every mode reports
// ack/durability progress the same way.
package commit

import (
	"context"
	"fmt"
	"sync"
	"time"

	"origami/internal/telemetry"
)

// Mode selects a durability policy.
type Mode int

const (
	// SyncFsync acknowledges after the local WAL fsync (group commit).
	SyncFsync Mode = iota
	// SyncRepl acknowledges after the backup replica applied the write.
	SyncRepl
	// Async acknowledges from the memtable under a bounded in-flight
	// window; durability completes in the background.
	Async
)

// ModeNames lists the accepted textual mode names, in flag-help order.
var ModeNames = []string{"sync-fsync", "sync-repl", "async"}

// ParseMode maps a textual policy name ("sync-fsync", "sync-repl",
// "async") to its Mode. The empty string is sync-fsync, the historical
// default.
func ParseMode(s string) (Mode, error) {
	switch s {
	case "", "sync-fsync":
		return SyncFsync, nil
	case "sync-repl":
		return SyncRepl, nil
	case "async":
		return Async, nil
	}
	return SyncFsync, fmt.Errorf("commit: unknown mode %q (want sync-fsync, sync-repl, or async)", s)
}

func (m Mode) String() string {
	switch m {
	case SyncRepl:
		return "sync-repl"
	case Async:
		return "async"
	}
	return "sync-fsync"
}

// DefaultWindow is the async in-flight bound when none is configured:
// at most this many acknowledged-but-not-yet-durable writes exist at
// once, which is also the loss window a crash can open.
const DefaultWindow = 128

// Pipeline applies one durability policy to every committed write. It
// implements the kvstore's Committer interface: the store calls Commit
// with two optional waits — local (the group-commit fsync covering the
// record) and repl (the replication ack for the record) — and the
// pipeline decides which of them gate the acknowledgement.
//
// A Pipeline is safe for concurrent use. Background completions (async
// mode) are tracked; Drain blocks until all of them finish.
type Pipeline struct {
	mode   Mode
	window int
	slots  chan struct{} // async in-flight window (nil unless Async)

	wg sync.WaitGroup

	// Background local-fsync coalescer. WAL group-commit waits are
	// cumulative — completing a later record's wait implies every earlier
	// record is durable — so at most one background fsync wait runs at a
	// time: lwait holds the latest (and therefore covering) wait, ldone
	// the completion callbacks of every record it covers. Without this,
	// every async/sync-repl write would lead its own group commit and the
	// fsync rate would approach the write rate.
	lmu      sync.Mutex
	lwait    func() error
	ldone    []func(error)
	lrunning bool

	acked    *telemetry.Counter
	durable  *telemetry.Counter
	replayed *telemetry.Counter
	durErrs  *telemetry.Counter
	inflight *telemetry.Gauge
}

// NewPipeline builds a pipeline for one mode. window bounds the async
// in-flight set (<= 0 takes DefaultWindow; ignored by the sync modes).
// reg receives the commit.* telemetry; nil metrics are dropped.
func NewPipeline(mode Mode, window int, reg *telemetry.Registry) *Pipeline {
	if window <= 0 {
		window = DefaultWindow
	}
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	p := &Pipeline{
		mode:     mode,
		window:   window,
		acked:    reg.Counter("commit.ops.acked"),
		durable:  reg.Counter("commit.ops.durable"),
		replayed: reg.Counter("commit.ops.replayed"),
		durErrs:  reg.Counter("commit.durable.errors"),
		inflight: reg.Gauge("commit.window.inflight"),
	}
	if mode == Async {
		p.slots = make(chan struct{}, window)
	}
	return p
}

// Mode returns the pipeline's policy.
func (p *Pipeline) Mode() Mode { return p.mode }

// Window returns the async in-flight bound (the loss window).
func (p *Pipeline) Window() int { return p.window }

// Commit gates one write's acknowledgement. local waits for the local
// WAL fsync covering the write (nil when the store already made it
// durable, or when SyncWAL is off — only ever in async mode on a
// cluster). repl waits for the replication ack (nil when no replication
// is attached). Returning nil IS the
// acknowledgement; what it promises depends on the mode. ctx, when
// non-nil, can cancel the async window wait; the kvstore passes nil.
func (p *Pipeline) Commit(ctx context.Context, local, repl func() error) error {
	switch p.mode {
	case SyncRepl:
		// Ack = the backup applied it. The local fsync rides off the
		// critical path on the coalescing background syncer (someone must
		// still lead the group commit, or the WAL would only fsync on
		// memtable flushes); fall back to awaiting it inline only when no
		// replication wait exists (single-node cluster, stopped shipper).
		if repl != nil {
			if err := repl(); err != nil {
				return err
			}
			if local != nil {
				p.enqueueLocal(local, nil)
			}
		} else if local != nil {
			if err := local(); err != nil {
				return err
			}
		}
		p.acked.Inc()
		p.durable.Inc()
		return nil
	case Async:
		// Ack from the memtable, bounded: a slot must be free, which
		// backpressures writers once window acks are in flight. The
		// durability wait completes in the background — replication when
		// attached, else the covering group-commit fsync — and its failure
		// is counted, not returned: the write was already acknowledged,
		// which is exactly the async contract.
		if local == nil && repl == nil {
			p.acked.Inc()
			p.durable.Inc()
			return nil
		}
		select {
		case p.slots <- struct{}{}:
		case <-ctxDone(ctx):
			return ctx.Err()
		}
		p.inflight.Set(float64(len(p.slots)))
		finish := func(err error) {
			if err != nil {
				p.durErrs.Inc()
			} else {
				p.durable.Inc()
			}
			<-p.slots
			p.inflight.Set(float64(len(p.slots)))
		}
		if repl != nil {
			// Durability = the replication domain; the local fsync (if
			// any) rides the coalescer untracked by the window.
			if local != nil {
				p.enqueueLocal(local, nil)
			}
			p.wg.Add(1)
			go func() {
				defer p.wg.Done()
				finish(repl())
			}()
		} else {
			p.enqueueLocal(local, finish)
		}
		p.acked.Inc()
		return nil
	default: // SyncFsync
		// Ack = the local fsync. A replication wait, if any, is not
		// awaited — replication is asynchronous best-effort here.
		if local != nil {
			if err := local(); err != nil {
				return err
			}
		}
		p.acked.Inc()
		p.durable.Inc()
		return nil
	}
}

// Replayed records one deduplicated replay hit: a client retried an
// already-applied operation (same client and op ID) and was answered
// from the replay table instead of re-applying.
func (p *Pipeline) Replayed() { p.replayed.Inc() }

// Drain blocks until every background durability wait has completed.
// Call it before tearing down the replication actors the waits depend
// on (their Stop releases pending acks with an error, so Drain returns
// promptly even mid-failure).
func (p *Pipeline) Drain() { p.wg.Wait() }

// Inflight returns the current async in-flight count (0 in sync modes).
func (p *Pipeline) Inflight() int {
	if p.slots == nil {
		return 0
	}
	return len(p.slots)
}

// enqueueLocal hands one local durability wait to the background
// coalescer. done (nilable) is invoked with the covering wait's result
// once it completes; a nil done only counts failures. Because a later
// record's group-commit wait covers every earlier record, only the
// newest wait is ever executed — all queued callbacks complete on its
// result.
func (p *Pipeline) enqueueLocal(wait func() error, done func(error)) {
	p.lmu.Lock()
	p.lwait = wait
	if done != nil {
		p.ldone = append(p.ldone, done)
	}
	if !p.lrunning {
		p.lrunning = true
		p.wg.Add(1)
		go p.runLocal()
	}
	p.lmu.Unlock()
}

// localSyncPause is the background syncer's batching window. Each cycle
// sleeps this long BEFORE executing the newest pending wait, for two
// reasons: waits that arrive during the sleep are absorbed into one
// group-commit fsync (without it, a low-rate writer gets one fsync per
// record), and the file is free of an in-flight fsync most of the time
// — on most filesystems an append to a file being fsynced blocks on
// the inode, which would put the fsync right back on the ack path the
// async mode exists to avoid. The cost is that much extra durability
// lag, which the async loss window already budgets for.
const localSyncPause = time.Millisecond

// runLocal is the coalescing background syncer: each cycle lets waits
// accumulate for localSyncPause, takes the newest one (which covers
// everything queued before it), executes it, and completes every
// covered callback.
func (p *Pipeline) runLocal() {
	defer p.wg.Done()
	for {
		time.Sleep(localSyncPause)
		p.lmu.Lock()
		wait := p.lwait
		dones := p.ldone
		p.lwait, p.ldone = nil, nil
		if wait == nil {
			p.lrunning = false
			p.lmu.Unlock()
			return
		}
		p.lmu.Unlock()
		err := wait()
		if err != nil && len(dones) == 0 {
			p.durErrs.Inc()
		}
		for _, d := range dones {
			d(err)
		}
	}
}

// ctxDone tolerates a nil ctx, which is what the kvstore write path
// always passes: a nil channel never fires, so a nil ctx never cancels
// the window wait.
func ctxDone(ctx context.Context) <-chan struct{} {
	if ctx == nil {
		return nil
	}
	return ctx.Done()
}
