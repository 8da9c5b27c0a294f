package client

import (
	crand "crypto/rand"
	"encoding/binary"
	"sync"
	"sync/atomic"
	"time"

	"origami/internal/lease"
	"origami/internal/mds"
	"origami/internal/namespace"
	"origami/internal/rpc"
	"origami/internal/telemetry"
)

// Every namespace mutation leaves the SDK as a sub-op of a MethodBatch
// frame; the shard applies a frame as a single atomic WAL batch record,
// so the commit pipeline charges one ack wait for the whole frame. With
// Config.BatchWindow at 0 or 1 each op is a frame of its own, sent inline
// on the caller's goroutine. A larger window turns on pipelined
// submission: concurrent mutations bound for the same owner MDS coalesce
// into one frame — this is what lets the async commit mode amortise its
// durability window across many ops.
//
// The coalescer is self-clocking, the same leader/follower discipline WAL
// group commit uses: an op arriving when no frame is in flight for its
// owner leads a frame immediately (a lone op never lingers), and ops
// arriving while that frame is on the wire queue up and ride the next
// one — frame size adapts to load with no linger-delay tuning.
//
// Every sub-op carries a (clientID, opID) identity, fixed for the life of
// the SDK operation. A frame that dies on the wire is re-sent once — to
// the map's current owner, which after a failover is the promoted backup
// — and the shard's replay table (or the namespace itself, via EEXIST +
// lookup) deduplicates ops an earlier attempt already applied.

// batchOutcome is what one submitted op's waiter receives.
type batchOutcome struct {
	res    mds.BatchResult
	grants []lease.Grant
	err    error // frame-level failure (transport, decode)
	resent bool  // the frame was re-sent after a transport failure
}

type pendingOp struct {
	tc     telemetry.SpanContext // the submitting SDK operation's span
	sub    rpc.Wire              // the encoded sub-op
	parent namespace.Ino
	done   chan batchOutcome
	// grants is the waiter's own copy of its frame's grant trailer, so
	// nothing a waiter reads is shared with the frame or its siblings.
	grants []lease.Grant
}

// pendingOpPool recycles ops — their 1-slot channels and their sub-op and
// grant buffers: every mutation uses one, and the closed-loop benchmarks
// showed the allocator on the hot path. An op is returned only after its
// outcome was received and consumed (submit), so the channel is always
// drained when reused.
var pendingOpPool = sync.Pool{
	New: func() any { return &pendingOp{done: make(chan batchOutcome, 1)} },
}

// batcher is shared by a root client and all its forks (they share the
// transports, so their ops can share frames — this is what makes many
// sequential workers coalesce). Counters and the op-ID sequence are the
// batcher's; caches stay per-fork, so flush delivers grants to each
// waiter instead of touching any cache itself.
type batcher struct {
	c        *Client // root client owning the shared transports
	window   int
	target   int // queue depth that spawns an extra leader frame
	clientID uint64
	opSeq    atomic.Uint64

	frames  atomic.Int64       // MethodBatch frames sent (incl. re-sends)
	ops     atomic.Int64       // sub-ops carried by those frames
	framesC *telemetry.Counter // client.batch.frames

	mu      sync.Mutex
	queues  map[int][]*pendingOp
	leading map[int]int // leader frames in flight per owner
}

func newBatcher(c *Client, window int) *batcher {
	target := window
	if target > 16 {
		// Medium frames beat maximal ones: a frame's sub-ops usually touch
		// distinct directories, so a huge frame locks most of the shard's
		// stripes and serialises against every other frame. ~16 ops keeps
		// per-frame overhead amortised while leaving stripe-level
		// concurrency for the frames pipelined behind it.
		target = 16
	}
	return &batcher{
		c:        c,
		window:   window,
		target:   target,
		clientID: newBatchClientID(),
		framesC:  c.reg.Counter("client.batch.frames"),
		queues:   make(map[int][]*pendingOp),
		leading:  make(map[int]int),
	}
}

// maxLeadFrames bounds the leader frames concurrently on the wire per
// owner. One frame per owner keeps frames maximally full but lets the
// shard idle between frames (decode/fan-out/re-encode happen on the
// client while the server waits); a few concurrent frames pipeline the
// connection the same way the server's concurrent dispatch intends.
const maxLeadFrames = 3

// newBatchClientID draws a random non-zero replay identity; two clients
// sharing an ID could eat each other's replay answers, so collision
// space matters more than predictability.
func newBatchClientID() uint64 {
	var b [8]byte
	if _, err := crand.Read(b[:]); err == nil {
		if id := binary.BigEndian.Uint64(b[:]); id != 0 {
			return id
		}
	}
	return uint64(time.Now().UnixNano()) | 1
}

func (b *batcher) nextOpID() uint64 { return b.opSeq.Add(1) }

// do submits op, bound for owner, and blocks until its frame completes.
// Without a window every op is a frame of its own, sent inline. With one,
// an op arriving when no frame is in flight for the owner leads a frame
// immediately; otherwise it queues and rides the next frame (dispatched
// by the leader's completion drain). A full window always flushes inline,
// concurrently with any leader frame.
//
// A queued op never waits without a leader, so it needs no timer: do
// queues an op only while leading[owner] > 0, under b.mu, and a leader
// gives up leadership only after re-reading the queue under b.mu and
// finding it empty. So every queued op is taken by a leader still in
// flight, or by a full window's inline flush.
func (b *batcher) do(owner int, op *pendingOp) batchOutcome {
	if b.window <= 1 {
		one := [1]*pendingOp{op}
		b.flush(owner, one[:])
		return <-op.done
	}
	b.mu.Lock()
	q := append(b.queues[owner], op)
	switch {
	case len(q) >= b.window:
		delete(b.queues, owner)
		b.mu.Unlock()
		b.flush(owner, q)
	case b.leading[owner] == 0 || (b.leading[owner] < maxLeadFrames && len(q) >= b.target):
		// Idle owner: lead immediately, a lone op never lingers. Loaded
		// owner: each time the queue reaches a frame's worth, an extra
		// leader takes it, so several medium frames pipeline on the wire.
		b.leading[owner]++
		delete(b.queues, owner)
		b.mu.Unlock()
		go b.lead(owner, q)
	default:
		b.queues[owner] = q
		b.mu.Unlock()
	}
	return <-op.done
}

// lead sends frames for owner until its queue drains: flush, then take
// whatever queued while the frame was on the wire as the next frame.
// Leadership is released only when the queue is empty, preserving the
// invariant that a queued op always has a leader about to drain it.
func (b *batcher) lead(owner int, q []*pendingOp) {
	for {
		b.flush(owner, q)
		b.mu.Lock()
		q = b.queues[owner]
		if len(q) == 0 {
			b.leading[owner]--
			b.mu.Unlock()
			return
		}
		delete(b.queues, owner)
		b.mu.Unlock()
	}
}

// flush sends one MethodBatch frame and fans results out to the waiters.
// The frame travels under its leading op's span, so that op's trace
// keeps its server-side children. The frame is built in, and answered
// into, a recycled scratch: the decoded results reference neither.
func (b *batcher) flush(owner int, ops []*pendingOp) {
	sc := scratchPool.Get().(*scratch)
	defer scratchPool.Put(sc)
	var one [1][]byte // a frame of one stays off the heap
	subs := one[:0]
	for _, op := range ops {
		subs = append(subs, op.sub.Bytes())
	}
	tc := ops[0].tc
	sc.req.Reset()
	mds.AppendBatchRequest(&sc.req, b.clientID, subs)
	frame := sc.req.Bytes()
	b.frames.Add(1)
	b.ops.Add(int64(len(ops)))
	b.framesC.Inc()
	body, err := b.c.call(tc, owner, mds.MethodBatch, frame, sc.resp[:0])
	resent := false
	if err != nil && rpc.IsRetryable(err) {
		// The owner may be mid-failover. Refresh the map and re-send the
		// SAME frame (same op IDs) once to whoever owns the first op's
		// directory now; the shard's replay table answers any op the
		// first attempt already applied.
		time.Sleep(b.c.cfg.RetryBackoff)
		_ = b.c.refreshMap(tc)
		target := owner
		if p, ok := b.c.pinOf(ops[0].parent); ok {
			target = p
		}
		resent = true
		b.frames.Add(1)
		b.c.reg.Counter("client.batch.resends").Inc()
		body, err = b.c.call(tc, target, mds.MethodBatch, frame, sc.resp[:0])
	}
	var oneResult [1]mds.BatchResult
	var fewGrants [2]lease.Grant
	results, grants := oneResult[:0], fewGrants[:0]
	if err == nil {
		sc.resp = body
		results, grants, err = mds.DecodeBatchResponseInto(results, grants, body)
		if err == nil && len(results) != len(ops) {
			err = rpc.ErrTruncated
		}
	}
	for i, op := range ops {
		if err != nil {
			op.done <- batchOutcome{err: err, resent: resent}
			continue
		}
		if results[i].Replayed {
			b.c.reg.Counter("client.batch.replays").Inc()
		}
		op.grants = append(op.grants[:0], grants...)
		op.done <- batchOutcome{res: results[i], grants: op.grants, resent: resent}
	}
}

// submit sends one sub-op to owner and returns its verdict: the result
// inode (nil for a remove) when it applied, otherwise the frame's
// transport failure or the op's coded error. An applied op also patches
// the lease cache under the grants that rode its response: the inode the
// shard now stores under its name, or — nothing stored, a remove — the
// op's name as a proven negative. lost accumulates, across the retries of
// one SDK operation, whether any attempt may have reached a shard before
// its connection died — the caller then reads EEXIST/ENOENT as the echo
// of its own earlier write.
func (c *Client) submit(tc telemetry.SpanContext, owner int, so *mds.SubOp, lost *bool) (*namespace.Inode, error) {
	op := pendingOpPool.Get().(*pendingOp)
	op.tc, op.parent = tc, so.Dir()
	op.sub.Reset()
	so.AppendTo(&op.sub)
	out := c.batch.do(owner, op)
	defer pendingOpPool.Put(op)
	if out.resent || rpc.IsRetryable(out.err) {
		*lost = true
	}
	if out.err != nil {
		return nil, out.err
	}
	if out.res.Err != nil {
		return nil, out.res.Err
	}
	c.observeOwnGrants(so, out.grants)
	if in := out.res.Inode; in != nil {
		c.cacheEntry(out.grants, in.Parent, in.Name, in)
	} else if !c.cacheEntry(out.grants, so.Parent, so.Name, nil) && c.cache != nil {
		// No grant vouched the negative: the name is gone all the same.
		// Dropping it also ends the directory's completeness, which an
		// admitted negative keeps.
		c.cache.DropEntry(so.Parent, so.Name)
	}
	return out.res.Inode, nil
}

// observeOwnGrants folds a mutation's grant trailer into the cache. The
// directories so wrote adopt their own bump (epoch+1, cache intact); the
// frame's other grants are the bumps of sibling ops — other forks' or
// other goroutines' — and are foreign news to this cache.
func (c *Client) observeOwnGrants(so *mds.SubOp, grants []lease.Grant) {
	if c.cache == nil {
		return
	}
	for _, g := range grants {
		if g.Dir == so.Dir() || (so.Kind == mds.BatchOpRename && g.Dir == so.DstParent) {
			c.cache.ObserveMutation(g)
		} else {
			c.cache.Observe(g)
		}
	}
}

// cacheEntry patches (dir, name) in the lease cache under the grant for
// dir that rode the mutation's response: in when the entry now exists,
// a negative when in is nil (the name is proven absent). It reports
// whether the cache admitted the patch.
func (c *Client) cacheEntry(grants []lease.Grant, dir namespace.Ino, name string, in *namespace.Inode) bool {
	if c.cache == nil {
		return false
	}
	admitted := false
	for _, g := range grants {
		switch {
		case g.Dir != dir:
		case in != nil:
			admitted = c.cache.Put(g, name, in) || admitted
		default:
			admitted = c.cache.PutNegative(g, name) || admitted
		}
	}
	return admitted
}

// lookupOwn fetches (parent, name) from its owner with a one-component
// resolve: the entry behind a replayed create's EEXIST (this client's own
// earlier write), or the source inode of a cross-shard rename. A name the
// owner proves absent fails with ENOENT, as the owner's own error would.
func (c *Client) lookupOwn(tc telemetry.SpanContext, owner int, parent namespace.Ino, name string) (*namespace.Inode, error) {
	var lw rpc.Wire
	lw.U64(uint64(parent)).U32(1).Str(name)
	body, err := c.callIdem(tc, owner, mds.MethodResolvePath, lw.Bytes(), nil)
	if err != nil {
		return nil, err
	}
	chain, err := decodeInodes(rpc.NewReader(body))
	if err != nil {
		return nil, err
	}
	if len(chain) == 0 {
		return nil, &rpc.RemoteError{Method: mds.MethodResolvePath,
			Msg: mds.CodedError(mds.CodeNoEnt, "%q not in dir %d", name, parent).Error()}
	}
	return chain[0], nil
}
