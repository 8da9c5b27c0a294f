// Package client is the OrigamiFS SDK (§4.2): it converts file-system
// calls into metadata RPCs against the MDS cluster, resolving paths
// recursively, following fake-inode redirects left by migrations, and
// short-circuiting resolution through the lease-coherent dentry cache —
// a warm Stat (positive or negative) or Readdir costs zero RPCs, a warm
// Create exactly one.
package client

import (
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"origami/internal/lease"
	"origami/internal/mds"
	"origami/internal/namespace"
	"origami/internal/rpc"
	"origami/internal/telemetry"
)

// Config configures a client.
type Config struct {
	// Addrs lists the MDS addresses; the index is the MDS id and index 0
	// must be MDS 0 (the map authority).
	Addrs []string
	// Cache selects the metadata cache mode: "leases" (default, also
	// the empty string) enables the lease-coherent dentry/inode cache,
	// "off" disables client-side caching entirely (every resolution
	// goes to the servers).
	Cache string
	// CallTimeout bounds each metadata RPC (0 = no deadline). Timed-out
	// idempotent reads are retried against the reconnecting transport.
	CallTimeout time.Duration
	// RetryBudget is the maximum transport-failure retries per
	// idempotent RPC (default 3; negative disables retries).
	RetryBudget int
	// RetryBackoff is the base delay between such retries, doubled each
	// attempt (default 10ms).
	RetryBackoff time.Duration
	// Registry receives the SDK's telemetry (per-op end-to-end latency,
	// RPC-layer metrics, retry spend). Nil allocates a private one,
	// reachable via Client.Registry.
	Registry *telemetry.Registry
	// LinkInjector, when non-nil, supplies a fault injector for the
	// connection to each MDS id — how chaos harnesses extend cluster
	// partitions and lossy links to the data plane (see
	// server.Cluster.ClientInjector).
	LinkInjector func(mdsID int) rpc.FaultInjector
	// TraceSampleRate is the head-sampling rate of the SDK's span tracer
	// (0 = record everything; negative disables span collection). The
	// sampling decision is a pure function of the trace ID, so client and
	// servers agree on which traces to keep.
	TraceSampleRate float64
	// SlowOpThreshold is the always-keep-slow span cutoff (0 = the
	// telemetry default; negative disables slow-op capture).
	SlowOpThreshold time.Duration
	// BatchWindow enables pipelined submission when > 1: up to this many
	// concurrent mutations bound for the same owner MDS coalesce into one
	// MethodBatch frame (applied there as one atomic WAL batch record).
	// 0 or 1 sends every mutation as a frame of its own.
	BatchWindow int
}

func (c Config) withDefaults() Config {
	if c.RetryBudget == 0 {
		c.RetryBudget = 3
	}
	if c.RetryBackoff <= 0 {
		c.RetryBackoff = 10 * time.Millisecond
	}
	if c.Cache == "" {
		c.Cache = "leases"
	}
	return c
}

// Client is an OrigamiFS SDK handle. It is safe for concurrent use.
//
// Every *namespace.Inode it returns — from Stat, Readdir, Resolve,
// Create, Mkdir and Setattr — is shared with its lease cache, and so
// with every later call that hits the same entry: it is read-only.
// Copy an inode before changing a field. The slice Readdir returns is
// shared the same way.
type Client struct {
	cfg    Config
	conns  []*rpc.Client
	reg    *telemetry.Registry
	log    *telemetry.Logger
	tracer *telemetry.Tracer

	// cache is the lease-coherent dentry/inode cache (nil when the
	// cache mode is "off"). Coherence is driven by the grant trailers
	// owner-served responses carry; see internal/lease.
	cache *lease.ClientCache

	// batch frames every mutation into MethodBatch frames (one op per
	// frame unless BatchWindow turns coalescing on). Forks share the
	// root's batcher — their ops ride the same frames — while keeping
	// their own caches.
	batch *batcher

	// ops holds the per-operation metric handles, resolved on an
	// operation's first use and shared with every fork.
	ops *[numOps]atomic.Pointer[opMetrics]

	// forked marks a virtual client made by Fork: it shares the parent's
	// transports (Close must not tear them down) but owns its cache,
	// map view, and counters.
	forked bool

	// lastTrace is the trace ID of the most recently started SDK
	// operation — what `origami-cli trace last` resolves.
	lastTrace atomic.Uint64

	mu         sync.Mutex
	pins       map[namespace.Ino]int
	mapVersion uint64

	// mapSeen is the newest map version a response trailer announced and
	// a background refresh was started for; bg counts those refreshes so
	// Close can wait them out.
	mapSeen atomic.Uint64
	bg      sync.WaitGroup

	// RPCCount tallies issued metadata RPCs (for RPC-per-op metrics).
	RPCCount atomic.Int64
	// Ops tallies completed SDK operations.
	Ops atomic.Int64
	// Retries tallies transport-failure retries of idempotent RPCs.
	Retries atomic.Int64
	// RetriesExhausted tallies idempotent RPCs that failed even after
	// spending the whole retry budget.
	RetriesExhausted atomic.Int64
}

// Stats is a snapshot of the client's counters.
type Stats struct {
	RPCs             int64
	Ops              int64
	Retries          int64
	RetriesExhausted int64
	// BatchFrames counts MethodBatch wire frames sent and BatchedOps the
	// sub-ops they carried — shared across a root client and its forks
	// (frames coalesce across them). RPC-per-op accounting must use
	// these: each frame is one RPC carrying many ops.
	BatchFrames int64
	BatchedOps  int64
}

// Stats snapshots the client counters, including the retry budget spend.
func (c *Client) Stats() Stats {
	return Stats{
		RPCs:             c.RPCCount.Load(),
		Ops:              c.Ops.Load(),
		Retries:          c.Retries.Load(),
		RetriesExhausted: c.RetriesExhausted.Load(),
		BatchFrames:      c.batch.frames.Load(),
		BatchedOps:       c.batch.ops.Load(),
	}
}

// Dial connects to every MDS in the cluster. Connections redial
// automatically after a drop; idempotent reads additionally retry with
// backoff inside the configured budget.
func Dial(cfg Config) (*Client, error) {
	if len(cfg.Addrs) == 0 {
		return nil, fmt.Errorf("client: no MDS addresses")
	}
	cfg = cfg.withDefaults()
	reg := cfg.Registry
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	c := &Client{
		cfg:  cfg,
		reg:  reg,
		log:  telemetry.L("client"),
		ops:  new([numOps]atomic.Pointer[opMetrics]),
		pins: make(map[namespace.Ino]int),
	}
	if cfg.Cache != "off" {
		c.cache = lease.NewClientCache(reg)
	}
	c.batch = newBatcher(c, cfg.BatchWindow)
	if cfg.TraceSampleRate >= 0 {
		c.tracer = telemetry.NewTracer("client", telemetry.TracerConfig{
			SampleRate:    cfg.TraceSampleRate,
			SlowThreshold: cfg.SlowOpThreshold,
			Registry:      reg,
		})
	}
	// Lazy dial: an MDS that is down at SDK start (crashed, mid-failover)
	// must not block the whole mount — its connection comes up when the
	// shard returns, and the partition map routes around it meanwhile.
	for i, addr := range cfg.Addrs {
		opts := rpc.ClientOptions{
			CallTimeout: cfg.CallTimeout,
			Reconnect:   true,
			BackoffBase: 5 * time.Millisecond,
			Registry:    reg,
			MethodName:  mds.MethodName,
			Logger:      telemetry.L("rpc").With("mds", i),
		}
		if cfg.LinkInjector != nil {
			opts.Injector = cfg.LinkInjector(i)
		}
		conn, err := rpc.DialLazyOptions(addr, opts)
		if err != nil {
			c.Close()
			return nil, err
		}
		c.conns = append(c.conns, conn)
	}
	return c, nil
}

// Fork returns a virtual client that shares this client's transports
// but owns its cache, partition-map view, and counters — how one
// process runs many closed-loop workers, each a client of its own,
// without a TCP connection apiece (the rpc layer is safe for concurrent
// callers). Closing a fork is a no-op on the shared connections; close
// the parent to tear them down.
func (c *Client) Fork() *Client {
	n := &Client{
		cfg:    c.cfg,
		conns:  c.conns,
		reg:    c.reg,
		log:    c.log,
		tracer: c.tracer,
		ops:    c.ops,
		batch:  c.batch,
		forked: true,
	}
	if c.cache != nil {
		n.cache = c.cache.Fork()
	}
	c.mu.Lock()
	n.mapVersion = c.mapVersion
	n.pins = make(map[namespace.Ino]int, len(c.pins))
	for k, v := range c.pins {
		n.pins[k] = v
	}
	c.mu.Unlock()
	return n
}

// Registry exposes the client's telemetry registry.
func (c *Client) Registry() *telemetry.Registry { return c.reg }

// Cache exposes the lease-coherent dentry cache (nil in "off" mode).
func (c *Client) Cache() *lease.ClientCache { return c.cache }

// Tracer exposes the SDK's span tracer (nil when tracing is disabled).
func (c *Client) Tracer() *telemetry.Tracer { return c.tracer }

// LastTraceID returns the trace ID of the most recently started SDK
// operation, or 0 when none ran yet.
func (c *Client) LastTraceID() uint64 { return c.lastTrace.Load() }

// NumMDS returns the cluster size the client was dialed against.
func (c *Client) NumMDS() int { return len(c.conns) }

// FetchMetrics pulls one MDS's telemetry registry snapshot as JSON via
// the MethodMetrics RPC (the transport-level twin of the HTTP admin
// /metrics endpoint).
func (c *Client) FetchMetrics(mdsID int) ([]byte, error) {
	return c.callIdem(telemetry.SpanContext{}, mdsID, mds.MethodMetrics, nil, nil)
}

// FetchTraces pulls one MDS's span store via MethodTraces. A non-zero
// traceID selects that trace; zero returns the shard's recent spans.
func (c *Client) FetchTraces(mdsID int, traceID uint64) (telemetry.TraceDump, error) {
	var w rpc.Wire
	w.U64(traceID)
	body, err := c.callIdem(telemetry.SpanContext{}, mdsID, mds.MethodTraces, w.Bytes(), nil)
	if err != nil {
		return telemetry.TraceDump{}, err
	}
	var dump telemetry.TraceDump
	if err := json.Unmarshal(body, &dump); err != nil {
		return telemetry.TraceDump{}, fmt.Errorf("client: decode traces from MDS %d: %w", mdsID, err)
	}
	return dump, nil
}

// FetchBuildInfo pulls one MDS's build info (version, go runtime,
// uptime, enabled features) as JSON via MethodBuildInfo.
func (c *Client) FetchBuildInfo(mdsID int) ([]byte, error) {
	return c.callIdem(telemetry.SpanContext{}, mdsID, mds.MethodBuildInfo, nil, nil)
}

// FetchClusterMetrics pulls the coordinator's merged cluster snapshot
// (every live MDS registry plus the coordinator's own) as JSON via
// MethodClusterMetrics on MDS 0.
func (c *Client) FetchClusterMetrics() ([]byte, error) {
	return c.callIdem(telemetry.SpanContext{}, 0, mds.MethodClusterMetrics, nil, nil)
}

// GatherTrace assembles one distributed trace: the SDK's own spans plus
// the span store of every MDS, merged into a single flat list ready for
// telemetry.AssembleTrace. Shards that fail the fetch are skipped; an
// error is returned only when every shard failed and no local spans
// exist either.
func (c *Client) GatherTrace(traceID uint64) ([]telemetry.Span, error) {
	spans := c.tracer.TraceSpans(traceID)
	var firstErr error
	for i := range c.conns {
		dump, err := c.FetchTraces(i, traceID)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		spans = append(spans, dump.Spans...)
	}
	if len(spans) == 0 && firstErr != nil {
		return nil, firstErr
	}
	return spans, nil
}

// TriggerEpoch asks the coordinator (co-located with MDS 0) for one
// balancing round and returns its JSON summary. Not idempotent — an
// epoch migrates subtrees — so it gets exactly one attempt.
func (c *Client) TriggerEpoch() ([]byte, error) {
	return c.call(telemetry.SpanContext{}, 0, mds.MethodEpochRun, nil, nil)
}

// ModelInfo returns the coordinator's planner and its model status
// (source, version, window rows, fits) as JSON.
func (c *Client) ModelInfo() ([]byte, error) {
	return c.callIdem(telemetry.SpanContext{}, 0, mds.MethodModelInfo, nil, nil)
}

// opKind names an SDK operation for its metrics and spans.
type opKind int

const (
	opStat opKind = iota
	opMkdir
	opCreate
	opRemove
	opReaddir
	opSetattr
	opRename
	numOps
)

var opNames = [numOps]string{"stat", "mkdir", "create", "remove", "readdir", "setattr", "rename"}

// opMetrics are one operation's metric handles and names, built once so
// an operation does not assemble metric names on every call.
type opMetrics struct {
	name, span string
	calls      *telemetry.Counter
	latency    *telemetry.Histogram
	errors     string // counter created by the first error
}

func (c *Client) opMetrics(k opKind) *opMetrics {
	if m := c.ops[k].Load(); m != nil {
		return m
	}
	base := "client.op." + opNames[k]
	m := &opMetrics{
		name:    opNames[k],
		span:    base,
		calls:   c.reg.Counter(base + ".calls"),
		latency: c.reg.Histogram(base + ".latency_ns"),
		errors:  base + ".errors",
	}
	c.ops[k].Store(m) // a racing first use stores the same handles
	return m
}

// opRun is one SDK operation in flight, from op to done.
type opRun struct {
	c     *Client
	m     *opMetrics
	span  *telemetry.ActiveSpan
	start time.Time
	trace uint64
}

// op starts one SDK operation: it mints the operation's trace ID
// (propagated to every MDS the operation touches), opens the root span
// of the operation's trace tree, and returns the span context the
// operation's RPCs carry — a plain value, as on the server's dispatch
// path: nothing cancels an SDK operation, so it needs no context.Context —
// plus the run whose done records end-to-end latency and, at debug
// level, the span.
func (c *Client) op(k opKind) (telemetry.SpanContext, opRun) {
	tc := telemetry.SpanContext{TraceID: telemetry.NewTraceID()}
	c.lastTrace.Store(tc.TraceID)
	m := c.opMetrics(k)
	span := c.tracer.StartSpanFrom(tc, m.span)
	// Sampled: the op's RPCs are children of its root span. Untraced or
	// slow-capture-only, they carry the bare trace ID.
	tc = span.Propagate(tc)
	return tc, opRun{c: c, m: m, span: span, start: time.Now(), trace: tc.TraceID}
}

func (o *opRun) done(err error) {
	c := o.c
	o.span.Finish(err)
	el := time.Since(o.start).Nanoseconds()
	o.m.calls.Inc()
	o.m.latency.Record(el)
	if err != nil {
		c.reg.Counter(o.m.errors).Inc()
	}
	if c.log.Enabled(telemetry.LevelDebug) {
		status := "ok"
		if err != nil {
			status = err.Error()
		}
		c.log.Debug("span",
			"trace", telemetry.FormatTraceID(o.trace),
			"op", o.m.name, "ns", el, "status", status)
	}
}

// Close tears down all connections. Closing a Fork leaves the shared
// transports to the parent. Either way it returns only after the
// client's background map refreshes have finished.
func (c *Client) Close() error {
	defer c.bg.Wait()
	if c.forked {
		return nil
	}
	var err error
	for _, conn := range c.conns {
		if conn != nil {
			if cerr := conn.Close(); err == nil {
				err = cerr
			}
		}
	}
	return err
}

// call issues one RPC to an MDS on behalf of the span tc, appending the
// response to dst (see rpc.CallInto; nil receives it in a buffer of its
// own).
func (c *Client) call(tc telemetry.SpanContext, mdsID int, m rpc.Method, body, dst []byte) ([]byte, error) {
	if mdsID < 0 || mdsID >= len(c.conns) {
		return nil, fmt.Errorf("client: MDS id %d out of range", mdsID)
	}
	c.RPCCount.Add(1)
	return c.conns[mdsID].CallInto(tc, m, body, dst)
}

// scratch is the pair of buffers one RPC of the hot paths is built in and
// answered into. A request body handed to the transport escapes, so it
// cannot live on the stack; recycled, it costs nothing either. Whoever
// takes a scratch decodes the response (no decoder keeps a reference into
// it) before putting it back.
type scratch struct {
	req  rpc.Wire
	resp []byte
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// callIdem issues an idempotent (read-only) RPC, retrying transport
// failures — lost connection, expired deadline — with exponential backoff
// inside the retry budget. Mutations never come through here: they are
// MethodBatch sub-ops, retried under their replay identity (batch.go).
func (c *Client) callIdem(tc telemetry.SpanContext, mdsID int, m rpc.Method, body, dst []byte) ([]byte, error) {
	out, err := c.call(tc, mdsID, m, body, dst)
	if err == nil || !rpc.IsRetryable(err) {
		return out, err
	}
	backoff := c.cfg.RetryBackoff
	for attempt := 0; attempt < c.cfg.RetryBudget; attempt++ {
		time.Sleep(backoff)
		backoff *= 2
		c.Retries.Add(1)
		c.reg.Counter("client.retry.attempts").Inc()
		out, err = c.call(tc, mdsID, m, body, dst)
		if err == nil || !rpc.IsRetryable(err) {
			return out, err
		}
	}
	c.RetriesExhausted.Add(1)
	c.reg.Counter("client.retry.exhausted").Inc()
	return nil, fmt.Errorf("client: MDS %d unreachable after %d retries: %w",
		mdsID, c.cfg.RetryBudget, err)
}

// RefreshMap pulls the partition map from MDS 0.
func (c *Client) RefreshMap() error { return c.refreshMap(telemetry.SpanContext{}) }

func (c *Client) refreshMap(tc telemetry.SpanContext) error {
	body, err := c.callIdem(tc, 0, mds.MethodGetMap, nil, nil)
	if err != nil {
		return err
	}
	version, pins, err := mds.DecodeMap(body)
	if err != nil {
		return err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.mapVersion = version
	c.pins = make(map[namespace.Ino]int, len(pins))
	for _, p := range pins {
		c.pins[p.Ino] = p.MDS
	}
	return nil
}

// MapVersion returns the version of the partition map the client holds.
func (c *Client) MapVersion() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.mapVersion
}

func (c *Client) pinOf(ino namespace.Ino) (int, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	m, ok := c.pins[ino]
	return m, ok
}

// decodeTrailer reads what follows the payload of a read response: the
// lease grants, appended to dst, then the partition-map version the
// serving MDS holds (0 when absent). A caller passes a small buffer of its
// own as dst, so a response vouching for a few directories allocates no
// grant slice.
func decodeTrailer(r *rpc.Reader, dst []lease.Grant) (grants []lease.Grant, mapVersion uint64) {
	grants = lease.DecodeGrants(r, dst)
	if r.Err() == nil && r.Remaining() >= 8 {
		mapVersion = r.U64()
	}
	return grants, mapVersion
}

// sawMapVersion reacts to the map version a response announced. A
// migration publishes a new map, but a client whose calls keep succeeding
// on the old owners — the fake-inode redirects keep answering — never
// hits the not-owner or transport errors that force a refresh, so without
// this it would learn the new owners only by accident. When v is ahead of
// the client's own map, one refresh per version runs off the op's
// critical path.
func (c *Client) sawMapVersion(v uint64) {
	for {
		seen := c.mapSeen.Load()
		if v <= seen {
			return
		}
		if c.mapSeen.CompareAndSwap(seen, v) {
			break
		}
	}
	if v <= c.MapVersion() {
		return
	}
	c.bg.Add(1)
	go func() {
		defer c.bg.Done()
		if err := c.refreshMap(telemetry.SpanContext{}); err != nil || c.MapVersion() < v {
			// MDS 0 unreachable or itself behind: let a later response
			// with this version try again.
			c.mapSeen.CompareAndSwap(v, 0)
		}
	}()
}

// observeGrants folds a read response's grant trailer into the cache.
func (c *Client) observeGrants(grants []lease.Grant) {
	if c.cache == nil {
		return
	}
	for _, g := range grants {
		c.cache.Observe(g)
	}
}

// decodeInode extracts the inode of a single-inode response, ignoring
// whatever trailer follows it.
func decodeInode(body []byte) (*namespace.Inode, error) {
	r := rpc.NewReader(body)
	blob := r.Blob()
	if err := r.Err(); err != nil {
		return nil, err
	}
	return namespace.DecodeInode(blob)
}

// decodeInodes reads an inode list — a count, then one record blob each.
// Whatever the count, it makes three allocations: the inodes share one
// slab, the pointers one slice and the names one string. The first pass
// validates every record and sums the name lengths, so a malformed body
// allocates nothing; the second decodes.
func decodeInodes(r *rpc.Reader) ([]*namespace.Inode, error) {
	n := int(r.U32())
	if err := r.Err(); err != nil {
		return nil, err
	}
	first := *r
	var scan namespace.Inode
	total := 0
	for i := 0; i < n; i++ {
		blob := r.Blob()
		if err := r.Err(); err != nil {
			return nil, err
		}
		name, err := namespace.DecodeInodeInto(&scan, blob)
		if err != nil {
			return nil, err
		}
		total += len(name)
	}
	slab := make([]namespace.Inode, n)
	out := make([]*namespace.Inode, n)
	var names strings.Builder
	names.Grow(total)
	for i := range slab {
		name, _ := namespace.DecodeInodeInto(&slab[i], first.Blob()) // validated above
		start := names.Len()
		names.Write(name)
		// The builder never regrows past Grow(total), so every name is a
		// view of the one string the listing shares.
		slab[i].Name = names.String()[start:]
		out[i] = &slab[i]
	}
	return out, nil
}

// resolveResult is one MethodResolvePath response: the resolved chain,
// whether the walk ended at an authoritative miss (the remaining path
// does not exist), and the lease grants that rode along.
type resolveResult struct {
	chain    []*namespace.Inode
	negative bool
	grants   []lease.Grant
}

// resolveAt resolves the components of rest — a run of them under parent
// — in one RPC, following not-owner redirects by refreshing the partition
// map. The response's grants are appended to grants, the caller's buffer:
// the scratch the response arrives in goes back to the pool on return.
func (c *Client) resolveAt(tc telemetry.SpanContext, owner int, parent namespace.Ino, rest string, grants []lease.Grant) (resolveResult, int, error) {
	sc := scratchPool.Get().(*scratch)
	defer scratchPool.Put(sc)
	w := &sc.req
	w.Reset()
	w.U64(uint64(parent))
	count := w.BeginBlob() // patched into the component count below
	n := uint32(0)
	for off := 0; ; n++ {
		name, end, ok := namespace.NextComponent(rest, off)
		if !ok {
			break
		}
		w.Str(name)
		off = end
	}
	w.PatchU32(count, n)
	for attempt := 0; attempt < 4; attempt++ {
		body, err := c.callIdem(tc, owner, mds.MethodResolvePath, w.Bytes(), sc.resp[:0])
		if err != nil {
			if mds.IsNotOwner(err) {
				if rerr := c.refreshMap(tc); rerr != nil {
					return resolveResult{}, 0, rerr
				}
				if p, ok := c.pinOf(parent); ok && p != owner {
					owner = p
					continue
				}
			}
			return resolveResult{}, 0, err
		}
		sc.resp = body
		r := rpc.NewReader(body)
		var res resolveResult
		if res.chain, err = decodeInodes(r); err != nil {
			return resolveResult{}, 0, err
		}
		res.negative = r.U8() == 1
		if err := r.Err(); err != nil {
			return resolveResult{}, 0, err
		}
		var mapVersion uint64
		res.grants, mapVersion = decodeTrailer(r, grants)
		c.sawMapVersion(mapVersion)
		return res, owner, nil
	}
	return resolveResult{}, 0, fmt.Errorf("client: resolve-path under %d: retries exhausted", parent)
}

// Resolve walks path from the root, returning the chain of inodes
// (root included) and the owning MDS of the final component. Resolution
// is batched: each RPC resolves as many components as the contacted shard
// holds, so a path costs one RPC per ownership run (the m of Eq. 2), not
// one per component — and zero RPCs when the lease cache holds the whole
// chain.
func (c *Client) Resolve(path string) ([]*namespace.Inode, int, error) {
	var chain []*namespace.Inode
	_, owner, err := c.resolvePath(telemetry.SpanContext{}, path, &chain)
	return chain, owner, err
}

// rootInode is where every walk starts. It is shared and never handed
// out: a walk that ends at the root returns a copy.
var rootInode = &namespace.Inode{Ino: namespace.RootIno, Type: namespace.TypeDir}

// resolvePath walks path and returns its last inode and that inode's
// owner; chain, when non-nil, also collects every inode on the way (root
// first). The path is walked in place: its cached prefix in one cache
// walk, the rest one ownership run per RPC.
func (c *Client) resolvePath(tc telemetry.SpanContext, path string, chain *[]*namespace.Inode) (*namespace.Inode, int, error) {
	cur := rootInode
	step := func(in *namespace.Inode) {
		if chain != nil {
			*chain = append(*chain, in)
		}
		cur = in
	}
	if chain != nil {
		root := *rootInode
		*chain = append(*chain, &root)
	}
	// Cached prefix — including the final component: the lease protocol
	// keeps these entries coherent (within the TTL staleness bound), so
	// a fully warm path costs zero RPCs, negatives included.
	var prefix [16]*namespace.Inode
	walked, end, negative := prefix[:0], 0, false
	if c.cache != nil {
		walked, end, negative = c.cache.Walk(namespace.RootIno, path, walked)
	}
	for _, in := range walked {
		step(in)
	}
	// name is the next unresolved component, ending at byte end of path.
	name, end, more := namespace.NextComponent(path, end)
	if negative {
		return nil, 0, fmt.Errorf("client: resolve %q at %q: %s",
			path, name, mds.CodedError(mds.CodeNoEnt, "%q not in dir %d (cached)", name, cur.Ino))
	}
	// The deepest pinned directory on the way owns what follows it; the
	// root's pin, or MDS 0, until one is.
	owner := 0
	c.mu.Lock()
	if p, ok := c.pins[namespace.RootIno]; ok {
		owner = p
	}
	for _, in := range walked {
		if p, ok := c.pins[in.Ino]; ok {
			owner = p
		}
	}
	c.mu.Unlock()
	// Each resolve response's grants are decoded into this buffer; a
	// response rarely vouches for more than four directories.
	var fewGrants [4]lease.Grant
	for more {
		if !cur.IsDir() {
			return nil, 0, fmt.Errorf("client: resolve %q: %w", path, errNotDir)
		}
		if p, ok := c.pinOf(cur.Ino); ok {
			owner = p
		}
		res, newOwner, err := c.resolveAt(tc, owner, cur.Ino, path[end-len(name):], fewGrants[:0])
		if err != nil {
			return nil, 0, fmt.Errorf("client: resolve %q at %q: %w", path, name, err)
		}
		owner = newOwner
		// Fold the grants in before seeding: each Put below is vouched
		// by the grant that rode this same response.
		c.observeGrants(res.grants)
		grantOf := func(dir namespace.Ino) (lease.Grant, bool) {
			for _, g := range res.grants {
				if g.Dir == dir {
					return g, true
				}
			}
			return lease.Grant{}, false
		}
		if len(res.chain) == 0 && !res.negative {
			return nil, 0, fmt.Errorf("client: resolve %q: empty chain at %q", path, name)
		}
		for _, in := range res.chain {
			if !more {
				return nil, 0, fmt.Errorf("client: resolve %q: chain longer than the path", path)
			}
			if in.Type == namespace.TypeFake {
				// Follow the migration redirect for this component. The
				// partition map wins over the redirect payload when both
				// know the inode: after a failover the fake inode still
				// names the dead MDS while the map points at the promotee.
				dest := int(in.Size)
				if p, ok := c.pinOf(in.Ino); ok {
					dest = p
				}
				var gw rpc.Wire
				gw.U64(uint64(in.Ino))
				gbody, gerr := c.callIdem(tc, dest, mds.MethodGetattr, gw.Bytes(), nil)
				if gerr != nil {
					return nil, 0, fmt.Errorf("client: resolve %q: redirect for %q: %w", path, in.Name, gerr)
				}
				real, derr := decodeInode(gbody)
				if derr != nil {
					return nil, 0, derr
				}
				in = real
				owner = dest
			}
			if c.cache != nil {
				// Seed every component the walk resolved — this is what
				// makes one cold resolve warm the whole prefix. Redirect
				// targets are seeded too, under the parent's grant: the
				// name→inode binding is the parent owner's to revoke
				// (remove/rename execute there), and attribute staleness
				// is bounded by the lease TTL like any cross-shard entry.
				if g, ok := grantOf(cur.Ino); ok {
					c.cache.Put(g, name, in)
				}
			}
			step(in)
			name, end, more = namespace.NextComponent(path, end)
		}
		if res.negative {
			// The owner proved the next component absent: cache the
			// negative (vouched by the same response's grant) and fail
			// the resolution like a server ENOENT would have.
			if c.cache != nil {
				if g, ok := grantOf(cur.Ino); ok {
					c.cache.PutNegative(g, name)
				}
			}
			return nil, 0, fmt.Errorf("client: resolve %q at %q: %s",
				path, name, mds.CodedError(mds.CodeNoEnt, "%q not in dir %d", name, cur.Ino))
		}
		if p, ok := c.pinOf(cur.Ino); ok {
			owner = p
		}
	}
	if cur == rootInode {
		root := *rootInode
		cur = &root
	}
	return cur, owner, nil
}

// resolveDir is resolvePath for a path an op uses as a directory. A shard
// knows a file only by (parent, name), so it would take a file's ino for
// a directory it does not own: the SDK answers ENOTDIR itself.
func (c *Client) resolveDir(tc telemetry.SpanContext, path string) (*namespace.Inode, int, error) {
	in, owner, err := c.resolvePath(tc, path, nil)
	if err == nil && !in.IsDir() {
		err = fmt.Errorf("client: resolve %q: %w", path, errNotDir)
	}
	return in, owner, err
}

var errNotDir = mds.CodedError(mds.CodeNotDir, "not a directory")

// dropPathCache forgets every directory along path (entries and lease
// state), so the next resolution walks through the MDSs and discovers
// fake-inode redirects left by migrations.
func (c *Client) dropPathCache(path string) {
	if c.cache == nil {
		return
	}
	cur := namespace.RootIno
	for off := 0; ; {
		name, end, more := namespace.NextComponent(path, off)
		if !more {
			break
		}
		in, ok := c.cache.Peek(cur, name)
		c.cache.Forget(cur)
		if !ok {
			return
		}
		cur, off = in.Ino, end
	}
	c.cache.Forget(cur)
}

// opRetryAttempts bounds retryOp. The backoff schedule below keeps the
// total worst-case wait in the hundreds of milliseconds — enough to ride
// out a migration publish or a heartbeat-driven failover.
const opRetryAttempts = 6

// retryOp runs fn, recovering from the two redirect-shaped failures every
// SDK operation can hit: a not-owner response (a migration landed between
// the operation's resolution and its final RPC) and a transport failure
// (the owning MDS died and the coordinator is promoting its backup). Both
// recoveries refresh the partition map and drop the stale cached prefixes
// of the involved paths. When the refreshed map has not moved — the
// migration's publish or the failover has not landed yet — the retry
// backs off instead of burning the remaining attempts on the same answer.
func (c *Client) retryOp(tc telemetry.SpanContext, paths []string, fn func() error) error {
	var err error
	backoff := c.cfg.RetryBackoff
	for attempt := 0; attempt < opRetryAttempts; attempt++ {
		err = fn()
		if err == nil || (!mds.IsNotOwner(err) && !rpc.IsRetryable(err)) {
			return err
		}
		c.reg.Counter("client.op.retries").Inc()
		prev := c.MapVersion()
		if rerr := c.refreshMap(tc); rerr != nil {
			// MDS 0 may itself be mid-recovery; keep retrying on the
			// stale map rather than giving up the whole operation.
			time.Sleep(backoff)
			backoff *= 2
		} else if c.MapVersion() == prev {
			time.Sleep(backoff)
			backoff *= 2
		}
		for _, p := range paths {
			c.dropPathCache(p)
		}
	}
	return err
}

// Stat returns the inode at path.
func (c *Client) Stat(path string) (*namespace.Inode, error) {
	tc, op := c.op(opStat)
	var out *namespace.Inode
	err := c.retryOp(tc, []string{path}, func() (err error) {
		out, _, err = c.resolvePath(tc, path, nil)
		return err
	})
	op.done(err)
	if err != nil {
		return nil, err
	}
	c.Ops.Add(1)
	return out, nil
}

// Mkdir creates a directory.
func (c *Client) Mkdir(path string) (*namespace.Inode, error) {
	return c.createEntry(path, namespace.TypeDir)
}

// Create creates a regular file.
func (c *Client) Create(path string) (*namespace.Inode, error) {
	return c.createEntry(path, namespace.TypeFile)
}

func (c *Client) createEntry(path string, typ namespace.FileType) (*namespace.Inode, error) {
	kind := opCreate
	if typ == namespace.TypeDir {
		kind = opMkdir
	}
	tc, op := c.op(kind)
	dir, name := namespace.ParentPath(path)
	so := mds.SubOp{ID: c.batch.nextOpID(), Kind: mds.BatchOpCreate, Name: name, Type: typ}
	var out *namespace.Inode
	lost := false
	err := c.retryOp(tc, []string{dir}, func() error {
		parent, owner, err := c.resolveDir(tc, dir)
		if err != nil {
			return err
		}
		so.Parent = parent.Ino
		in, err := c.submit(tc, owner, &so, &lost)
		if err != nil {
			if lost && mds.ErrCode(err) == mds.CodeExist {
				// The connection died after a previous attempt reached the
				// shard (or its promoted backup replayed the write): the
				// entry is ours. Fetch it instead of surfacing a spurious
				// EEXIST for our own create.
				if own, lerr := c.lookupOwn(tc, owner, so.Parent, name); lerr == nil {
					out = own
					return nil
				}
			}
			return err
		}
		if in == nil {
			return rpc.ErrTruncated
		}
		out = in
		return nil
	})
	op.done(err)
	if err != nil {
		return nil, fmt.Errorf("client: create %q: %w", path, err)
	}
	c.Ops.Add(1)
	return out, nil
}

// Remove unlinks a file or removes an empty directory.
func (c *Client) Remove(path string) error {
	tc, op := c.op(opRemove)
	dir, name := namespace.ParentPath(path)
	so := mds.SubOp{ID: c.batch.nextOpID(), Kind: mds.BatchOpRemove, Name: name}
	lost := false
	err := c.retryOp(tc, []string{dir}, func() error {
		parent, owner, err := c.resolveDir(tc, dir)
		if err != nil {
			return err
		}
		so.Parent = parent.Ino
		_, err = c.submit(tc, owner, &so, &lost)
		if err != nil && lost && mds.ErrCode(err) == mds.CodeNoEnt {
			// ENOENT after a lost connection: a previous attempt's remove
			// reached the shard, which is the outcome the caller asked for.
			// The name is absent, though no grant says so.
			if c.cache != nil {
				c.cache.DropEntry(so.Parent, name)
			}
			return nil
		}
		return err
	})
	op.done(err)
	if err != nil {
		return fmt.Errorf("client: remove %q: %w", path, err)
	}
	c.Ops.Add(1)
	return nil
}

// Readdir lists a directory, in the owner's key order (by name). A
// directory whose complete listing the lease cache holds is answered
// from it with no RPC, stale by at most what a cached Stat may be: one
// RPC touching the directory or one lease TTL. The returned slice, like
// the inodes in it, is shared with the cache and read-only.
func (c *Client) Readdir(path string) ([]*namespace.Inode, error) {
	tc, op := c.op(opReaddir)
	var out []*namespace.Inode
	err := c.retryOp(tc, []string{path}, func() error {
		dir, owner, err := c.resolveDir(tc, path)
		if err != nil {
			return err
		}
		if c.cache != nil {
			if list, ok := c.cache.Listing(dir.Ino); ok {
				out = list
				return nil
			}
		}
		sc := scratchPool.Get().(*scratch)
		defer scratchPool.Put(sc)
		sc.req.Reset()
		req := sc.req.U64(uint64(dir.Ino)).Bytes()
		body, err := c.callIdem(tc, owner, mds.MethodReaddir, req, sc.resp[:0])
		if err != nil {
			return err
		}
		sc.resp = body
		r := rpc.NewReader(body)
		children, derr := decodeInodes(r)
		if derr != nil {
			return derr
		}
		var fewGrants [2]lease.Grant // a listing vouches for its directory
		grants, mapVersion := decodeTrailer(r, fewGrants[:0])
		c.sawMapVersion(mapVersion)
		if c.cache != nil {
			// A listing seeds the whole directory: the grant vouches every
			// child at once, and the directory is complete from then on.
			c.observeGrants(grants)
			for _, g := range grants {
				if g.Dir == dir.Ino {
					c.cache.PutListing(g, children)
				}
			}
		}
		out = children
		return nil
	})
	op.done(err)
	if err != nil {
		return nil, fmt.Errorf("client: readdir %q: %w", path, err)
	}
	c.Ops.Add(1)
	return out, nil
}

// Setattr updates size and mode of the entry at path by its (parent,
// name); Setattr("/") is invalid. Setattr is naturally idempotent
// (absolute size/mode), so a retried attempt needs no special casing
// beyond the shard's replay table.
func (c *Client) Setattr(path string, size int64, mode uint16) (*namespace.Inode, error) {
	tc, op := c.op(opSetattr)
	so := mds.SubOp{ID: c.batch.nextOpID(), Kind: mds.BatchOpSetattr, Size: size, Mode: mode}
	var out *namespace.Inode
	lost := false
	err := c.retryOp(tc, []string{path}, func() error {
		in, owner, err := c.resolvePath(tc, path, nil)
		if err != nil {
			return err
		}
		so.Parent, so.Name = in.Parent, in.Name
		upd, err := c.submit(tc, owner, &so, &lost)
		if err != nil {
			return err
		}
		if upd == nil {
			return rpc.ErrTruncated
		}
		out = upd
		return nil
	})
	op.done(err)
	if err != nil {
		return nil, fmt.Errorf("client: setattr %q: %w", path, err)
	}
	c.Ops.Add(1)
	return out, nil
}

// Rename moves src to dst. On one shard it is a single rename sub-op,
// applied atomically. Across shards it is an insert sub-op on the
// destination's owner followed by a remove sub-op on the source's — two
// frames, not atomic across shards (the coordinator path of a production
// system would wrap this in the T_coor transaction the cost model
// prices).
func (c *Client) Rename(src, dst string) error {
	tc, op := c.op(opRename)
	sdir, sname := namespace.ParentPath(src)
	ddir, dname := namespace.ParentPath(dst)
	id, removeID := c.batch.nextOpID(), c.batch.nextOpID()
	lost := false
	err := c.retryOp(tc, []string{sdir, ddir}, func() error {
		sin, sowner, err := c.resolveDir(tc, sdir)
		if err != nil {
			return err
		}
		din, downer, err := c.resolveDir(tc, ddir)
		if err != nil {
			return err
		}
		sparent, dparent := sin.Ino, din.Ino
		if c.cache != nil {
			// What submit caches for the moved names is dropped again:
			// after a rename both bindings are re-read from their owners.
			defer c.cache.DropEntry(sparent, sname)
			defer c.cache.DropEntry(dparent, dname)
		}
		if sowner == downer {
			_, err := c.submit(tc, sowner, &mds.SubOp{ID: id, Kind: mds.BatchOpRename,
				Parent: sparent, Name: sname, DstParent: dparent, DstName: dname}, &lost)
			return err
		}
		in, err := c.lookupOwn(tc, sowner, sparent, sname)
		if err != nil {
			return err
		}
		moved := *in
		moved.Parent, moved.Name = dparent, dname
		if _, err := c.submit(tc, downer, &mds.SubOp{ID: id, Kind: mds.BatchOpInsert, Inode: &moved}, &lost); err != nil {
			return err
		}
		_, err = c.submit(tc, sowner, &mds.SubOp{ID: removeID, Kind: mds.BatchOpRemove, Parent: sparent, Name: sname}, &lost)
		return err
	})
	op.done(err)
	if err != nil {
		return fmt.Errorf("client: rename %q -> %q: %w", src, dst, err)
	}
	c.Ops.Add(1)
	return nil
}
