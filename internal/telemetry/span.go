package telemetry

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"time"
)

// Distributed tracing: a Span records one timed step of a traced
// operation (a client op, an RPC dispatch, a kvstore commit, a
// replication ack wait), linked to its parent by span IDs and to the
// whole operation by the trace ID every RPC frame header carries. Each
// node keeps its spans in a bounded ring buffer behind a Tracer;
// cross-node assembly happens at read time (AssembleTrace) from the
// per-node dumps, so the hot path never ships span data anywhere.
//
// Sampling is head-based and deterministic: whether a trace is kept is a
// pure function of its trace ID, so every node makes the same keep/drop
// decision with zero extra wire bits. Slow spans are kept regardless of
// the sampling verdict (tail capture) and additionally land in the
// slow-op log, the "what was slow lately" answer that needs no trace ID
// in hand.

// Span is one recorded, finished span.
type Span struct {
	TraceID  uint64 `json:"trace_id"`
	SpanID   uint64 `json:"span_id"`
	ParentID uint64 `json:"parent_id,omitempty"`
	// Name is the dotted operation name ("client.op.create",
	// "rpc.server.create", "kvstore.commit", ...). Its first segment is
	// the component (see Component).
	Name string `json:"name"`
	// Node identifies the process/shard that recorded the span
	// ("client", "mds0", "coordinator").
	Node          string            `json:"node"`
	StartUnixNano int64             `json:"start_unix_nano"`
	DurationNS    int64             `json:"duration_ns"`
	Status        string            `json:"status,omitempty"` // "" = ok
	Attrs         map[string]string `json:"attrs,omitempty"`
}

// Component returns the span name's first dotted segment — the
// subsystem that produced it (client, rpc, mds, kvstore, repl,
// coordinator).
func (s Span) Component() string {
	if i := strings.IndexByte(s.Name, '.'); i > 0 {
		return s.Name[:i]
	}
	return s.Name
}

// SlowOp is one slow-op log entry: a span that exceeded the tracer's
// slow threshold, kept unconditionally (tail capture).
type SlowOp struct {
	TraceID       uint64 `json:"trace_id"`
	Name          string `json:"name"`
	Node          string `json:"node"`
	StartUnixNano int64  `json:"start_unix_nano"`
	DurationNS    int64  `json:"duration_ns"`
	Status        string `json:"status,omitempty"`
}

// SpanContext is the propagated identity of the current span: what a
// child span uses as its parent link. It rides the RPC frame header
// across nodes; locally every layer, from the SDK to the WAL, passes it
// as a plain value. The zero value is "untraced": a span started from it
// records nothing.
type SpanContext struct {
	TraceID uint64
	SpanID  uint64
}

// NewSpanID mints a span ID (same generator as trace IDs).
func NewSpanID() uint64 { return NewTraceID() }

// sampleBasis is the resolution of the head-sampling decision.
const sampleBasis = 10000

// sampleHash finalizes a trace ID into a well-mixed value for the
// sampling decision. Pure, so every node in the cluster computes the
// same verdict for the same trace.
func sampleHash(id uint64) uint64 {
	x := id + 0x9E3779B97F4A7C15
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}

// TracerConfig tunes a Tracer. The zero value keeps every trace
// (SampleRate 1.0), flags spans slower than 50ms, and retains 4096
// spans / 512 slow ops per node.
type TracerConfig struct {
	// SampleRate is the head-sampling fraction in [0,1]: the share of
	// traces whose spans are recorded. 0 means the default (1.0 — keep
	// all); pass a negative rate to sample nothing. The decision is
	// deterministic on the trace ID, so all nodes agree.
	SampleRate float64
	// SlowThreshold marks spans at or beyond this duration as slow:
	// recorded regardless of sampling and logged as slow ops. 0 means
	// the default (50ms); negative disables slow capture.
	SlowThreshold time.Duration
	// Capacity is the span ring size (default 4096).
	Capacity int
	// SlowCapacity is the slow-op log size (default 512).
	SlowCapacity int
	// Registry, when non-nil, receives the tracer's own counters
	// (telemetry.spans.recorded / .sampled_out, telemetry.slowops.recorded).
	Registry *Registry
}

func (c TracerConfig) withDefaults() TracerConfig {
	if c.SampleRate == 0 {
		c.SampleRate = 1.0
	}
	if c.SampleRate < 0 {
		c.SampleRate = 0
	}
	if c.SampleRate > 1 {
		c.SampleRate = 1
	}
	if c.SlowThreshold == 0 {
		c.SlowThreshold = 50 * time.Millisecond
	}
	if c.Capacity <= 0 {
		c.Capacity = 4096
	}
	if c.SlowCapacity <= 0 {
		c.SlowCapacity = 512
	}
	return c
}

// Tracer is one node's span recorder: a bounded ring of finished spans
// plus the slow-op log. All methods are safe for concurrent use, and
// every method tolerates a nil receiver (recording becomes a no-op), so
// instrumentation points never need nil checks.
type Tracer struct {
	node     string
	basisPts uint64 // sampled iff sampleHash(trace)%sampleBasis < basisPts
	slowNS   int64  // <= 0 disables slow capture
	spans    spanRing
	slow     slowRing

	recordedC   *Counter
	sampledOutC *Counter
	slowC       *Counter
}

// NewTracer creates a tracer for the named node ("mds0", "client",
// "coordinator").
func NewTracer(node string, cfg TracerConfig) *Tracer {
	cfg = cfg.withDefaults()
	t := &Tracer{
		node:     node,
		basisPts: uint64(cfg.SampleRate*sampleBasis + 0.5),
		slowNS:   cfg.SlowThreshold.Nanoseconds(),
		spans:    spanRing{buf: make([]Span, cfg.Capacity)},
		slow:     slowRing{buf: make([]SlowOp, cfg.SlowCapacity)},
	}
	if cfg.SlowThreshold < 0 {
		t.slowNS = 0
	}
	if reg := cfg.Registry; reg != nil {
		t.recordedC = reg.Counter("telemetry.spans.recorded")
		t.sampledOutC = reg.Counter("telemetry.spans.sampled_out")
		t.slowC = reg.Counter("telemetry.slowops.recorded")
	}
	return t
}

// Node returns the tracer's node name ("" for a nil tracer).
func (t *Tracer) Node() string {
	if t == nil {
		return ""
	}
	return t.node
}

// Sampled reports the deterministic head-sampling verdict for a trace.
func (t *Tracer) Sampled(traceID uint64) bool {
	if t == nil || traceID == 0 {
		return false
	}
	return sampleHash(traceID)%sampleBasis < t.basisPts
}

// ActiveSpan is an in-flight span started by StartSpanFrom. All methods
// are nil-safe: a nil *ActiveSpan (untraced request, nil tracer) absorbs
// every call.
type ActiveSpan struct {
	t     *Tracer
	span  Span
	start time.Time
}

// StartSpanFrom begins a span named name under parent sc. With a nil
// tracer or an untraced parent (zero trace ID) it returns a nil span and
// nothing is recorded. It is the one way to open a span: span identity
// travels as a SpanContext value, and a layer hands its children the
// span's Propagate(sc).
func (t *Tracer) StartSpanFrom(sc SpanContext, name string) *ActiveSpan {
	if t == nil || sc.TraceID == 0 {
		return nil
	}
	sampled := t.Sampled(sc.TraceID)
	if !sampled && t.slowNS <= 0 {
		// Unsampled and no slow capture: nothing can retain this span.
		if t.sampledOutC != nil {
			t.sampledOutC.Inc()
		}
		return nil
	}
	now := time.Now()
	as := &ActiveSpan{
		t: t,
		span: Span{
			TraceID:       sc.TraceID,
			ParentID:      sc.SpanID,
			Name:          name,
			Node:          t.node,
			StartUnixNano: now.UnixNano(),
		},
		start: now,
	}
	if !sampled {
		// Slow-capture-only span: skip the span-ID mint — at a 1%
		// sampling rate 99% of spans take this path, and they must not
		// pay for tree links they will never keep. A span retained for
		// being slow gets its ID minted at Finish.
		return as
	}
	as.span.SpanID = NewSpanID()
	return as
}

// ID returns the span's ID (0 for a nil span).
func (s *ActiveSpan) ID() uint64 {
	if s == nil {
		return 0
	}
	return s.span.SpanID
}

// Propagate returns the span context this span's children parent on:
// the span's own identity once it has an ID, else parent unchanged — so
// a layer that records nothing (nil tracer, untraced or sampled-out
// trace, slow-capture-only span) still hands its children its parent.
func (s *ActiveSpan) Propagate(parent SpanContext) SpanContext {
	if s == nil || s.span.SpanID == 0 {
		return parent
	}
	return SpanContext{TraceID: s.span.TraceID, SpanID: s.span.SpanID}
}

// Annotate attaches a key=value attribute.
func (s *ActiveSpan) Annotate(key, value string) {
	if s == nil {
		return
	}
	if s.span.Attrs == nil {
		s.span.Attrs = make(map[string]string, 4)
	}
	s.span.Attrs[key] = value
}

// Finish completes the span with err as its status (nil = ok) and hands
// it to the tracer, which keeps it when the trace is sampled or the
// span crossed the slow threshold.
func (s *ActiveSpan) Finish(err error) {
	if s == nil {
		return
	}
	t := s.t
	s.span.DurationNS = time.Since(s.start).Nanoseconds()
	if err != nil {
		s.span.Status = err.Error()
	}
	slow := t.slowNS > 0 && s.span.DurationNS >= t.slowNS
	if slow {
		t.slow.add(SlowOp{
			TraceID:       s.span.TraceID,
			Name:          s.span.Name,
			Node:          s.span.Node,
			StartUnixNano: s.span.StartUnixNano,
			DurationNS:    s.span.DurationNS,
			Status:        s.span.Status,
		})
		if t.slowC != nil {
			t.slowC.Inc()
		}
	}
	if s.span.SpanID == 0 {
		// Slow-capture-only span (trace unsampled, see StartSpanFrom):
		// kept only when it actually crossed the slow threshold.
		if !slow {
			if t.sampledOutC != nil {
				t.sampledOutC.Inc()
			}
			return
		}
		s.span.SpanID = NewSpanID()
	}
	t.spans.add(s.span)
	if t.recordedC != nil {
		t.recordedC.Inc()
	}
}

// Record inserts an already-finished span directly (tests, ingestion).
func (t *Tracer) Record(s Span) {
	if t == nil {
		return
	}
	if s.Node == "" {
		s.Node = t.node
	}
	t.spans.add(s)
	if t.recordedC != nil {
		t.recordedC.Inc()
	}
}

// TraceSpans returns the retained spans of one trace, oldest first.
func (t *Tracer) TraceSpans(traceID uint64) []Span {
	if t == nil {
		return nil
	}
	var out []Span
	for _, s := range t.spans.snapshot() {
		if s.TraceID == traceID {
			out = append(out, s)
		}
	}
	return out
}

// RecentSpans returns up to max retained spans, oldest first (max <= 0
// means all).
func (t *Tracer) RecentSpans(max int) []Span {
	if t == nil {
		return nil
	}
	all := t.spans.snapshot()
	if max > 0 && len(all) > max {
		all = all[len(all)-max:]
	}
	return all
}

// SlowOps returns the slow-op log, oldest first.
func (t *Tracer) SlowOps() []SlowOp {
	if t == nil {
		return nil
	}
	return t.slow.snapshot()
}

// TraceDump is a node's answer to a trace query: its retained spans for
// one trace (or recent spans when no trace was named) plus its slow-op
// log. The JSON shape of the MethodTraces RPC and the /traces endpoint.
type TraceDump struct {
	Node    string   `json:"node"`
	Spans   []Span   `json:"spans"`
	SlowOps []SlowOp `json:"slow_ops,omitempty"`
}

// Dump builds the node's TraceDump for traceID (0 = recent spans).
func (t *Tracer) Dump(traceID uint64) TraceDump {
	d := TraceDump{Node: t.Node()}
	if t == nil {
		return d
	}
	if traceID != 0 {
		d.Spans = t.TraceSpans(traceID)
	} else {
		d.Spans = t.RecentSpans(256)
	}
	d.SlowOps = t.SlowOps()
	return d
}

// spanRing is a fixed-capacity overwrite-oldest span buffer.
type spanRing struct {
	mu    sync.Mutex
	buf   []Span
	next  int
	total uint64
}

func (r *spanRing) add(s Span) {
	r.mu.Lock()
	r.buf[r.next] = s
	r.next = (r.next + 1) % len(r.buf)
	r.total++
	r.mu.Unlock()
}

// snapshot returns the retained spans, oldest first.
func (r *spanRing) snapshot() []Span {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := int(r.total)
	if n > len(r.buf) {
		n = len(r.buf)
	}
	out := make([]Span, 0, n)
	start := r.next - n
	if start < 0 {
		start += len(r.buf)
	}
	for i := 0; i < n; i++ {
		out = append(out, r.buf[(start+i)%len(r.buf)])
	}
	return out
}

type slowRing struct {
	mu    sync.Mutex
	buf   []SlowOp
	next  int
	total uint64
}

func (r *slowRing) add(s SlowOp) {
	r.mu.Lock()
	r.buf[r.next] = s
	r.next = (r.next + 1) % len(r.buf)
	r.total++
	r.mu.Unlock()
}

func (r *slowRing) snapshot() []SlowOp {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := int(r.total)
	if n > len(r.buf) {
		n = len(r.buf)
	}
	out := make([]SlowOp, 0, n)
	start := r.next - n
	if start < 0 {
		start += len(r.buf)
	}
	for i := 0; i < n; i++ {
		out = append(out, r.buf[(start+i)%len(r.buf)])
	}
	return out
}

// TraceNode is one node of an assembled trace tree.
type TraceNode struct {
	Span
	Children []*TraceNode `json:"children,omitempty"`
}

// AssembleTrace builds parent/child trees from a flat (possibly
// multi-node, possibly duplicated) span set. Spans whose parent was not
// retained become roots; duplicates (the same span fetched from two
// dumps) are dropped. Children sort by start time.
func AssembleTrace(spans []Span) []*TraceNode {
	nodes := make(map[uint64]*TraceNode, len(spans))
	order := make([]uint64, 0, len(spans))
	for _, s := range spans {
		if s.SpanID == 0 {
			continue
		}
		if _, dup := nodes[s.SpanID]; dup {
			continue
		}
		nodes[s.SpanID] = &TraceNode{Span: s}
		order = append(order, s.SpanID)
	}
	var roots []*TraceNode
	for _, id := range order {
		n := nodes[id]
		if p, ok := nodes[n.ParentID]; ok && n.ParentID != n.SpanID {
			p.Children = append(p.Children, n)
		} else {
			roots = append(roots, n)
		}
	}
	var sortTree func(ns []*TraceNode)
	sortTree = func(ns []*TraceNode) {
		sort.SliceStable(ns, func(i, j int) bool {
			return ns[i].StartUnixNano < ns[j].StartUnixNano
		})
		for _, n := range ns {
			sortTree(n.Children)
		}
	}
	sortTree(roots)
	return roots
}

// Components returns the distinct span components of a tree set, sorted.
func Components(roots []*TraceNode) []string {
	set := map[string]bool{}
	var walk func(n *TraceNode)
	walk = func(n *TraceNode) {
		set[n.Component()] = true
		for _, c := range n.Children {
			walk(c)
		}
	}
	for _, r := range roots {
		walk(r)
	}
	out := make([]string, 0, len(set))
	for c := range set {
		out = append(out, c)
	}
	sort.Strings(out)
	return out
}

// RenderTraceTree writes an indented text rendering of assembled trace
// trees — the `origami-cli trace` output.
func RenderTraceTree(w io.Writer, roots []*TraceNode) {
	var walk func(n *TraceNode, depth int)
	walk = func(n *TraceNode, depth int) {
		status := ""
		if n.Status != "" {
			status = "  ERR " + n.Status
		}
		fmt.Fprintf(w, "%s%-32s %10.3fms  node=%s span=%016x%s\n",
			strings.Repeat("  ", depth), n.Name,
			float64(n.DurationNS)/1e6, n.Node, n.SpanID, status)
		for _, c := range n.Children {
			walk(c, depth+1)
		}
	}
	for _, r := range roots {
		walk(r, 0)
	}
}
