// Package rpc is the wire layer of the networked OrigamiFS: length-
// prefixed binary frames over TCP, with request multiplexing on the
// client side and concurrent request dispatch on the server side: one
// goroutine reads frames per connection and hands each request to an idle
// long-lived handler goroutine — a worker — from a per-server pool, which
// starts workers up to its limit and otherwise makes the reader wait.
//
// Frame layout:
//
//	[4B frameLen][8B requestID][1B kind][2B method][8B traceID][8B spanID][body]
//
// kind distinguishes requests from responses; response bodies start with
// a status byte (0 = OK, otherwise an error whose message follows). The
// traceID ties a request to the client operation that issued it: servers
// echo it in the response and hand it to handlers via CallInfo, so one
// trace ID follows an operation from the SDK through every shard it
// touches. The spanID is the caller's current span: with a tracer
// installed (SetTracer) the server opens an "rpc.server.<method>"
// dispatch span parented on it, and handlers see the dispatch span in
// CallInfo.SpanID, so cross-node trace trees assemble without any extra
// wire round trips.
//
// The layer is fault-aware: calls are bounded by the client's
// CallTimeout, a dropped connection is redialed automatically with
// exponential backoff plus jitter (ClientOptions.Reconnect), and both
// ends accept a FaultInjector that drops, delays, fails, or severs
// frames for chaos testing.
//
// Both ends are also instrumented: give a Client or Server a
// telemetry.Registry and every call is counted and timed per method
// (rpc.client.<method>.* / rpc.server.<method>.*), with reconnects,
// timeouts, and injected faults tallied alongside.
//
// Buffer ownership. The steady-state request path allocates nothing in
// this package, because every buffer on it is recycled — which makes who
// may hold one a rule, not a convention:
//
//   - A handler's body is valid until the handler returns. The buffer is
//     reused for another request afterwards; whatever a handler keeps
//     (names, payloads, replay records) it copies.
//   - A handler appends its response to the Wire it is given and keeps no
//     reference to it; the buffer is recycled once the response frame has
//     been written to the connection.
//   - Client.CallInto appends the response body to the caller's buffer,
//     which the read loop owns from the moment the request is sent until
//     the call returns.
package rpc

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"origami/internal/telemetry"
)

// Method identifies an RPC handler.
type Method uint16

const (
	kindRequest  byte = 0
	kindResponse byte = 1

	// frameOverhead is the post-length header size: request ID, kind,
	// method, trace ID, span ID.
	frameOverhead = 8 + 1 + 2 + 8 + 8

	// MaxFrame bounds a single frame (16 MiB).
	MaxFrame = 16 << 20

	// DefaultConcurrency is the default size of a server's worker pool,
	// which bounds its in-flight requests. It is sized well above the
	// paper's 50 client threads so a migration freeze (mutations parked
	// until the commit, each holding its worker) cannot starve the commit
	// RPC of a worker.
	DefaultConcurrency = 256
)

// RemoteError is a server-side failure transported back to the caller.
type RemoteError struct {
	Method Method
	Msg    string
}

// Error implements error.
func (e *RemoteError) Error() string {
	return fmt.Sprintf("rpc: method %d: %s", e.Method, e.Msg)
}

// ErrClosed reports use of a closed (or currently disconnected) client.
var ErrClosed = errors.New("rpc: connection closed")

// ErrTimeout reports a call that exceeded its deadline.
var ErrTimeout = errors.New("rpc: call timed out")

// IsRetryable reports whether err is a transport failure (lost
// connection or expired deadline) that an idempotent caller may retry,
// as opposed to a RemoteError the server deliberately returned.
func IsRetryable(err error) bool {
	return errors.Is(err, ErrClosed) || errors.Is(err, ErrTimeout)
}

// frameHeaderSize is the length prefix plus the fixed header.
const frameHeaderSize = 4 + frameOverhead

// maxPooledBuffer bounds the buffers kept for reuse; one outsized frame
// must not pin its megabytes to a pool forever.
const maxPooledBuffer = 64 << 10

// frameHeader is the fixed header of one frame; bodyLen is what follows.
type frameHeader struct {
	reqID       uint64
	kind        byte
	method      Method
	trace, span uint64
	bodyLen     int
}

// put writes the header (length prefix included) over b[:frameHeaderSize].
func (h *frameHeader) put(b []byte) {
	binary.BigEndian.PutUint32(b[0:], uint32(frameOverhead+h.bodyLen))
	binary.BigEndian.PutUint64(b[4:], h.reqID)
	b[12] = h.kind
	binary.BigEndian.PutUint16(b[13:], uint16(h.method))
	binary.BigEndian.PutUint64(b[15:], h.trace)
	binary.BigEndian.PutUint64(b[23:], h.span)
}

// writeFrame sends one frame: the header goes straight into the writer's
// own buffer (empty here — every frame ends in a flush), the body behind
// it, one flush. The caller serialises writers.
func writeFrame(w *bufio.Writer, h frameHeader, body []byte) error {
	h.bodyLen = len(body)
	if frameOverhead+h.bodyLen > MaxFrame {
		return fmt.Errorf("rpc: frame too large (%d bytes)", frameOverhead+h.bodyLen)
	}
	hdr := w.AvailableBuffer()
	if cap(hdr) < frameHeaderSize {
		hdr = make([]byte, 0, frameHeaderSize)
	}
	hdr = hdr[:frameHeaderSize]
	h.put(hdr)
	if _, err := w.Write(hdr); err != nil {
		return err
	}
	if _, err := w.Write(body); err != nil {
		return err
	}
	return w.Flush()
}

// readFrameHeader reads one frame's header out of the reader's buffer,
// leaving the body unread.
func readFrameHeader(r *bufio.Reader) (h frameHeader, err error) {
	b, err := r.Peek(frameHeaderSize)
	if err != nil {
		return h, err
	}
	frameLen := binary.BigEndian.Uint32(b)
	if frameLen < frameOverhead || frameLen > MaxFrame {
		return h, fmt.Errorf("rpc: bad frame length %d", frameLen)
	}
	h = frameHeader{
		reqID:   binary.BigEndian.Uint64(b[4:]),
		kind:    b[12],
		method:  Method(binary.BigEndian.Uint16(b[13:])),
		trace:   binary.BigEndian.Uint64(b[15:]),
		span:    binary.BigEndian.Uint64(b[23:]),
		bodyLen: int(frameLen) - frameOverhead,
	}
	_, err = r.Discard(frameHeaderSize)
	return h, err
}

// readBody reads n body bytes onto the end of dst.
func readBody(r *bufio.Reader, dst []byte, n int) ([]byte, error) {
	dst = slices.Grow(dst, n)
	dst = dst[:len(dst)+n]
	_, err := io.ReadFull(r, dst[len(dst)-n:])
	return dst, err
}

// CallInfo carries per-request wire metadata into a handler.
type CallInfo struct {
	// Method is the dispatched method number.
	Method Method
	// TraceID is the trace the caller attached, or 0.
	TraceID uint64
	// SpanID is the parent span for any spans the handler starts: the
	// server's dispatch span when a tracer is installed, otherwise the
	// caller's span straight off the wire (or 0).
	SpanID uint64
}

// Handler serves one method. The returned bytes become the OK response
// body; a returned error is transported as a RemoteError. body is valid
// until the handler returns.
type Handler func(body []byte) ([]byte, error)

// InfoHandler serves one method with the request's CallInfo (trace ID
// propagation, method-aware middleware), appending the OK response body
// to resp; a returned error is transported as a RemoteError and whatever
// was appended is dropped. body is valid until the handler returns, resp
// until then as well: both buffers are recycled.
type InfoHandler func(info CallInfo, body []byte, resp *Wire) error

// methodMetrics are one method's metric handles on one end of the wire.
type methodMetrics struct {
	span    string // dispatch span name (server side)
	calls   *telemetry.Counter
	latency *telemetry.Histogram
	errors  string // counter name: it is created by the first error
}

// methodTable resolves a method's metric handles once, so the per-call
// path builds no metric names. A nil table means no telemetry.
type methodTable struct {
	reg          *telemetry.Registry
	namer        func(Method) string
	side, counts string // "rpc.server", "requests" | "rpc.client", "calls"

	mu sync.RWMutex
	m  map[Method]*methodMetrics

	// The server's worker-pool signals (nil on the client side).
	workers      *telemetry.Gauge
	dispatchWait *telemetry.Histogram
}

func newMethodTable(reg *telemetry.Registry, namer func(Method) string, side, counts string) *methodTable {
	if reg == nil {
		return nil
	}
	return &methodTable{reg: reg, namer: namer, side: side, counts: counts, m: make(map[Method]*methodMetrics)}
}

func (t *methodTable) get(m Method) *methodMetrics {
	t.mu.RLock()
	mm := t.m[m]
	t.mu.RUnlock()
	if mm != nil {
		return mm
	}
	base := t.side + "." + methodLabel(t.namer, m)
	t.mu.Lock()
	defer t.mu.Unlock()
	if mm = t.m[m]; mm == nil {
		mm = &methodMetrics{
			span:    base,
			calls:   t.reg.Counter(base + "." + t.counts),
			latency: t.reg.Histogram(base + ".latency_ns"),
			errors:  base + ".errors",
		}
		t.m[m] = mm
	}
	return mm
}

// record tallies the latency and outcome of a finished call. Both ends
// count a call when it starts, so a request is in the registry snapshot
// its own handler takes: a scraped node never looks like one that has
// served nothing.
func (t *methodTable) record(mm *methodMetrics, start time.Time, failed bool) {
	mm.latency.Record(time.Since(start).Nanoseconds())
	if failed {
		t.reg.Counter(mm.errors).Inc()
	}
}

// Server dispatches incoming requests to registered handlers. Each
// parsed request runs on a worker: a handler goroutine that serves one
// request at a time and then waits for the next, so the stack it grew on
// the handler path is reused instead of grown again per request. Workers
// are started on demand up to the pool's limit and live until Close; the
// most recently idled one takes the next request. Frame writes on a
// connection are serialised by a per-connection write mutex.
type Server struct {
	mu       sync.RWMutex
	handlers map[Method]InfoHandler
	ln       net.Listener
	wg       sync.WaitGroup
	closed   atomic.Bool
	connMu   sync.Mutex
	conns    map[net.Conn]struct{}
	injector atomic.Value // injectorBox
	telem    atomic.Pointer[methodTable]
	tracer   atomic.Value // tracerBox

	// The worker pool, shared by all connections: idle is a LIFO stack,
	// started counts the workers started (each lives until Close), limit
	// caps it, and freed wakes a reader waiting for a worker (or, at
	// Close, every waiting reader).
	poolMu  sync.Mutex
	idle    []*worker
	started int
	limit   int
	freed   sync.Cond
	// BadFrames counts frames dropped because their kind was not a
	// request (also exported as rpc.server.bad_frames).
	BadFrames atomic.Int64
}

type injectorBox struct{ fi FaultInjector }

type tracerBox struct{ t *telemetry.Tracer }

// NewServer creates an empty server with the default worker limit.
func NewServer() *Server {
	s := &Server{
		handlers: make(map[Method]InfoHandler),
		conns:    make(map[net.Conn]struct{}),
		limit:    DefaultConcurrency,
	}
	s.freed.L = &s.poolMu
	return s
}

// SetConcurrency sets the size of the worker pool, the bound on in-flight
// requests across all connections. It must be called before Listen.
func (s *Server) SetConcurrency(n int) {
	s.limit = max(n, 1)
}

// Handle registers a handler; it must be called before Serve.
func (s *Server) Handle(m Method, h Handler) {
	s.HandleInfo(m, func(_ CallInfo, body []byte, resp *Wire) error {
		out, err := h(body)
		resp.Raw(out)
		return err
	})
}

// HandleInfo registers a handler that receives the request's CallInfo.
func (s *Server) HandleInfo(m Method, h InfoHandler) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.handlers[m] = h
}

// SetFaultInjector installs (or, with nil, removes) a fault injector
// consulted at PointServerRecv for every parsed request and at
// PointServerSend for every response. Safe to call while serving.
func (s *Server) SetFaultInjector(fi FaultInjector) {
	s.injector.Store(injectorBox{fi})
}

func (s *Server) faultInjector() FaultInjector {
	if box, ok := s.injector.Load().(injectorBox); ok {
		return box.fi
	}
	return nil
}

// SetTelemetry instruments the server: per-method request counts,
// handler latency, error and injected-fault tallies land in reg, and so
// do the pool's rpc.server.workers (workers started) and
// rpc.server.dispatch_wait_ns (how long a reader waited for a worker,
// recorded only when it had to). namer maps method numbers to
// metric-name segments (nil falls back to "m<N>"). Safe to call while
// serving.
func (s *Server) SetTelemetry(reg *telemetry.Registry, namer func(Method) string) {
	t := newMethodTable(reg, namer, "rpc.server", "requests")
	s.poolMu.Lock() // the gauge follows started from here on
	if t != nil {
		t.workers = reg.Gauge("rpc.server.workers")
		t.workers.Set(float64(s.started))
		t.dispatchWait = reg.Histogram("rpc.server.dispatch_wait_ns")
	}
	s.telem.Store(t)
	s.poolMu.Unlock()
}

// SetTracer installs the server's span tracer: every traced request
// (nonzero trace ID on the wire) gets an "rpc.server.<method>" dispatch
// span parented on the caller's span, and handlers see the dispatch
// span as CallInfo.SpanID. Safe to call while serving; nil removes it.
func (s *Server) SetTracer(t *telemetry.Tracer) {
	s.tracer.Store(tracerBox{t})
}

func (s *Server) spanTracer() *telemetry.Tracer {
	if box, ok := s.tracer.Load().(tracerBox); ok {
		return box.t
	}
	return nil
}

func methodLabel(namer func(Method) string, m Method) string {
	if namer != nil {
		if name := namer(m); name != "" {
			return name
		}
	}
	return fmt.Sprintf("m%d", m)
}

// Listen binds the address and starts accepting in the background. It
// returns the bound address (useful with ":0").
func (s *Server) Listen(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("rpc: listen %s: %w", addr, err)
	}
	s.ln = ln
	s.wg.Add(1)
	go s.acceptLoop()
	return ln.Addr().String(), nil
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return // listener closed
		}
		s.wg.Add(1)
		go s.serveConn(conn)
	}
}

// serverConn is one accepted connection: response frames from concurrent
// handlers are serialised on wmu.
type serverConn struct {
	conn net.Conn
	wmu  sync.Mutex
}

// worker is one handler goroutine and the request record it owns: the
// request's header, the buffer its body was read into, the buffer its
// response frame is built in, and the connection to answer on. The record
// — buffers included — is reused for the worker's next request once the
// response frame is written, which is why a handler may keep neither body
// nor resp.
type worker struct {
	c    *serverConn
	hdr  frameHeader
	body []byte
	resp Wire
	// wake hands the worker's goroutine the request just loaded into the
	// record; closing it ends the goroutine.
	wake chan struct{}
}

func (s *Server) serveConn(conn net.Conn) {
	defer s.wg.Done()
	defer conn.Close()
	s.connMu.Lock()
	if s.closed.Load() {
		// Accepted as Close ran: Close has already force-closed the
		// connections it could see, and would wait forever on this one.
		s.connMu.Unlock()
		return
	}
	s.conns[conn] = struct{}{}
	s.connMu.Unlock()
	defer func() {
		s.connMu.Lock()
		delete(s.conns, conn)
		s.connMu.Unlock()
	}()
	r := bufio.NewReaderSize(conn, 64<<10)
	c := &serverConn{conn: conn}
	for {
		hdr, err := readFrameHeader(r)
		if err != nil {
			return
		}
		if hdr.kind != kindRequest {
			// A response-kind frame arriving at a server is a framing
			// bug on the peer, not a transient condition — count and
			// log it instead of silently skipping.
			if _, err := r.Discard(hdr.bodyLen); err != nil {
				return
			}
			s.BadFrames.Add(1)
			if tl := s.telem.Load(); tl != nil {
				tl.reg.Counter("rpc.server.bad_frames").Inc()
			}
			serverLog().Warn("dropping non-request frame",
				"kind", hdr.kind, "method", uint16(hdr.method), "req", hdr.reqID)
			continue
		}
		// Each request runs on a worker of its own, so a slow handler (or
		// an injected delay) stalls only itself. The pool bounds in-flight
		// work across all connections: with every worker busy, acquire
		// blocks, which applies backpressure to the read loop.
		w := s.acquire()
		if w == nil {
			return // closing
		}
		if w.body, err = readBody(r, w.body[:0], hdr.bodyLen); err != nil {
			s.release(w)
			return
		}
		w.c, w.hdr = c, hdr
		w.wake <- struct{}{}
	}
}

// acquire returns the worker for the next request: the most recently
// idled one, else a new one while fewer than the limit exist, else the
// first to come free. It returns nil once the server is closing.
func (s *Server) acquire() *worker {
	s.poolMu.Lock()
	var waitStart time.Time
	for len(s.idle) == 0 && s.started >= s.limit && !s.closed.Load() {
		if waitStart.IsZero() {
			waitStart = time.Now()
		}
		s.freed.Wait()
	}
	var w *worker
	switch n := len(s.idle); {
	case s.closed.Load():
	case n > 0:
		w, s.idle = s.idle[n-1], s.idle[:n-1]
	default:
		w = &worker{wake: make(chan struct{}, 1)}
		s.started++
		if tl := s.telem.Load(); tl != nil {
			tl.workers.Set(float64(s.started))
		}
		s.wg.Add(1)
		go s.work(w)
	}
	s.poolMu.Unlock()
	if !waitStart.IsZero() {
		if tl := s.telem.Load(); tl != nil {
			tl.dispatchWait.Record(time.Since(waitStart).Nanoseconds())
		}
	}
	return w
}

// release puts w on top of the idle stack once its request is done (or
// was never loaded), or ends its goroutine when the server is closing.
func (s *Server) release(w *worker) {
	w.c = nil
	if cap(w.body) > maxPooledBuffer {
		w.body = nil
	}
	if cap(w.resp.buf) > maxPooledBuffer {
		w.resp.buf = nil
	}
	s.poolMu.Lock()
	if s.closed.Load() {
		close(w.wake)
	} else {
		s.idle = append(s.idle, w)
		s.freed.Signal()
	}
	s.poolMu.Unlock()
}

// work is a worker's goroutine: it serves each request handed to it, then
// goes back to the pool, until Close ends it.
func (s *Server) work(w *worker) {
	defer s.wg.Done()
	for range w.wake {
		if !s.handleRequest(w) {
			// A disconnect fault (or write failure) severs the
			// connection; the read loop exits on its next read.
			w.c.conn.Close()
		}
		s.release(w)
	}
}

// respStatus is where a response frame's status byte sits in the buffer
// the frame is built in; the handler's body follows it.
const respStatus = frameHeaderSize

// handleRequest runs one request end to end: server-side fault
// injection, handler dispatch, telemetry, and the response write
// (serialised on the connection's wmu). It reports false when the
// connection must be severed (disconnect fault or failed write).
func (s *Server) handleRequest(w *worker) bool {
	method := w.hdr.method
	tl := s.telem.Load()
	var injectedErr error
	if fi := s.faultInjector(); fi != nil {
		delay, f, fired := resolveFaults(faultsFor(fi, PointServerRecv, method))
		if fired > 0 && tl != nil {
			tl.reg.Counter("rpc.server.faults_injected").Add(int64(fired))
		}
		if delay > 0 {
			time.Sleep(delay) // stalls only this request's worker
		}
		switch f.Action {
		case FaultDrop:
			return true // request vanishes; the caller times out
		case FaultError:
			injectedErr = f.Err
			if injectedErr == nil {
				injectedErr = ErrInjected
			}
		case FaultDisconnect:
			return false
		}
	}
	s.mu.RLock()
	h := s.handlers[method]
	s.mu.RUnlock()
	var mm *methodMetrics
	if tl != nil {
		mm = tl.get(method)
		mm.calls.Inc()
	}
	// Open the dispatch span: it brackets the handler (not the response
	// write) and becomes the parent for every span the handler starts.
	info := CallInfo{Method: method, TraceID: w.hdr.trace, SpanID: w.hdr.span}
	var dispatch *telemetry.ActiveSpan
	if tr := s.spanTracer(); tr != nil && info.TraceID != 0 {
		var name string
		if mm != nil {
			name = mm.span
		} else {
			name = "rpc.server." + methodLabel(nil, method)
		}
		dispatch = tr.StartSpanFrom(telemetry.SpanContext{TraceID: info.TraceID, SpanID: info.SpanID}, name)
		if id := dispatch.ID(); id != 0 {
			info.SpanID = id
		}
	}
	// The whole response frame is built in place: room for the header,
	// the OK status byte, then whatever the handler appends.
	resp := &w.resp
	resp.buf = append(resp.buf[:0], make([]byte, respStatus+1)...)
	start := time.Now()
	err := injectedErr
	switch {
	case err != nil:
	case h == nil:
		err = fmt.Errorf("unknown method %d", method)
	default:
		err = safeCall(h, info, w.body, resp)
	}
	if err != nil {
		resp.setError(err)
	}
	dispatch.Finish(err)
	if tl != nil {
		tl.record(mm, start, err != nil)
	}
	if fi := s.faultInjector(); fi != nil {
		delay, f, fired := resolveFaults(faultsFor(fi, PointServerSend, method))
		if fired > 0 && tl != nil {
			tl.reg.Counter("rpc.server.faults_injected").Add(int64(fired))
		}
		if delay > 0 {
			time.Sleep(delay)
		}
		switch f.Action {
		case FaultDrop:
			return true // response vanishes
		case FaultError:
			errResp := f.Err
			if errResp == nil {
				errResp = ErrInjected
			}
			resp.setError(errResp)
		case FaultDisconnect:
			return false
		}
	}
	hdr := w.hdr
	hdr.kind, hdr.bodyLen = kindResponse, len(resp.buf)-frameHeaderSize
	if frameOverhead+hdr.bodyLen > MaxFrame {
		resp.setError(fmt.Errorf("rpc: response too large (%d bytes)", hdr.bodyLen))
		hdr.bodyLen = len(resp.buf) - frameHeaderSize
	}
	hdr.put(resp.buf)
	w.c.wmu.Lock()
	_, werr := w.c.conn.Write(resp.buf)
	w.c.wmu.Unlock()
	return werr == nil
}

// setError turns the response frame under construction into an error
// response carrying err's message.
func (w *Wire) setError(err error) {
	w.buf = append(w.buf[:respStatus], 1)
	w.buf = append(w.buf, err.Error()...)
}

// serverLog is the package logger for server-side wire anomalies.
var serverLogger = struct {
	once sync.Once
	l    *telemetry.Logger
}{}

func serverLog() *telemetry.Logger {
	serverLogger.once.Do(func() { serverLogger.l = telemetry.L("rpc.server") })
	return serverLogger.l
}

// safeCall shields the connection from a panicking handler: one bad
// request becomes an error response instead of tearing down every client
// multiplexed on the connection.
func safeCall(h InfoHandler, info CallInfo, body []byte, resp *Wire) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("handler panic: %v", r)
		}
	}()
	return h(info, body, resp)
}

// Close stops the listener, force-closes active connections, ends the
// workers, and waits for the requests in flight to finish.
func (s *Server) Close() error {
	if s.closed.Swap(true) {
		return nil
	}
	var err error
	if s.ln != nil {
		err = s.ln.Close()
	}
	s.connMu.Lock()
	for conn := range s.conns {
		conn.Close()
	}
	s.connMu.Unlock()
	// Idle workers end now, busy ones once their request is done, and a
	// reader waiting for a worker gives up.
	s.poolMu.Lock()
	for _, w := range s.idle {
		close(w.wake)
	}
	s.idle = nil
	s.freed.Broadcast()
	s.poolMu.Unlock()
	s.wg.Wait()
	return err
}

// ClientOptions tunes a Client's fault-tolerance behaviour. The zero
// value reproduces the bare transport: no deadlines, no reconnect.
type ClientOptions struct {
	// CallTimeout bounds every Call (0 = wait forever). Calls that
	// exceed it fail with ErrTimeout; a late response is discarded.
	CallTimeout time.Duration
	// Reconnect redials a dropped connection in the background with
	// exponential backoff plus jitter. Calls issued while disconnected
	// fail fast with ErrClosed; callers retry on their own schedule.
	Reconnect bool
	// BackoffBase is the first redial delay (default 10ms).
	BackoffBase time.Duration
	// BackoffMax caps the redial delay (default 1s).
	BackoffMax time.Duration
	// MaxRedials bounds consecutive failed redials before the client
	// gives up and closes permanently (0 = keep trying until Close).
	MaxRedials int
	// Seed drives the backoff jitter (default 1).
	Seed int64
	// Injector, when non-nil, intercepts frames at PointClientSend and
	// PointClientRecv.
	Injector FaultInjector
	// Registry, when non-nil, receives per-method call counts, call
	// latency histograms, error/timeout tallies, and reconnect counts.
	Registry *telemetry.Registry
	// MethodName maps method numbers to metric-name segments (nil falls
	// back to "m<N>").
	MethodName func(Method) string
	// Logger, when non-nil, receives structured connection-lifecycle
	// records (disconnects, redials).
	Logger *telemetry.Logger
}

func (o ClientOptions) withDefaults() ClientOptions {
	if o.BackoffBase <= 0 {
		o.BackoffBase = 10 * time.Millisecond
	}
	if o.BackoffMax <= 0 {
		o.BackoffMax = time.Second
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

// connGen is one connection generation: its done channel closes when the
// underlying connection dies, failing the calls in flight on it.
type connGen struct {
	done chan struct{}
	err  error // read error, set before done closes
}

// Client is a multiplexing RPC client over one TCP connection: concurrent
// Calls are pipelined and matched to responses by request ID. With
// Reconnect enabled it transparently redials after a drop.
type Client struct {
	addr string
	opts ClientOptions

	wmu sync.Mutex // serialises frame writes

	mu   sync.Mutex // guards conn, w, gen across reconnects
	conn net.Conn
	w    *bufio.Writer
	gen  *connGen

	nextID atomic.Uint64
	closed atomic.Bool

	// pending holds the calls awaiting a response. Whoever removes a
	// call's record — the read loop delivering (or failing) it, or the
	// caller giving up — owns its completion; see take.
	pmu     sync.Mutex
	pending map[uint64]*pendingCall

	// stats resolves per-method metric handles (nil without a Registry).
	stats *methodTable

	// injector is the swappable fault injector (injectorBox), seeded
	// from opts.Injector; SetFaultInjector replaces it while running.
	injector atomic.Value

	rndMu sync.Mutex
	rnd   *rand.Rand

	// Reconnects counts completed redials.
	Reconnects atomic.Int64
}

// pendingCall is one in-flight request: the channel its outcome arrives
// on, the trace ID the request carried (for response-echo verification),
// the caller's buffer the read loop appends the response body to, and the
// deadline timer. Records are recycled, channel and timer included.
type pendingCall struct {
	ch    chan response
	trace uint64
	dst   []byte
	timer *time.Timer
}

var pendingPool = sync.Pool{New: func() any { return &pendingCall{ch: make(chan response, 1)} }}

type response struct {
	body []byte
	err  error
}

// take removes and returns the pending record of a request, nil when it
// is gone already. Taking a record is taking the duty to finish it: the
// read loop sends exactly one response on the channel of every record it
// takes, and a caller that gives up waits for that response if its record
// was taken from under it. So a record is referenced by one party at a
// time, which is what lets it be recycled.
func (c *Client) take(id uint64) *pendingCall {
	c.pmu.Lock()
	pc := c.pending[id]
	delete(c.pending, id)
	c.pmu.Unlock()
	return pc
}

// Dial connects to a server with default (zero) options.
func Dial(addr string) (*Client, error) {
	return DialOptions(addr, ClientOptions{})
}

// DialOptions connects to a server with explicit fault-tolerance options.
func DialOptions(addr string, opts ClientOptions) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("rpc: dial %s: %w", addr, err)
	}
	opts = opts.withDefaults()
	c := newClient(addr, opts, &connGen{done: make(chan struct{})})
	c.conn, c.w = conn, bufio.NewWriterSize(conn, 64<<10)
	go c.readLoop(conn, c.gen)
	return c, nil
}

func newClient(addr string, opts ClientOptions, gen *connGen) *Client {
	c := &Client{
		addr:    addr,
		opts:    opts,
		gen:     gen,
		pending: make(map[uint64]*pendingCall),
		stats:   newMethodTable(opts.Registry, opts.MethodName, "rpc.client", "calls"),
		rnd:     rand.New(rand.NewSource(opts.Seed)),
	}
	c.injector.Store(injectorBox{opts.Injector})
	return c
}

// DialLazyOptions is DialOptions for servers that may be down right now:
// when the initial dial fails and Reconnect is on, the client starts in
// the disconnected state and the redial loop brings the connection up
// once the server returns. Calls issued while disconnected fail fast
// with a retryable error. Without Reconnect the initial dial error is
// returned as from DialOptions.
func DialLazyOptions(addr string, opts ClientOptions) (*Client, error) {
	cli, err := DialOptions(addr, opts)
	if err == nil || !opts.Reconnect {
		return cli, err
	}
	opts = opts.withDefaults()
	gen := &connGen{done: make(chan struct{}), err: ErrClosed}
	close(gen.done)
	c := newClient(addr, opts, gen)
	if c.opts.Logger != nil {
		c.opts.Logger.Warn("initial dial failed; starting disconnected", "addr", addr, "err", err)
	}
	go c.redial()
	return c, nil
}

// Addr returns the dialed address.
func (c *Client) Addr() string { return c.addr }

// SetFaultInjector installs (or, with nil, removes) the client's fault
// injector, replacing the one given at dial time. Safe to call while
// calls are in flight — link-fault harnesses retune live connections
// with it.
func (c *Client) SetFaultInjector(fi FaultInjector) {
	c.injector.Store(injectorBox{fi})
}

func (c *Client) faultInjector() FaultInjector {
	if box, ok := c.injector.Load().(injectorBox); ok {
		return box.fi
	}
	return nil
}

// Connected reports whether the client currently holds a live connection.
func (c *Client) Connected() bool {
	c.mu.Lock()
	gen := c.gen
	c.mu.Unlock()
	select {
	case <-gen.done:
		return false
	default:
		return !c.closed.Load()
	}
}

func (c *Client) counter(name string) *telemetry.Counter {
	if c.opts.Registry == nil {
		return nil
	}
	return c.opts.Registry.Counter(name)
}

func (c *Client) readLoop(conn net.Conn, gen *connGen) {
	r := bufio.NewReaderSize(conn, 64<<10)
	for {
		err := c.readResponse(conn, r)
		if err == nil {
			continue
		}
		gen.err = err
		// Fail the calls in flight, then close done so a Call that
		// raced its pending entry past this drain wakes up and
		// removes it itself (no leak, no hang).
		c.pmu.Lock()
		for id, pc := range c.pending {
			delete(c.pending, id)
			pc.ch <- response{err: ErrClosed}
		}
		c.pmu.Unlock()
		close(gen.done)
		conn.Close()
		if c.opts.Logger != nil && !c.closed.Load() {
			c.opts.Logger.Warn("connection lost", "addr", c.addr, "err", err)
		}
		if c.opts.Reconnect && !c.closed.Load() {
			go c.redial()
		}
		return
	}
}

// readResponse reads one frame and delivers it to the call awaiting it,
// reading the body straight into that call's buffer. An error means the
// connection is lost.
func (c *Client) readResponse(conn net.Conn, r *bufio.Reader) error {
	h, err := readFrameHeader(r)
	if err != nil {
		return err
	}
	skip := func() error {
		_, err := r.Discard(h.bodyLen)
		return err
	}
	if h.kind != kindResponse {
		return skip()
	}
	var injected error
	if fi := c.faultInjector(); fi != nil {
		delay, f, fired := resolveFaults(faultsFor(fi, PointClientRecv, h.method))
		if fired > 0 {
			if ctr := c.counter("rpc.client.faults_injected"); ctr != nil {
				ctr.Add(int64(fired))
			}
		}
		if delay > 0 {
			time.Sleep(delay)
		}
		switch f.Action {
		case FaultDrop:
			return skip() // response vanishes; the call times out
		case FaultError:
			if injected = f.Err; injected == nil {
				injected = ErrInjected
			}
		case FaultDisconnect:
			conn.Close()
			return skip() // the next read fails and runs the drop path
		}
	}
	pc := c.take(h.reqID)
	if pc == nil {
		return skip() // late response to a call that gave up
	}
	// The record is ours: its caller now waits for exactly one send.
	if injected != nil {
		pc.ch <- response{err: injected}
		return skip()
	}
	if pc.trace != 0 && h.trace != pc.trace {
		// The server must echo the request's trace ID; a mismatch
		// means a framing bug, not a user error — count it loudly.
		if ctr := c.counter("rpc.client.trace_mismatch"); ctr != nil {
			ctr.Inc()
		}
	}
	if h.bodyLen == 0 {
		pc.ch <- response{err: &RemoteError{Method: h.method, Msg: "empty response"}}
		return nil
	}
	status, err := r.ReadByte()
	if err != nil {
		pc.ch <- response{err: ErrClosed}
		return err
	}
	body, err := readBody(r, pc.dst, h.bodyLen-1)
	switch {
	case err != nil:
		pc.ch <- response{err: ErrClosed}
	case status != 0:
		pc.ch <- response{err: &RemoteError{Method: h.method, Msg: string(body[len(pc.dst):])}}
	default:
		pc.ch <- response{body: body}
	}
	return err
}

// redial re-establishes the connection with exponential backoff plus
// jitter. At most one redial loop runs at a time (it is spawned only by
// the dying readLoop).
func (c *Client) redial() {
	backoff := c.opts.BackoffBase
	for attempt := 1; ; attempt++ {
		if c.closed.Load() {
			return
		}
		conn, err := net.Dial("tcp", c.addr)
		if err == nil {
			c.mu.Lock()
			if c.closed.Load() {
				c.mu.Unlock()
				conn.Close()
				return
			}
			gen := &connGen{done: make(chan struct{})}
			c.conn = conn
			c.w = bufio.NewWriterSize(conn, 64<<10)
			c.gen = gen
			c.mu.Unlock()
			c.Reconnects.Add(1)
			if ctr := c.counter("rpc.client.reconnects"); ctr != nil {
				ctr.Inc()
			}
			if c.opts.Logger != nil {
				c.opts.Logger.Info("reconnected", "addr", c.addr, "attempt", attempt)
			}
			go c.readLoop(conn, gen)
			return
		}
		if c.opts.MaxRedials > 0 && attempt >= c.opts.MaxRedials {
			c.closed.Store(true)
			if ctr := c.counter("rpc.client.redials_exhausted"); ctr != nil {
				ctr.Inc()
			}
			if c.opts.Logger != nil {
				c.opts.Logger.Error("redial budget exhausted", "addr", c.addr, "attempts", attempt)
			}
			return
		}
		c.rndMu.Lock()
		jitter := time.Duration(c.rnd.Int63n(int64(backoff)/2 + 1))
		c.rndMu.Unlock()
		time.Sleep(backoff + jitter)
		backoff *= 2
		if backoff > c.opts.BackoffMax {
			backoff = c.opts.BackoffMax
		}
	}
}

// Call issues one request and waits for its response, honouring the
// client's CallTimeout. The request carries no trace ID; use CallInto
// with a span context to propagate one.
func (c *Client) Call(m Method, body []byte) ([]byte, error) {
	return c.CallInto(telemetry.SpanContext{}, m, body, nil)
}

// CallInto issues one request on behalf of the span sc — its trace and
// span IDs ride the request frame, zero for none — appending the response
// body to dst and returning the extended slice, so a caller that is done
// with the previous response receives the next one in the same buffer.
// The span context is a plain value: nothing can cancel the call but the
// client's CallTimeout. dst belongs to the client until CallInto returns;
// after an error its contents are unspecified.
func (c *Client) CallInto(sc telemetry.SpanContext, m Method, body, dst []byte) ([]byte, error) {
	if c.stats == nil {
		return c.doCall(sc, m, body, dst)
	}
	mm := c.stats.get(m)
	mm.calls.Inc()
	start := time.Now()
	out, err := c.doCall(sc, m, body, dst)
	c.stats.record(mm, start, err != nil)
	if errors.Is(err, ErrTimeout) {
		c.stats.reg.Counter("rpc.client.timeouts").Inc()
	}
	return out, err
}

func (c *Client) doCall(sc telemetry.SpanContext, m Method, body, dst []byte) ([]byte, error) {
	if c.closed.Load() {
		return nil, ErrClosed
	}
	c.mu.Lock()
	conn, w, gen := c.conn, c.w, c.gen
	c.mu.Unlock()
	select {
	case <-gen.done:
		return nil, ErrClosed // disconnected; fail fast while redialing
	default:
	}
	dropped := false
	if fi := c.faultInjector(); fi != nil {
		delay, f, fired := resolveFaults(faultsFor(fi, PointClientSend, m))
		if fired > 0 {
			if ctr := c.counter("rpc.client.faults_injected"); ctr != nil {
				ctr.Add(int64(fired))
			}
		}
		if delay > 0 {
			time.Sleep(delay)
		}
		switch f.Action {
		case FaultDrop:
			dropped = true // never send; the call waits for its deadline
		case FaultError:
			ferr := f.Err
			if ferr == nil {
				ferr = ErrInjected
			}
			return nil, ferr
		case FaultDisconnect:
			conn.Close()
			return nil, ErrClosed
		}
	}
	id := c.nextID.Add(1)
	pc := pendingPool.Get().(*pendingCall)
	pc.trace, pc.dst = sc.TraceID, dst
	c.pmu.Lock()
	c.pending[id] = pc
	c.pmu.Unlock()
	out, err := c.await(gen, w, dropped, id, pc,
		frameHeader{reqID: id, kind: kindRequest, method: m, trace: sc.TraceID, span: sc.SpanID}, body)
	// Whichever way the call ended, nobody else holds the record now.
	pc.dst = nil
	pendingPool.Put(pc)
	return out, err
}

// await sends the request and waits for the record's outcome. Every exit
// either received the one response the read loop sends for a record it
// took, or took the record back itself.
func (c *Client) await(gen *connGen, w *bufio.Writer, dropped bool, id uint64, pc *pendingCall, h frameHeader, body []byte) ([]byte, error) {
	// giveUp ends the wait with err — unless the read loop has taken the
	// record already, in which case its response is imminent and wins.
	giveUp := func(err error) ([]byte, error) {
		if c.take(id) == nil {
			resp := <-pc.ch
			return resp.body, resp.err
		}
		return nil, err
	}
	if !dropped {
		c.wmu.Lock()
		err := writeFrame(w, h, body)
		c.wmu.Unlock()
		if err != nil {
			return giveUp(fmt.Errorf("rpc: send: %v: %w", err, ErrClosed))
		}
	}
	var deadline <-chan time.Time
	var start time.Time
	timeout := c.opts.CallTimeout
	if timeout > 0 {
		start = time.Now()
		if pc.timer == nil {
			pc.timer = time.NewTimer(timeout)
		} else {
			pc.timer.Reset(timeout)
		}
		defer pc.timer.Stop()
		deadline = pc.timer.C
	}
	for {
		select {
		case resp := <-pc.ch:
			return resp.body, resp.err
		case <-gen.done:
			return giveUp(ErrClosed)
		case <-deadline:
			if time.Since(start) < timeout {
				continue // a tick the record's previous call left behind
			}
			return giveUp(fmt.Errorf("%w: method %d after %v", ErrTimeout, h.method, timeout))
		}
	}
}

// Close tears down the connection and stops any redialing.
func (c *Client) Close() error {
	if c.closed.Swap(true) {
		return nil
	}
	c.mu.Lock()
	conn := c.conn
	c.mu.Unlock()
	if conn == nil {
		return nil // lazily-dialed client that never connected
	}
	return conn.Close()
}
