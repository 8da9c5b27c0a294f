// Package rpc is the wire layer of the networked OrigamiFS: length-
// prefixed binary frames over TCP, with request multiplexing on the
// client side and concurrent request dispatch on the server side: one
// goroutine reads frames per connection and hands each request to its
// own handler goroutine, bounded by a per-server worker limit.
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
// The layer is fault-aware: calls can carry deadlines (CallTimeout /
// CallCtx), a dropped connection is redialed automatically with
// exponential backoff plus jitter (ClientOptions.Reconnect), and both
// ends accept a FaultInjector that drops, delays, fails, or severs
// frames for chaos testing.
//
// Both ends are also instrumented: give a Client or Server a
// telemetry.Registry and every call is counted and timed per method
// (rpc.client.<method>.* / rpc.server.<method>.*), with reconnects,
// timeouts, and injected faults tallied alongside.
package rpc

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
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

	// DefaultConcurrency is the default per-server bound on in-flight
	// handler goroutines. It is sized well above the paper's 50 client
	// threads so a migration freeze (handlers parked on the MDS opMu)
	// cannot starve the commit RPC of a worker slot.
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

func writeFrame(w *bufio.Writer, reqID uint64, kind byte, method Method, trace, span uint64, body []byte) error {
	frameLen := frameOverhead + len(body)
	if frameLen > MaxFrame {
		return fmt.Errorf("rpc: frame too large (%d bytes)", frameLen)
	}
	var hdr [4 + frameOverhead]byte
	binary.BigEndian.PutUint32(hdr[0:], uint32(frameLen))
	binary.BigEndian.PutUint64(hdr[4:], reqID)
	hdr[12] = kind
	binary.BigEndian.PutUint16(hdr[13:], uint16(method))
	binary.BigEndian.PutUint64(hdr[15:], trace)
	binary.BigEndian.PutUint64(hdr[23:], span)
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	if _, err := w.Write(body); err != nil {
		return err
	}
	return w.Flush()
}

func readFrame(r *bufio.Reader) (reqID uint64, kind byte, method Method, trace, span uint64, body []byte, err error) {
	var lenBuf [4]byte
	if _, err = io.ReadFull(r, lenBuf[:]); err != nil {
		return 0, 0, 0, 0, 0, nil, err
	}
	frameLen := binary.BigEndian.Uint32(lenBuf[:])
	if frameLen < frameOverhead || frameLen > MaxFrame {
		return 0, 0, 0, 0, 0, nil, fmt.Errorf("rpc: bad frame length %d", frameLen)
	}
	buf := make([]byte, frameLen)
	if _, err = io.ReadFull(r, buf); err != nil {
		return 0, 0, 0, 0, 0, nil, err
	}
	reqID = binary.BigEndian.Uint64(buf[0:])
	kind = buf[8]
	method = Method(binary.BigEndian.Uint16(buf[9:]))
	trace = binary.BigEndian.Uint64(buf[11:])
	span = binary.BigEndian.Uint64(buf[19:])
	return reqID, kind, method, trace, span, buf[frameOverhead:], nil
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
// body; a returned error is transported as a RemoteError.
type Handler func(body []byte) ([]byte, error)

// InfoHandler is a Handler that also receives the request's CallInfo
// (trace ID propagation, method-aware middleware).
type InfoHandler func(info CallInfo, body []byte) ([]byte, error)

// serverTelem is the swappable observability configuration of a Server.
type serverTelem struct {
	reg   *telemetry.Registry
	namer func(Method) string
}

// Server dispatches incoming requests to registered handlers. Each
// parsed request runs in its own goroutine (bounded by the worker
// limit); frame writes on a connection are serialised by a per-
// connection write mutex.
type Server struct {
	mu       sync.RWMutex
	handlers map[Method]InfoHandler
	ln       net.Listener
	wg       sync.WaitGroup
	closed   atomic.Bool
	connMu   sync.Mutex
	conns    map[net.Conn]struct{}
	injector atomic.Value // injectorBox
	telem    atomic.Value // serverTelem
	tracer   atomic.Value // tracerBox

	// sem bounds in-flight handler goroutines across all connections.
	sem chan struct{}
	// BadFrames counts frames dropped because their kind was not a
	// request (also exported as rpc.server.bad_frames).
	BadFrames atomic.Int64
}

type injectorBox struct{ fi FaultInjector }

type tracerBox struct{ t *telemetry.Tracer }

// NewServer creates an empty server with the default worker limit.
func NewServer() *Server {
	return &Server{
		handlers: make(map[Method]InfoHandler),
		conns:    make(map[net.Conn]struct{}),
		sem:      make(chan struct{}, DefaultConcurrency),
	}
}

// SetConcurrency bounds the number of in-flight handler goroutines
// across all connections. It must be called before Listen.
func (s *Server) SetConcurrency(n int) {
	if n < 1 {
		n = 1
	}
	s.sem = make(chan struct{}, n)
}

// Handle registers a handler; it must be called before Serve.
func (s *Server) Handle(m Method, h Handler) {
	s.HandleInfo(m, func(_ CallInfo, body []byte) ([]byte, error) { return h(body) })
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
// handler latency, error and injected-fault tallies land in reg. namer
// maps method numbers to metric-name segments (nil falls back to "m<N>").
// Safe to call while serving.
func (s *Server) SetTelemetry(reg *telemetry.Registry, namer func(Method) string) {
	s.telem.Store(serverTelem{reg: reg, namer: namer})
}

func (s *Server) telemetry() serverTelem {
	if t, ok := s.telem.Load().(serverTelem); ok {
		return t
	}
	return serverTelem{}
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

func (s *Server) serveConn(conn net.Conn) {
	defer s.wg.Done()
	defer conn.Close()
	s.connMu.Lock()
	s.conns[conn] = struct{}{}
	s.connMu.Unlock()
	defer func() {
		s.connMu.Lock()
		delete(s.conns, conn)
		s.connMu.Unlock()
	}()
	r := bufio.NewReaderSize(conn, 64<<10)
	w := bufio.NewWriterSize(conn, 64<<10)
	wmu := &sync.Mutex{}
	for {
		reqID, kind, method, trace, span, body, err := readFrame(r)
		if err != nil {
			return
		}
		if kind != kindRequest {
			// A response-kind frame arriving at a server is a framing
			// bug on the peer, not a transient condition — count and
			// log it instead of silently skipping.
			s.BadFrames.Add(1)
			if tl := s.telemetry(); tl.reg != nil {
				tl.reg.Counter("rpc.server.bad_frames").Inc()
			}
			serverLog().Warn("dropping non-request frame",
				"kind", kind, "method", uint16(method), "req", reqID)
			continue
		}
		// Each request gets its own goroutine so slow handlers (or
		// injected delays) stall only themselves. The semaphore bounds
		// in-flight work across all connections; acquiring it here
		// applies backpressure to the read loop.
		s.sem <- struct{}{}
		s.wg.Add(1)
		go func(reqID uint64, method Method, trace, span uint64, body []byte) {
			defer s.wg.Done()
			defer func() { <-s.sem }()
			if !s.handleRequest(conn, w, wmu, reqID, method, trace, span, body) {
				// A disconnect fault (or write failure) severs the
				// connection; the read loop exits on its next read.
				conn.Close()
			}
		}(reqID, method, trace, span, body)
	}
}

// handleRequest runs one request end to end: server-side fault
// injection, handler dispatch, telemetry, and the response write
// (serialised on wmu). It reports false when the connection must be
// severed (disconnect fault or failed write).
func (s *Server) handleRequest(conn net.Conn, w *bufio.Writer, wmu *sync.Mutex, reqID uint64, method Method, trace, span uint64, body []byte) bool {
	tl := s.telemetry()
	var injectedErr error
	if fi := s.faultInjector(); fi != nil {
		delay, f, fired := resolveFaults(faultsFor(fi, PointServerRecv, method))
		if fired > 0 && tl.reg != nil {
			tl.reg.Counter("rpc.server.faults_injected").Add(int64(fired))
		}
		if delay > 0 {
			time.Sleep(delay) // stalls only this request's goroutine
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
	// Open the dispatch span: it brackets the handler (not the response
	// write) and becomes the parent for every span the handler starts.
	info := CallInfo{Method: method, TraceID: trace, SpanID: span}
	var dispatch *telemetry.ActiveSpan
	if tr := s.spanTracer(); tr != nil && trace != 0 {
		dispatch = tr.StartSpanFrom(telemetry.SpanContext{TraceID: trace, SpanID: span},
			"rpc.server."+methodLabel(tl.namer, method))
		if id := dispatch.ID(); id != 0 {
			info.SpanID = id
		}
	}
	var resp []byte
	isErr := true
	start := time.Now()
	if injectedErr != nil {
		resp = errorBody(injectedErr.Error())
		dispatch.Finish(injectedErr)
	} else if h == nil {
		err := fmt.Errorf("unknown method %d", method)
		resp = errorBody(err.Error())
		dispatch.Finish(err)
	} else if out, err := safeCall(h, info, body); err != nil {
		resp = errorBody(err.Error())
		dispatch.Finish(err)
	} else {
		resp = append([]byte{0}, out...)
		isErr = false
		dispatch.Finish(nil)
	}
	if tl.reg != nil {
		name := methodLabel(tl.namer, method)
		tl.reg.Counter("rpc.server." + name + ".requests").Inc()
		tl.reg.Histogram("rpc.server." + name + ".latency_ns").Record(time.Since(start).Nanoseconds())
		if isErr {
			tl.reg.Counter("rpc.server." + name + ".errors").Inc()
		}
	}
	if fi := s.faultInjector(); fi != nil {
		delay, f, fired := resolveFaults(faultsFor(fi, PointServerSend, method))
		if fired > 0 && tl.reg != nil {
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
			resp = errorBody(errResp.Error())
		case FaultDisconnect:
			return false
		}
	}
	wmu.Lock()
	err := writeFrame(w, reqID, kindResponse, method, trace, span, resp)
	wmu.Unlock()
	return err == nil
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

func errorBody(msg string) []byte {
	return append([]byte{1}, msg...)
}

// safeCall shields the connection from a panicking handler: one bad
// request becomes an error response instead of tearing down every client
// multiplexed on the connection.
func safeCall(h InfoHandler, info CallInfo, body []byte) (out []byte, err error) {
	defer func() {
		if r := recover(); r != nil {
			out = nil
			err = fmt.Errorf("handler panic: %v", r)
		}
	}()
	return h(info, body)
}

// Close stops the listener, force-closes active connections, and waits
// for the handler goroutines to drain.
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

	nextID  atomic.Uint64
	pending sync.Map // reqID -> *pendingCall
	closed  atomic.Bool

	// injector is the swappable fault injector (injectorBox), seeded
	// from opts.Injector; SetFaultInjector replaces it while running.
	injector atomic.Value

	rndMu sync.Mutex
	rnd   *rand.Rand

	// Reconnects counts completed redials.
	Reconnects atomic.Int64
}

// pendingCall is one in-flight request: the response channel plus the
// trace ID the request carried, for response-echo verification.
type pendingCall struct {
	ch    chan response
	trace uint64
}

type response struct {
	body []byte
	err  error
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
	c := &Client{
		addr: addr,
		opts: opts,
		conn: conn,
		w:    bufio.NewWriterSize(conn, 64<<10),
		gen:  &connGen{done: make(chan struct{})},
		rnd:  rand.New(rand.NewSource(opts.Seed)),
	}
	c.injector.Store(injectorBox{opts.Injector})
	go c.readLoop(conn, c.gen)
	return c, nil
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
	c := &Client{
		addr: addr,
		opts: opts,
		gen:  gen,
		rnd:  rand.New(rand.NewSource(opts.Seed)),
	}
	c.injector.Store(injectorBox{opts.Injector})
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
		reqID, kind, method, trace, _, body, err := readFrame(r)
		if err != nil {
			gen.err = err
			// Fail the calls in flight, then close done so a Call that
			// raced its pending entry past this drain wakes up and
			// removes it itself (no leak, no hang).
			c.pending.Range(func(k, v interface{}) bool {
				c.pending.Delete(k)
				v.(*pendingCall).ch <- response{err: ErrClosed}
				return true
			})
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
		if kind != kindResponse {
			continue
		}
		if fi := c.faultInjector(); fi != nil {
			delay, f, fired := resolveFaults(faultsFor(fi, PointClientRecv, method))
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
				continue // response vanishes; the call times out
			case FaultError:
				if pc, ok := c.pending.LoadAndDelete(reqID); ok {
					ferr := f.Err
					if ferr == nil {
						ferr = ErrInjected
					}
					pc.(*pendingCall).ch <- response{err: ferr}
				}
				continue
			case FaultDisconnect:
				conn.Close()
				continue // next readFrame fails and runs the drop path
			}
		}
		v, ok := c.pending.LoadAndDelete(reqID)
		if !ok {
			continue // late response to a timed-out call
		}
		pc := v.(*pendingCall)
		if pc.trace != 0 && trace != pc.trace {
			// The server must echo the request's trace ID; a mismatch
			// means a framing bug, not a user error — count it loudly.
			if ctr := c.counter("rpc.client.trace_mismatch"); ctr != nil {
				ctr.Inc()
			}
		}
		if len(body) == 0 {
			pc.ch <- response{err: &RemoteError{Method: method, Msg: "empty response"}}
			continue
		}
		if body[0] != 0 {
			pc.ch <- response{err: &RemoteError{Method: method, Msg: string(body[1:])}}
			continue
		}
		pc.ch <- response{body: body[1:]}
	}
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
// client's CallTimeout. The request carries no trace ID; use CallCtx
// with telemetry.WithTraceID to propagate one.
func (c *Client) Call(m Method, body []byte) ([]byte, error) {
	return c.call(nil, m, body)
}

// CallCtx is Call with an explicit context: the call fails with the
// context's error when it is cancelled, and a trace ID attached with
// telemetry.WithTraceID rides the request frame to the server. The
// client CallTimeout still applies as an upper bound.
func (c *Client) CallCtx(ctx context.Context, m Method, body []byte) ([]byte, error) {
	return c.call(ctx, m, body)
}

func (c *Client) call(ctx context.Context, m Method, body []byte) ([]byte, error) {
	reg := c.opts.Registry
	if reg == nil {
		return c.doCall(ctx, m, body)
	}
	start := time.Now()
	out, err := c.doCall(ctx, m, body)
	name := methodLabel(c.opts.MethodName, m)
	reg.Counter("rpc.client." + name + ".calls").Inc()
	reg.Histogram("rpc.client." + name + ".latency_ns").Record(time.Since(start).Nanoseconds())
	if err != nil {
		reg.Counter("rpc.client." + name + ".errors").Inc()
		if errors.Is(err, ErrTimeout) {
			reg.Counter("rpc.client.timeouts").Inc()
		}
	}
	return out, err
}

func (c *Client) doCall(ctx context.Context, m Method, body []byte) ([]byte, error) {
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
	sc := telemetry.SpanContextFrom(ctx)
	trace := sc.TraceID
	id := c.nextID.Add(1)
	pc := &pendingCall{ch: make(chan response, 1), trace: trace}
	c.pending.Store(id, pc)
	if !dropped {
		c.wmu.Lock()
		err := writeFrame(w, id, kindRequest, m, trace, sc.SpanID, body)
		c.wmu.Unlock()
		if err != nil {
			c.pending.Delete(id)
			return nil, fmt.Errorf("rpc: send: %v: %w", err, ErrClosed)
		}
	}
	var deadline <-chan time.Time
	if c.opts.CallTimeout > 0 {
		timer := time.NewTimer(c.opts.CallTimeout)
		defer timer.Stop()
		deadline = timer.C
	}
	var ctxDone <-chan struct{}
	if ctx != nil {
		ctxDone = ctx.Done()
	}
	select {
	case resp := <-pc.ch:
		return resp.body, resp.err
	case <-gen.done:
		c.pending.Delete(id)
		return nil, ErrClosed
	case <-deadline:
		c.pending.Delete(id)
		return nil, fmt.Errorf("%w: method %d after %v", ErrTimeout, m, c.opts.CallTimeout)
	case <-ctxDone:
		c.pending.Delete(id)
		return nil, ctx.Err()
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
