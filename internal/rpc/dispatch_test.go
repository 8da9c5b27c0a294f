package rpc

import (
	"bufio"
	"fmt"
	"net"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"origami/internal/telemetry"
)

const (
	methSlow Method = 60
	methFast Method = 61
)

// TestConcurrentDispatchOvertakes proves a fast request completes while
// an earlier slow request on the same connection is still executing —
// the defining property of concurrent dispatch.
func TestConcurrentDispatchOvertakes(t *testing.T) {
	srv := NewServer()
	release := make(chan struct{})
	entered := make(chan struct{})
	srv.Handle(methSlow, func(body []byte) ([]byte, error) {
		close(entered)
		<-release
		return []byte("slow"), nil
	})
	srv.Handle(methFast, func(body []byte) ([]byte, error) {
		return []byte("fast"), nil
	})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	slowDone := make(chan error, 1)
	go func() {
		_, err := c.Call(methSlow, nil)
		slowDone <- err
	}()
	<-entered // slow handler is running
	fastDone := make(chan error, 1)
	go func() {
		_, err := c.Call(methFast, nil)
		fastDone <- err
	}()
	select {
	case err := <-fastDone:
		if err != nil {
			t.Fatalf("fast call: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("fast call blocked behind slow call: dispatch is serial")
	}
	close(release)
	if err := <-slowDone; err != nil {
		t.Fatalf("slow call: %v", err)
	}
}

// TestFaultDelayStallsOnlyRequest injects a server-side receive delay
// on one method and checks a concurrent call to another method is not
// held up behind it.
func TestFaultDelayStallsOnlyRequest(t *testing.T) {
	srv := NewServer()
	srv.Handle(methSlow, func(body []byte) ([]byte, error) { return nil, nil })
	srv.Handle(methFast, func(body []byte) ([]byte, error) { return nil, nil })
	srv.SetFaultInjector(InjectorFunc(func(p InjectPoint, m Method) Fault {
		if p == PointServerRecv && m == methSlow {
			return Fault{Action: FaultDelay, Delay: 2 * time.Second}
		}
		return Fault{}
	}))
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	delayedDone := make(chan struct{})
	go func() {
		c.Call(methSlow, nil)
		close(delayedDone)
	}()
	start := time.Now()
	time.Sleep(10 * time.Millisecond) // let the delayed request reach the server
	if _, err := c.Call(methFast, nil); err != nil {
		t.Fatalf("fast call: %v", err)
	}
	if el := time.Since(start); el > time.Second {
		t.Fatalf("fast call took %v: delayed request stalled the connection", el)
	}
	<-delayedDone
}

// TestWorkerLimitBoundsInFlight saturates a 2-worker server and checks
// the pool (a) actually bounds concurrent handlers and (b) releases
// so queued work still completes.
func TestWorkerLimitBoundsInFlight(t *testing.T) {
	srv := NewServer()
	srv.SetConcurrency(2)
	var inFlight, maxInFlight atomic.Int64
	srv.Handle(methSlow, func(body []byte) ([]byte, error) {
		n := inFlight.Add(1)
		for {
			m := maxInFlight.Load()
			if n <= m || maxInFlight.CompareAndSwap(m, n) {
				break
			}
		}
		time.Sleep(20 * time.Millisecond)
		inFlight.Add(-1)
		return nil, nil
	})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := c.Call(methSlow, nil); err != nil {
				t.Errorf("call: %v", err)
			}
		}()
	}
	wg.Wait()
	if m := maxInFlight.Load(); m > 2 {
		t.Fatalf("max in-flight handlers = %d, want <= 2", m)
	}
}

// TestBadFrameCountedAndLogged writes a response-kind frame at the
// server and checks it is counted (satellite: rpc.server.bad_frames)
// while the connection keeps serving real requests.
func TestBadFrameCountedAndLogged(t *testing.T) {
	srv := NewServer()
	reg := telemetry.NewRegistry()
	srv.SetTelemetry(reg, nil)
	srv.Handle(methFast, func(body []byte) ([]byte, error) { return []byte("ok"), nil })
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	w := bufio.NewWriter(conn)
	// A response frame has no business arriving at a server.
	if err := writeFrame(w, frameHeader{reqID: 1, kind: kindResponse, method: methFast}, nil); err != nil {
		t.Fatal(err)
	}
	// A real request must still be served afterwards.
	if err := writeFrame(w, frameHeader{reqID: 2, kind: kindRequest, method: methFast}, nil); err != nil {
		t.Fatal(err)
	}
	r := bufio.NewReader(conn)
	h, err := readFrameHeader(r)
	if err != nil {
		t.Fatal(err)
	}
	body, err := readBody(r, nil, h.bodyLen)
	if err != nil {
		t.Fatal(err)
	}
	if h.reqID != 2 || h.kind != kindResponse || len(body) == 0 || body[0] != 0 {
		t.Fatalf("unexpected response: id=%d kind=%d body=%q", h.reqID, h.kind, body)
	}
	if got := srv.BadFrames.Load(); got != 1 {
		t.Fatalf("BadFrames = %d, want 1", got)
	}
	if got := reg.Counter("rpc.server.bad_frames").Value(); got != 1 {
		t.Fatalf("rpc.server.bad_frames = %d, want 1", got)
	}
}

// TestDispatchReusesHandlerGoroutines makes 1 000 sequential calls on one
// connection and checks they were served by at most two workers: a
// worker goes back to the pool right after writing its response, so at
// most one more is started for a request that arrives before it has.
func TestDispatchReusesHandlerGoroutines(t *testing.T) {
	srv := NewServer()
	reg := telemetry.NewRegistry()
	srv.SetTelemetry(reg, nil)
	srv.Handle(methFast, func(body []byte) ([]byte, error) { return body, nil })
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := 0; i < 1000; i++ {
		if _, err := c.Call(methFast, []byte("ping")); err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
	}
	if n := reg.Gauge("rpc.server.workers").Value(); n < 1 || n > 2 {
		t.Fatalf("rpc.server.workers = %v after 1000 sequential calls, want 1 or 2", n)
	}
}

// serverStacks returns the stacks of every goroutine running server code.
func serverStacks() string {
	buf := make([]byte, 1<<20)
	var out []string
	for _, g := range strings.Split(string(buf[:runtime.Stack(buf, true)]), "\n\n") {
		if strings.Contains(g, "rpc.(*Server)") {
			out = append(out, g)
		}
	}
	return strings.Join(out, "\n\n")
}

// waitFor polls cond for up to five seconds.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// TestCloseWithSaturatedPool fills a one-worker pool with a blocked
// handler and parks the reader on a second request waiting for a worker.
// Close must wait for the running handler, return once it is released —
// the parked reader gives up instead of hanging it — and leave no server
// goroutine behind.
func TestCloseWithSaturatedPool(t *testing.T) {
	srv := NewServer()
	srv.SetConcurrency(1)
	entered, release := make(chan struct{}), make(chan struct{})
	srv.Handle(methSlow, func(body []byte) ([]byte, error) {
		close(entered)
		<-release
		return nil, nil
	})
	srv.Handle(methFast, func(body []byte) ([]byte, error) { return nil, nil })
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	go c.Call(methSlow, nil)
	<-entered
	go c.Call(methFast, nil)
	waitFor(t, "the reader to wait for a worker", func() bool {
		return strings.Contains(serverStacks(), "rpc.(*Server).acquire")
	})

	closed := make(chan struct{})
	go func() {
		srv.Close()
		close(closed)
	}()
	select {
	case <-closed:
		t.Fatal("Close returned while a handler was still running")
	case <-time.After(50 * time.Millisecond):
	}
	close(release)
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatalf("Close hung with a saturated pool:\n%s", serverStacks())
	}
	// Close has waited for every server goroutine; allow the last ones
	// to return from their deferred calls.
	waitFor(t, "server goroutines to exit", func() bool { return serverStacks() == "" })
}

// deepStack needs about depth KiB of stack, as the metadata server's
// read path does (dispatch, resolve, store get, SSTable and skiplist
// lookups): a goroutine started for it grows its stack several times.
//
//go:noinline
func deepStack(depth int) byte {
	var pad [1024]byte
	pad[depth%len(pad)] = byte(depth)
	if depth == 0 {
		return pad[0]
	}
	return deepStack(depth-1) + pad[depth%len(pad)]
}

// BenchmarkServerDispatch is one loopback round trip to a handler that
// needs 16 KiB of stack, from one and from two concurrent callers sharing
// a connection: the cost of the server's dispatch beside the wire's.
func BenchmarkServerDispatch(b *testing.B) {
	for _, callers := range []int{1, 2} {
		b.Run(fmt.Sprintf("callers=%d", callers), func(b *testing.B) {
			srv := NewServer()
			srv.HandleInfo(1, func(_ CallInfo, body []byte, resp *Wire) error {
				resp.Raw([]byte{deepStack(16)})
				return nil
			})
			addr, err := srv.Listen("127.0.0.1:0")
			if err != nil {
				b.Fatal(err)
			}
			defer srv.Close()
			c, err := Dial(addr)
			if err != nil {
				b.Fatal(err)
			}
			defer c.Close()
			req := make([]byte, 32)
			b.ReportAllocs()
			b.ResetTimer()
			var wg sync.WaitGroup
			for g := 0; g < callers; g++ {
				wg.Add(1)
				go func(n int) {
					defer wg.Done()
					var buf []byte
					for i := 0; i < n; i++ {
						out, err := c.CallInto(telemetry.SpanContext{}, 1, req, buf[:0])
						if err != nil {
							b.Error(err)
							return
						}
						buf = out
					}
				}((b.N + g) / callers)
			}
			wg.Wait()
		})
	}
}
