package rpc

import (
	"bufio"
	"net"
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
// the semaphore (a) actually bounds concurrent handlers and (b) releases
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
