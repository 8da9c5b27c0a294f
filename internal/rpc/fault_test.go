package rpc

import (
	"errors"
	"testing"
	"time"
)

func startFaultEcho(t *testing.T) (*Server, string) {
	t.Helper()
	srv := NewServer()
	srv.Handle(1, func(b []byte) ([]byte, error) { return b, nil })
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv, addr
}

func TestCallTimeoutOnDroppedRequest(t *testing.T) {
	srv, addr := startFaultEcho(t)
	srv.SetFaultInjector(NewRuleInjector(1, Rule{
		Point: PointServerRecv, Action: FaultDrop,
	}))
	c, err := DialOptions(addr, ClientOptions{CallTimeout: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	start := time.Now()
	_, err = c.Call(1, []byte("x"))
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("dropped request returned %v, want ErrTimeout", err)
	}
	if time.Since(start) > 2*time.Second {
		t.Fatalf("timeout took %v", time.Since(start))
	}
	// The timed-out call must not leak its pending entry.
	c.pmu.Lock()
	n := len(c.pending)
	c.pmu.Unlock()
	if n != 0 {
		t.Fatalf("%d pending entries leaked after timeout", n)
	}
	// Clearing the injector restores service on the same connection.
	srv.SetFaultInjector(nil)
	if out, err := c.Call(1, []byte("ok")); err != nil || string(out) != "ok" {
		t.Fatalf("call after injector cleared: %q, %v", out, err)
	}
}

func TestReconnectAfterDisconnect(t *testing.T) {
	srv, addr := startFaultEcho(t)
	// Sever the connection on the first request only.
	srv.SetFaultInjector(NewRuleInjector(1, Rule{
		Point: PointServerRecv, Action: FaultDisconnect, Count: 1,
	}))
	c, err := DialOptions(addr, ClientOptions{
		Reconnect:   true,
		BackoffBase: time.Millisecond,
		CallTimeout: time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Call(1, []byte("boom")); !errors.Is(err, ErrClosed) {
		t.Fatalf("severed call returned %v, want ErrClosed", err)
	}
	// The client redials in the background; a retry loop (what the SDK
	// layer does) must succeed shortly after.
	deadline := time.Now().Add(2 * time.Second)
	for {
		out, err := c.Call(1, []byte("again"))
		if err == nil {
			if string(out) != "again" {
				t.Fatalf("post-reconnect echo = %q", out)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("never recovered: %v", err)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if c.Reconnects.Load() == 0 {
		t.Error("reconnect counter did not advance")
	}
}

func TestInjectedErrorAndDelay(t *testing.T) {
	_, addr := startFaultEcho(t)
	sentinel := errors.New("chaos")
	c, err := DialOptions(addr, ClientOptions{Injector: NewRuleInjector(1,
		Rule{Point: PointClientSend, Method: 7, Action: FaultError, Err: sentinel},
		Rule{Point: PointClientSend, Method: 1, Action: FaultDelay, Delay: 10 * time.Millisecond},
	)})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Call(7, nil); !errors.Is(err, sentinel) {
		t.Fatalf("injected error: got %v", err)
	}
	start := time.Now()
	if _, err := c.Call(1, []byte("slow")); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d < 10*time.Millisecond {
		t.Fatalf("delay fault not applied: %v", d)
	}
}

func TestRuleInjectorSkipCountProb(t *testing.T) {
	ri := NewRuleInjector(42, Rule{
		Point: PointServerRecv, Skip: 2, Count: 3, Action: FaultDrop,
	})
	var fired int
	for i := 0; i < 10; i++ {
		if ri.Intercept(PointServerRecv, 1).Action == FaultDrop {
			fired++
		}
	}
	if fired != 3 {
		t.Errorf("skip+count rule fired %d times, want 3", fired)
	}
	if got := ri.Fired(0); got != 3 {
		t.Errorf("Fired(0) = %d", got)
	}
	// Probabilistic rule: seeded, so the firing count is reproducible.
	pa := NewRuleInjector(7, Rule{Point: PointClientSend, Prob: 0.5, Action: FaultDrop})
	pb := NewRuleInjector(7, Rule{Point: PointClientSend, Prob: 0.5, Action: FaultDrop})
	for i := 0; i < 100; i++ {
		fa := pa.Intercept(PointClientSend, 1)
		fb := pb.Intercept(PointClientSend, 1)
		if fa.Action != fb.Action {
			t.Fatalf("same seed diverged at call %d", i)
		}
	}
}

// TestNoPendingLeakAfterReadLoopDeath is the regression test for the
// Call/readLoop race: a Call that registers its pending channel after the
// read loop has failed and drained must still be cleaned out of
// c.pending (it used to leak the entry forever).
func TestNoPendingLeakAfterReadLoopDeath(t *testing.T) {
	srv, addr := startFaultEcho(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Call(1, []byte("warm")); err != nil {
		t.Fatal(err)
	}
	// Kill the server side and wait until the read loop has finished its
	// drain (done closes after the drain).
	srv.Close()
	c.mu.Lock()
	gen := c.gen
	c.mu.Unlock()
	select {
	case <-gen.done:
	case <-time.After(2 * time.Second):
		t.Fatal("read loop never died")
	}
	// Every late call must fail with ErrClosed and leave nothing behind.
	for i := 0; i < 50; i++ {
		if _, err := c.Call(1, nil); !errors.Is(err, ErrClosed) {
			t.Fatalf("late call %d returned %v, want ErrClosed", i, err)
		}
	}
	c.pmu.Lock()
	n := len(c.pending)
	c.pmu.Unlock()
	if n != 0 {
		t.Fatalf("%d pending entries leaked after connection death", n)
	}
}

func TestDownInjectorFailsFast(t *testing.T) {
	srv, addr := startFaultEcho(t)
	srv.SetFaultInjector(DownInjector())
	c, err := DialOptions(addr, ClientOptions{
		Reconnect:   true,
		BackoffBase: time.Millisecond,
		CallTimeout: time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// Every call fails quickly (no hanging on a dead shard).
	start := time.Now()
	for i := 0; i < 5; i++ {
		if _, err := c.Call(1, nil); err == nil {
			t.Fatal("call to downed server succeeded")
		}
		time.Sleep(2 * time.Millisecond) // let the redial land
	}
	if d := time.Since(start); d > 3*time.Second {
		t.Fatalf("downed-server calls took %v", d)
	}
	// Revive and verify recovery through the same client.
	srv.SetFaultInjector(nil)
	deadline := time.Now().Add(2 * time.Second)
	for {
		if _, err := c.Call(1, []byte("up")); err == nil {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("client never recovered after injector cleared")
		}
		time.Sleep(5 * time.Millisecond)
	}
}
