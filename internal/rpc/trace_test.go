package rpc

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"time"

	"origami/internal/telemetry"
)

// TestTracePropagation sends a request on behalf of a traced span
// and asserts the handler sees the same ID via CallInfo and the response
// echo matches (trace_mismatch stays zero).
func TestTracePropagation(t *testing.T) {
	srv := NewServer()
	seen := make(chan uint64, 1)
	srv.HandleInfo(7, func(info CallInfo, body []byte, resp *Wire) error {
		seen <- info.TraceID
		resp.Raw(body)
		return nil
	})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })

	reg := telemetry.NewRegistry()
	c, err := DialOptions(addr, ClientOptions{Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const trace = uint64(0xdeadbeefcafe)
	if _, err := c.CallInto(telemetry.SpanContext{TraceID: trace}, 7, []byte("x"), nil); err != nil {
		t.Fatal(err)
	}
	if got := <-seen; got != trace {
		t.Errorf("handler saw trace %016x, want %016x", got, trace)
	}
	if n := reg.Counter("rpc.client.trace_mismatch").Value(); n != 0 {
		t.Errorf("trace_mismatch = %d, want 0", n)
	}

	// Calls without a trace carry zero and still work.
	if _, err := c.Call(7, []byte("y")); err != nil {
		t.Fatal(err)
	}
	if got := <-seen; got != 0 {
		t.Errorf("traceless call delivered trace %016x", got)
	}
}

// TestClientServerMetrics checks that both ends count and time calls
// under per-method names, including error tallies.
func TestClientServerMetrics(t *testing.T) {
	srv := NewServer()
	srv.Handle(1, func(body []byte) ([]byte, error) { return body, nil })
	srv.Handle(2, func(body []byte) ([]byte, error) {
		return nil, &RemoteError{Method: 2, Msg: "boom"}
	})
	sreg := telemetry.NewRegistry()
	// A handler sees its own request counted: a scrape reports itself.
	srv.Handle(3, func([]byte) ([]byte, error) {
		return []byte(fmt.Sprint(sreg.Counter("rpc.server.m3.requests").Value())), nil
	})
	srv.SetTelemetry(sreg, func(m Method) string {
		if m == 1 {
			return "echo"
		}
		return ""
	})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })

	creg := telemetry.NewRegistry()
	c, err := DialOptions(addr, ClientOptions{
		Registry: creg,
		MethodName: func(m Method) string {
			if m == 1 {
				return "echo"
			}
			return ""
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	for i := 0; i < 3; i++ {
		if _, err := c.Call(1, []byte("hi")); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.Call(2, nil); err == nil {
		t.Fatal("error method succeeded")
	}
	if out, err := c.Call(3, nil); err != nil || string(out) != "1" {
		t.Errorf("handler saw its own request counted %q times (err %v), want 1", out, err)
	}

	if n := creg.Counter("rpc.client.echo.calls").Value(); n != 3 {
		t.Errorf("client echo calls = %d, want 3", n)
	}
	if n := creg.Histogram("rpc.client.echo.latency_ns").Count(); n != 3 {
		t.Errorf("client echo latency count = %d, want 3", n)
	}
	if n := creg.Counter("rpc.client.m2.errors").Value(); n != 1 {
		t.Errorf("client m2 errors = %d, want 1", n)
	}
	if n := sreg.Counter("rpc.server.echo.requests").Value(); n != 3 {
		t.Errorf("server echo requests = %d, want 3", n)
	}
	if n := sreg.Counter("rpc.server.m2.errors").Value(); n != 1 {
		t.Errorf("server m2 errors = %d, want 1", n)
	}
	if sreg.Histogram("rpc.server.echo.latency_ns").Snapshot().Count != 3 {
		t.Error("server echo latency histogram empty")
	}
}

// TestReconnectLogging drops the server and asserts the structured
// logger records the loss, and the reconnect counter fires once the
// server returns.
func TestReconnectLogging(t *testing.T) {
	srv := NewServer()
	srv.Handle(1, func(body []byte) ([]byte, error) { return body, nil })
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	reg := telemetry.NewRegistry()
	c, err := DialOptions(addr, ClientOptions{
		Reconnect: true,
		Registry:  reg,
		Logger:    telemetry.NewLogger(&buf, "rpc", telemetry.LevelInfo),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Call(1, []byte("a")); err != nil {
		t.Fatal(err)
	}

	srv.Close()
	srv2 := NewServer()
	srv2.Handle(1, func(body []byte) ([]byte, error) { return body, nil })
	if _, err := srv2.Listen(addr); err != nil {
		t.Fatalf("relisten: %v", err)
	}
	t.Cleanup(func() { srv2.Close() })

	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, err := c.Call(1, []byte("b")); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("client never reconnected")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if n := reg.Counter("rpc.client.reconnects").Value(); n < 1 {
		t.Errorf("reconnects = %d, want >= 1", n)
	}
	out := buf.String()
	if !strings.Contains(out, "connection lost") {
		t.Errorf("missing connection-lost record: %q", out)
	}
	if !strings.Contains(out, "reconnected") {
		t.Errorf("missing reconnected record: %q", out)
	}
}
