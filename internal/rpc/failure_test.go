package rpc

import (
	"net"
	"testing"
	"time"
)

func TestHandlerPanicBecomesError(t *testing.T) {
	srv := NewServer()
	srv.Handle(1, func(b []byte) ([]byte, error) {
		panic("handler exploded")
	})
	srv.Handle(2, func(b []byte) ([]byte, error) {
		return []byte("fine"), nil
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
	if _, err := c.Call(1, nil); err == nil {
		t.Error("panicking handler returned success")
	}
	// The connection must survive the panic.
	out, err := c.Call(2, nil)
	if err != nil || string(out) != "fine" {
		t.Errorf("connection dead after handler panic: %q, %v", out, err)
	}
}

func TestOversizedFrameRejected(t *testing.T) {
	srv := NewServer()
	srv.Handle(1, func(b []byte) ([]byte, error) { return b, nil })
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
	if _, err := c.Call(1, make([]byte, MaxFrame)); err == nil {
		t.Error("oversized frame accepted")
	}
	// Normal traffic still works (the oversized frame was rejected
	// client-side, before hitting the wire).
	if _, err := c.Call(1, []byte("ok")); err != nil {
		t.Errorf("connection unusable after oversized frame: %v", err)
	}
}

// TestServerCloseRacingAccept closes servers while a client keeps
// dialing them: a connection accepted as Close runs must not be left
// open, or Close waits on its reader forever.
func TestServerCloseRacingAccept(t *testing.T) {
	for i := 0; i < 200; i++ {
		srv := NewServer()
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		var conns []net.Conn
		stop, dialing, done := make(chan struct{}), make(chan struct{}), make(chan struct{})
		go func() {
			defer close(done)
			for {
				if conn, err := net.Dial("tcp", addr); err == nil {
					if conns = append(conns, conn); len(conns) == 1 {
						close(dialing)
					}
				}
				select {
				case <-stop:
					return
				default:
				}
			}
		}()
		<-dialing
		closed := make(chan struct{})
		go func() {
			srv.Close()
			close(closed)
		}()
		select {
		case <-closed:
		case <-time.After(5 * time.Second):
			t.Fatalf("round %d: Close hung on a connection accepted while it ran", i)
		}
		close(stop)
		<-done
		for _, c := range conns {
			c.Close()
		}
	}
}
