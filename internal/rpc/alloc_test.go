package rpc

import (
	"testing"

	"origami/internal/racedetect"
	"origami/internal/telemetry"
)

// TestEchoAllocBudget pins what one request/response round trip over
// loopback may allocate, both ends together (testing.AllocsPerRun counts
// the whole process): the response body Call hands its caller — and
// nothing with CallInto, which receives into the caller's buffer. Frame
// buffers, headers, call records and reply channels are all recycled, and
// the handler goroutine is a reused worker. This is the number the
// repository benchmark reports as rpc.echo_allocs_per_call.
func TestEchoAllocBudget(t *testing.T) {
	if racedetect.Enabled {
		t.Skip("allocation counts do not hold under the race detector")
	}
	const callBudget, callIntoBudget = 1, 0
	srv := NewServer()
	reply := make([]byte, 64)
	srv.Handle(1, func([]byte) ([]byte, error) { return reply, nil })
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cli, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	req := make([]byte, 32)
	call := func() {
		if _, err := cli.Call(1, req); err != nil {
			t.Fatal(err)
		}
	}
	var buf []byte
	callInto := func() {
		out, err := cli.CallInto(telemetry.SpanContext{}, 1, req, buf[:0])
		if err != nil {
			t.Fatal(err)
		}
		buf = out
	}
	for i := 0; i < 100; i++ { // warm the pools and the connection's buffers
		call()
		callInto()
	}
	if got := testing.AllocsPerRun(500, call); got > callBudget {
		t.Errorf("Call allocates %.2f objects per round trip, budget %d", got, callBudget)
	}
	if got := testing.AllocsPerRun(500, callInto); got > callIntoBudget {
		t.Errorf("CallInto allocates %.2f objects per round trip, budget %d", got, callIntoBudget)
	}
}
