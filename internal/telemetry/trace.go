package telemetry

import (
	cryptorand "crypto/rand"
	"encoding/binary"
	"fmt"
	"sync/atomic"
)

// Trace IDs tie one client operation to every RPC, handler invocation,
// and span record it produces across the cluster. An ID is a nonzero
// uint64; zero on the wire means "no trace attached".

var traceState atomic.Uint64

func init() {
	var seed [8]byte
	if _, err := cryptorand.Read(seed[:]); err == nil {
		traceState.Store(binary.BigEndian.Uint64(seed[:]))
	}
}

// NewTraceID returns a nonzero, well-distributed trace ID. IDs are unique
// within a process (atomic sequence) and unlikely to collide across
// processes (random base, splitmix64 finalizer).
func NewTraceID() uint64 {
	x := traceState.Add(0x9E3779B97F4A7C15)
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	if x == 0 {
		x = 1
	}
	return x
}

// FormatTraceID renders an ID the way span records log it.
func FormatTraceID(id uint64) string { return fmt.Sprintf("%016x", id) }
