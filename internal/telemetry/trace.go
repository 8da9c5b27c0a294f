package telemetry

import (
	"context"
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

// WithTraceID attaches a trace ID to a context: a span context with no
// current span, so the next span started from it is a root.
func WithTraceID(ctx context.Context, id uint64) context.Context {
	return WithSpanContext(ctx, SpanContext{TraceID: id})
}

// TraceIDFrom extracts the context's trace ID, or 0 when none is attached.
func TraceIDFrom(ctx context.Context) uint64 {
	return SpanContextFrom(ctx).TraceID
}

// EnsureTraceID returns a context that carries a trace ID, minting a new
// one when the input has none, plus the ID itself.
func EnsureTraceID(ctx context.Context) (context.Context, uint64) {
	if ctx == nil {
		ctx = context.Background()
	}
	if id := TraceIDFrom(ctx); id != 0 {
		return ctx, id
	}
	id := NewTraceID()
	return WithTraceID(ctx, id), id
}
