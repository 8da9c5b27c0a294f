package mds

import (
	"fmt"
	"testing"

	"origami/internal/commit"
	"origami/internal/namespace"
	"origami/internal/racedetect"
	"origami/internal/rpc"
	"origami/internal/telemetry"
)

// sampledWrite wires a service the way a replicated shard is for tracing:
// a tracer under cfg, a commit hook whose ack wait opens the repl.sync_ack
// span (as the replication shipper's does) and a sync-repl commit pipeline
// that runs it. It returns the MethodBatch handler as Serve registers it,
// and the span contexts the hook was handed, newest last.
func sampledWrite(t *testing.T, cfg telemetry.TracerConfig) (*Service, rpc.InfoHandler, *[]telemetry.SpanContext) {
	t.Helper()
	s := localService(t)
	tr := telemetry.NewTracer("mds0", cfg)
	s.SetTracer(tr)
	seen := new([]telemetry.SpanContext)
	s.store.SetCommitHook(func(sc telemetry.SpanContext, _ []byte, _ int) func() error {
		*seen = append((*seen)[:0], sc)
		return func() error {
			tr.StartSpanFrom(sc, "repl.sync_ack").Finish(nil)
			return nil
		}
	})
	s.store.SetCommitter(commit.NewPipeline(commit.SyncRepl, 0, nil))
	return s, s.instrument("batch", nil, s.handleBatch), seen
}

// createFrames pre-encodes n one-create MethodBatch frames under /, so a
// measured run only dispatches one.
func createFrames(n int) [][]byte {
	frames := make([][]byte, n)
	for i := range frames {
		sub := EncodeBatchCreate(0, namespace.RootIno, fmt.Sprintf("f%06d", i), namespace.TypeFile)
		frames[i] = EncodeBatchRequest(0, [][]byte{sub})
	}
	return frames
}

// TestSampledWriteAllocBudget pins what a sampled one-create frame costs
// through the MDS handler, store and commit hook: span identity crosses
// each layer as a SpanContext value, so no layer allocates a context to
// carry it. Beside it, an unsampled write (sampling off, slow capture on)
// hands the layers below the handler the zero span context: the store
// and hook open no span and the cost is the untraced one.
func TestSampledWriteAllocBudget(t *testing.T) {
	if racedetect.Enabled {
		t.Skip("allocation counts do not hold under the race detector")
	}
	const runs = 200
	for _, tc := range []struct {
		name   string
		cfg    telemetry.TracerConfig
		budget float64
	}{
		{"sampled", telemetry.TracerConfig{SampleRate: 0}, 8},
		{"unsampled", telemetry.TracerConfig{SampleRate: -1}, 6},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, h, seen := sampledWrite(t, tc.cfg)
			frames := createFrames(runs + 2) // AllocsPerRun runs once more than asked
			info := rpc.CallInfo{Method: MethodBatch, TraceID: telemetry.NewTraceID(), SpanID: 7}
			var resp rpc.Wire
			i := 0
			write := func() {
				resp.Reset()
				if err := h(info, frames[i], &resp); err != nil {
					t.Fatal(err)
				}
				i++
			}
			write() // warm: the first record sizes the log's scratch buffer
			got := testing.AllocsPerRun(runs, write)
			t.Logf("one-create %s write: %.1f allocs", tc.name, got)
			if got > tc.budget {
				t.Errorf("one-create %s write allocates %.1f objects, budget %.0f", tc.name, got, tc.budget)
			}
			sampled := tc.cfg.SampleRate >= 0
			if sc := (*seen)[0]; (sc.SpanID != 0) != sampled || (sc.TraceID == info.TraceID) != sampled {
				t.Errorf("commit hook saw span context %+v (sampled %v)", sc, sampled)
			}
		})
	}
}

// TestSampledWriteSpanChain: a sampled write's spans chain from the
// request's span through mds.op.batch and kvstore.commit to
// repl.sync_ack, each parented on the one above it.
func TestSampledWriteSpanChain(t *testing.T) {
	s, h, _ := sampledWrite(t, telemetry.TracerConfig{})
	info := rpc.CallInfo{Method: MethodBatch, TraceID: telemetry.NewTraceID(), SpanID: 7}
	var resp rpc.Wire
	if err := h(info, createFrames(1)[0], &resp); err != nil {
		t.Fatal(err)
	}
	byName := map[string]telemetry.Span{}
	for _, sp := range s.Tracer().TraceSpans(info.TraceID) {
		byName[sp.Name] = sp
	}
	parent := uint64(7)
	for _, name := range []string{"mds.op.batch", "kvstore.commit", "repl.sync_ack"} {
		sp, ok := byName[name]
		if !ok {
			t.Fatalf("no %s span in %+v", name, byName)
		}
		if sp.ParentID != parent {
			t.Errorf("%s parent = %x, want %x", name, sp.ParentID, parent)
		}
		parent = sp.SpanID
	}
}
