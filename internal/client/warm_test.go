package client_test

import (
	"testing"

	"origami/internal/client"
	"origami/internal/racedetect"
	"origami/internal/server"
)

// warmFork dials an untraced SDK at a one-MDS cluster and returns a fork
// whose lease cache holds /w/a/b/f and the complete listing of /w/a/b.
func warmFork(tb testing.TB) *client.Client {
	tb.Helper()
	cl, err := server.StartCluster(1, tb.TempDir())
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(cl.Close)
	root, err := client.Dial(client.Config{Addrs: cl.Addrs, TraceSampleRate: -1})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { root.Close() })
	sdk := root.Fork()
	for _, dir := range []string{"/w", "/w/a", "/w/a/b"} {
		if _, err := sdk.Mkdir(dir); err != nil {
			tb.Fatal(err)
		}
	}
	if _, err := sdk.Create("/w/a/b/f"); err != nil {
		tb.Fatal(err)
	}
	if _, err := sdk.Readdir("/w/a/b"); err != nil {
		tb.Fatal(err)
	}
	if _, err := sdk.Stat("/w/a/b/f"); err != nil {
		tb.Fatal(err)
	}
	return sdk
}

// TestWarmHitAllocBudget: an SDK op the lease cache answers whole — a
// Stat or a Readdir of a fully cached path — allocates nothing: its span
// identity is a value, the cached prefix is walked in place, and the
// listing is the cache's own slice.
func TestWarmHitAllocBudget(t *testing.T) {
	if racedetect.Enabled {
		t.Skip("allocation counts do not hold under the race detector")
	}
	sdk := warmFork(t)
	rpcs := sdk.RPCCount.Load()
	stat := testing.AllocsPerRun(1000, func() {
		if _, err := sdk.Stat("/w/a/b/f"); err != nil {
			t.Fatal(err)
		}
	})
	list := testing.AllocsPerRun(1000, func() {
		if _, err := sdk.Readdir("/w/a/b"); err != nil {
			t.Fatal(err)
		}
	})
	if got := sdk.RPCCount.Load() - rpcs; got != 0 {
		t.Fatalf("warm stats and readdirs cost %d RPCs", got)
	}
	if stat != 0 || list != 0 {
		t.Errorf("a warm Stat allocates %.1f objects and a warm Readdir %.1f, want 0 and 0", stat, list)
	}
}

// TestUntracedOpKeepsItsTraceID: an SDK that records no spans still mints
// a trace ID per op and sends it in every frame, so a cluster that traces
// keeps the op's server side under the ID LastTraceID reports.
func TestUntracedOpKeepsItsTraceID(t *testing.T) {
	cl, err := server.StartCluster(1, t.TempDir()) // records every trace
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	sdk, err := client.Dial(client.Config{Addrs: cl.Addrs, TraceSampleRate: -1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sdk.Close() })
	if sdk.Tracer() != nil {
		t.Fatal("TraceSampleRate -1 left the SDK a tracer")
	}
	if _, err := sdk.Create("/f"); err != nil {
		t.Fatal(err)
	}
	trace := sdk.LastTraceID()
	if trace == 0 {
		t.Fatal("an untraced op has no trace ID")
	}
	spans, err := sdk.GatherTrace(trace)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range spans {
		if s.Name == "rpc.server.batch" && s.TraceID == trace {
			return
		}
	}
	t.Errorf("trace %016x gathered %d spans, none rpc.server.batch: %+v", trace, len(spans), spans)
}

// BenchmarkWarmStat is a Stat the lease cache answers whole: three cached
// directories and the file, no RPC.
func BenchmarkWarmStat(b *testing.B) {
	sdk := warmFork(b)
	rpcs := sdk.RPCCount.Load()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sdk.Stat("/w/a/b/f"); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	// A run longer than the lease TTL re-warms the path once per TTL.
	b.ReportMetric(float64(sdk.RPCCount.Load()-rpcs)/float64(b.N), "rpcs/op")
}
