package server

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"strings"
	"testing"

	"origami/internal/telemetry"
)

// TestTraceSurvivesClientToMDS drives one SDK operation with debug-level
// span logging and asserts the trace ID generated at the client appears
// verbatim in an MDS-side span record: client → RPC frame → handler →
// logger, end to end.
func TestTraceSurvivesClientToMDS(t *testing.T) {
	var buf bytes.Buffer
	telemetry.SetLogOutput(&buf)
	telemetry.SetLogLevel(telemetry.LevelDebug)
	t.Cleanup(func() {
		telemetry.SetLogOutput(os.Stderr)
		telemetry.SetLogLevel(telemetry.LevelInfo)
	})

	_, sdk := startTestCluster(t, 2)
	if _, err := sdk.Mkdir("/traced"); err != nil {
		t.Fatal(err)
	}

	out := buf.String()
	clientSpan := regexp.MustCompile(`client: span trace=([0-9a-f]{16}) op=mkdir`)
	m := clientSpan.FindStringSubmatch(out)
	if m == nil {
		t.Fatalf("no client mkdir span in log:\n%s", out)
	}
	trace := m[1]
	if trace == strings.Repeat("0", 16) {
		t.Fatal("client span carries a zero trace ID")
	}
	mdsSpan := regexp.MustCompile(`mds: span mds=\d+ trace=` + trace)
	if !mdsSpan.MatchString(out) {
		t.Errorf("trace %s never reached an MDS span:\n%s", trace, out)
	}

	// The RPC layer must not have detected any response-echo mismatch.
	var snap telemetry.Snapshot
	var jbuf bytes.Buffer
	if err := sdk.Registry().WriteJSON(&jbuf); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(jbuf.Bytes(), &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Counters["rpc.client.trace_mismatch"] != 0 {
		t.Errorf("trace_mismatch = %d", snap.Counters["rpc.client.trace_mismatch"])
	}
}

// TestMDSMetricsOverRPC exercises the MethodMetrics twin of the admin
// endpoint: after a workload, each MDS returns a JSON registry snapshot
// with nonzero per-op latency histograms.
func TestMDSMetricsOverRPC(t *testing.T) {
	_, sdk := startTestCluster(t, 2)
	if _, err := sdk.Mkdir("/m"); err != nil {
		t.Fatal(err)
	}
	if _, err := sdk.Create("/m/f"); err != nil {
		t.Fatal(err)
	}
	if _, err := sdk.Stat("/m/f"); err != nil {
		t.Fatal(err)
	}

	body, err := sdk.FetchMetrics(0)
	if err != nil {
		t.Fatal(err)
	}
	var snap telemetry.Snapshot
	if err := json.Unmarshal(body, &snap); err != nil {
		t.Fatalf("metrics JSON: %v\n%s", err, body)
	}
	// Per-kind op histograms count sub-ops (mkdir + create), the rpc
	// layer counts the frames that carried them, and no per-frame mds.op
	// histogram exists beside the per-kind ones.
	if got := snap.Histograms["mds.op.create.latency_ns"].Count; got != 2 {
		t.Errorf("create latency histogram count = %d after mkdir+create, want 2", got)
	}
	if snap.Histograms["rpc.server.batch.latency_ns"].Count == 0 {
		t.Error("rpc server-side batch histogram empty")
	}
	if h, ok := snap.Histograms["mds.op.batch.latency_ns"]; ok {
		t.Errorf("per-frame mds.op.batch histogram recorded: %+v", h)
	}
	if snap.Gauges["mds.store.inodes"] <= 0 {
		t.Errorf("store inode gauge = %v", snap.Gauges["mds.store.inodes"])
	}
}

// TestCoordinatorEpochMetrics runs a balancing epoch and checks the
// coordinator registry records it, including health gauges for every
// shard.
func TestCoordinatorEpochMetrics(t *testing.T) {
	cl, sdk := startTestCluster(t, 3)
	for _, p := range []string{"/a", "/b", "/a/x", "/b/y"} {
		if _, err := sdk.Mkdir(p); err != nil {
			t.Fatal(err)
		}
	}
	co := NewCoordinator(cl)
	if _, err := co.RunEpoch(); err != nil {
		t.Fatal(err)
	}
	reg := co.Registry()
	if reg.Counter("coordinator.epoch.runs").Value() != 1 {
		t.Errorf("epochs = %d", reg.Counter("coordinator.epoch.runs").Value())
	}
	if reg.Histogram("coordinator.epoch.duration_ns").Count() != 1 {
		t.Error("epoch duration histogram empty")
	}
	for i := 0; i < 3; i++ {
		name := "coordinator.health.mds_" + string(rune('0'+i))
		if got := reg.Gauge(name).Value(); got != float64(Up) {
			t.Errorf("%s = %v, want %v (up)", name, got, float64(Up))
		}
	}
}
