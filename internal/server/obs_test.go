package server

// Observability-plane smoke: one client operation against a
// sync-replicated TCP cluster must yield a single assembled trace tree
// whose spans cross the client SDK, rpc dispatch, MDS handler, kvstore
// commit, and replication ack layers; the coordinator's merged cluster
// snapshot must cover every live MDS. Run via `make obs-smoke`.

import (
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"origami/internal/client"
	"origami/internal/telemetry"
)

// startObsCluster boots an n-shard cluster with synchronous replication
// plus an SDK client — the topology the trace-tree assertions need (sync
// mode puts the repl.sync_ack wait on the write path).
func startObsCluster(t *testing.T, n int) (*Cluster, *client.Client) {
	t.Helper()
	cl, err := StartClusterConfig(n, t.TempDir(), ClusterConfig{CommitMode: "sync-repl"})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	if err := cl.EnableReplication(nil); err != nil {
		t.Fatal(err)
	}
	sdk, err := client.Dial(client.Config{Addrs: cl.Addrs, Cache: "leases"})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sdk.Close() })
	return cl, sdk
}

func TestObsSmokeTraceTree(t *testing.T) {
	_, sdk := startObsCluster(t, 3)
	if _, err := sdk.Mkdir("/obs"); err != nil {
		t.Fatal(err)
	}
	if _, err := sdk.Create("/obs/file"); err != nil {
		t.Fatal(err)
	}

	traceID := sdk.LastTraceID()
	if traceID == 0 {
		t.Fatal("client recorded no trace ID for the create")
	}
	spans, err := sdk.GatherTrace(traceID)
	if err != nil {
		t.Fatalf("gather trace %s: %v", telemetry.FormatTraceID(traceID), err)
	}
	roots := telemetry.AssembleTrace(spans)
	if len(roots) != 1 {
		t.Fatalf("assembled %d roots, want 1 (spans: %d)", len(roots), len(spans))
	}
	if roots[0].Name != "client.op.create" {
		t.Errorf("root span = %q, want client.op.create", roots[0].Name)
	}

	comps := telemetry.Components(roots)
	for _, want := range []string{"client", "rpc", "mds", "kvstore", "repl"} {
		found := false
		for _, c := range comps {
			if c == want {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("trace is missing a %s span (components: %v)", want, comps)
		}
	}
	if len(comps) < 4 {
		t.Errorf("trace crosses %d components (%v), want >= 4", len(comps), comps)
	}

	nodes := map[string]bool{}
	for _, s := range spans {
		nodes[s.Node] = true
	}
	if len(nodes) < 2 {
		t.Errorf("trace spans come from %d node(s) %v, want >= 2 (client + at least one MDS)", len(nodes), nodes)
	}

	// Every non-root span must hang off the tree: a parent link broken by
	// propagation would surface as a second root above.
	var count func(n *telemetry.TraceNode) int
	count = func(n *telemetry.TraceNode) int {
		total := 1
		for _, c := range n.Children {
			total += count(c)
		}
		return total
	}
	if got := count(roots[0]); got != len(spans) {
		t.Errorf("tree holds %d spans, gathered %d — orphaned parent links", got, len(spans))
	}

	// Below the handler the chain is mds.op.* → kvstore.commit →
	// repl.sync_ack: each layer parents its span on the one above.
	byID := map[uint64]telemetry.Span{}
	for _, s := range spans {
		byID[s.SpanID] = s
	}
	chained := map[string]int{}
	for _, s := range spans {
		parent := byID[s.ParentID].Name
		switch s.Name {
		case "kvstore.commit":
			if !strings.HasPrefix(parent, "mds.op.") {
				t.Errorf("kvstore.commit parented on %q, want an mds.op.* span", parent)
			}
		case "repl.sync_ack":
			if parent != "kvstore.commit" {
				t.Errorf("repl.sync_ack parented on %q, want kvstore.commit", parent)
			}
		}
		chained[s.Name]++
	}
	if chained["kvstore.commit"] == 0 || chained["repl.sync_ack"] == 0 {
		t.Errorf("create recorded %d kvstore.commit and %d repl.sync_ack spans, want both",
			chained["kvstore.commit"], chained["repl.sync_ack"])
	}
}

func TestObsSmokeTraceCLIRoundTrip(t *testing.T) {
	// The `origami-cli trace <id>` path: parse the formatted ID back and
	// fetch the per-node dump over the MethodTraces RPC directly.
	_, sdk := startObsCluster(t, 2)
	if _, err := sdk.Create("/f"); err != nil {
		t.Fatal(err)
	}
	traceID := sdk.LastTraceID()
	formatted := telemetry.FormatTraceID(traceID)
	if len(formatted) != 16 {
		t.Fatalf("formatted trace ID %q, want 16 hex chars", formatted)
	}
	var parsed uint64
	if _, err := fmt.Sscanf(formatted, "%x", &parsed); err != nil || parsed != traceID {
		t.Fatalf("round-trip of %q = %x, want %x", formatted, parsed, traceID)
	}
	dump, err := sdk.FetchTraces(0, traceID)
	if err != nil {
		t.Fatal(err)
	}
	if dump.Node != "mds0" {
		t.Errorf("dump node = %q, want mds0", dump.Node)
	}
	if len(dump.Spans) == 0 {
		t.Error("MDS 0 returned no spans for the create's trace")
	}
	for _, s := range dump.Spans {
		if s.TraceID != traceID {
			t.Errorf("span %x belongs to trace %x, asked for %x", s.SpanID, s.TraceID, traceID)
		}
	}
}

func TestObsSmokeClusterSnapshot(t *testing.T) {
	cl, sdk := startObsCluster(t, 3)
	co := NewCoordinator(cl)
	co.RegisterAdmin(cl.Services[0].Server())
	if _, err := sdk.Create("/snap"); err != nil {
		t.Fatal(err)
	}

	body, err := sdk.FetchClusterMetrics()
	if err != nil {
		t.Fatal(err)
	}
	var snap struct {
		MapVersion uint64                        `json:"map_version"`
		Live       []int                         `json:"live"`
		Down       []int                         `json:"down"`
		Nodes      map[string]telemetry.Snapshot `json:"nodes"`
	}
	if err := json.Unmarshal(body, &snap); err != nil {
		t.Fatalf("cluster snapshot not JSON: %v", err)
	}
	if len(snap.Live) != 3 || len(snap.Down) != 0 {
		t.Errorf("live=%v down=%v, want all 3 shards live", snap.Live, snap.Down)
	}
	for i := 0; i < 3; i++ {
		name := fmt.Sprintf("mds%d", i)
		s, ok := snap.Nodes[name]
		if !ok {
			t.Errorf("snapshot is missing node %s", name)
			continue
		}
		hasOp := false
		for cname := range s.Counters {
			if strings.HasPrefix(cname, "mds.op.") || strings.HasPrefix(cname, "rpc.server.") {
				hasOp = true
				break
			}
		}
		if !hasOp {
			t.Errorf("node %s snapshot has no op counters: %v", name, s.Counters)
		}
		if _, ok := snap.Nodes[name+".replication"]; !ok {
			t.Errorf("snapshot is missing %s.replication (replication is enabled)", name)
		}
	}
	if _, ok := snap.Nodes["coordinator"]; !ok {
		t.Error("snapshot is missing the coordinator's own registry")
	}
}

func TestObsSmokeClusterSnapshotDownShard(t *testing.T) {
	// The scraper fails open: a dead shard lands in Down, the snapshot
	// still covers the survivors.
	cl, sdk := startObsCluster(t, 3)
	co := NewCoordinator(cl)
	co.RegisterAdmin(cl.Services[0].Server())
	if _, err := sdk.Create("/x"); err != nil {
		t.Fatal(err)
	}
	if err := cl.StopMDS(2); err != nil {
		t.Fatal(err)
	}

	snap := co.ClusterMetrics()
	if len(snap.Down) != 1 || snap.Down[0] != 2 {
		t.Errorf("down = %v, want [2]", snap.Down)
	}
	if len(snap.Live) != 2 {
		t.Errorf("live = %v, want the two survivors", snap.Live)
	}
	for _, name := range []string{"mds0", "mds1", "coordinator"} {
		if _, ok := snap.Nodes[name]; !ok {
			t.Errorf("snapshot is missing %s after a shard death", name)
		}
	}
	if _, ok := snap.Nodes["mds2"]; ok {
		t.Error("snapshot includes the dead shard's registry")
	}
}

func TestObsSmokeScenarioArtifacts(t *testing.T) {
	// Coordinator migrations carry their own traces: a 2PC migrate must
	// leave a coordinator.migrate root with phase children in the
	// coordinator's span store.
	cl, sdk := startObsCluster(t, 2)
	co := NewCoordinator(cl)
	in, err := sdk.Mkdir("/move")
	if err != nil {
		t.Fatal(err)
	}
	if err := co.Migrate(in.Ino, 0, 1); err != nil {
		t.Fatal(err)
	}

	tr := co.Tracer()
	if tr == nil {
		t.Fatal("coordinator has no tracer")
	}
	spans := tr.RecentSpans(0)
	var rootTrace uint64
	for _, s := range spans {
		if s.Name == "coordinator.migrate" {
			rootTrace = s.TraceID
		}
	}
	if rootTrace == 0 {
		t.Fatalf("no coordinator.migrate span recorded (spans: %+v)", spans)
	}
	roots := telemetry.AssembleTrace(tr.TraceSpans(rootTrace))
	if len(roots) != 1 || roots[0].Name != "coordinator.migrate" {
		t.Fatalf("migrate trace roots = %+v, want one coordinator.migrate", roots)
	}
	phases := map[string]bool{}
	for _, c := range roots[0].Children {
		phases[c.Name] = true
	}
	if !phases["coordinator.migrate.prepare"] || !phases["coordinator.migrate.commit"] {
		t.Errorf("migrate phases = %v, want prepare and commit children", phases)
	}
}

// TestMigrationKeepsItsTraceWithoutCoordinatorTracer: a coordinator that
// records nothing still mints the migration's trace ID and sends it with
// every 2PC frame, so the source shard's dispatch spans share one trace.
func TestMigrationKeepsItsTraceWithoutCoordinatorTracer(t *testing.T) {
	cl, sdk := startObsCluster(t, 2)
	co := NewCoordinator(cl)
	co.tracer = nil
	in, err := sdk.Mkdir("/move")
	if err != nil {
		t.Fatal(err)
	}
	if err := co.Migrate(in.Ino, 0, 1); err != nil {
		t.Fatal(err)
	}
	traces := map[uint64]bool{}
	phases := map[string]bool{}
	for _, s := range cl.Services[0].Tracer().RecentSpans(0) {
		if strings.HasPrefix(s.Name, "rpc.server.migrate_") {
			traces[s.TraceID] = true
			phases[s.Name] = true
		}
	}
	if !phases["rpc.server.migrate_prepare"] || !phases["rpc.server.migrate_commit"] {
		t.Fatalf("source recorded migrate spans %v, want prepare and commit", phases)
	}
	if len(traces) != 1 || traces[0] {
		t.Errorf("source migrate spans span trace IDs %v, want one nonzero ID", traces)
	}
}
