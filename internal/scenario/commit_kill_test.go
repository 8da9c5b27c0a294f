package scenario

import (
	"path/filepath"
	"testing"
)

// TestChaosAsyncCommitKill runs the async-commit-kill scenario: a
// batching client storms a fleet running the async commit policy, the
// pinned primary is killed mid-storm, and the loss-window assertion
// checks the acked-but-lost tail against the budget the fleet's own
// config promises (commit window + the shipper's unshipped tail). The
// workload's batched frames mean the kill lands on multi-op frames in
// flight, so the post-failover resends go through the per-op-ID replay
// path instead of double-applying.
func TestChaosAsyncCommitKill(t *testing.T) {
	if testing.Short() {
		t.Skip("spins up a real cluster")
	}
	res, err := RunFile(filepath.Join("..", "..", "scenarios", "async-commit-kill.yaml"), Options{BaseDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range res.Assertions {
		if !a.Passed {
			t.Errorf("assert FAIL %-14s %s", a.Kind, a.Detail)
		}
	}
	if res.ClientMetrics == nil {
		t.Fatal("no client metrics in result")
	}
	if res.ClientMetrics.Counters["client.batch.frames"] == 0 {
		t.Error("workload batch: 16 produced no batched frames — the kill never exercised multi-op replay")
	}
	t.Logf("batch frames=%d resends=%d replays=%d; acked=%d lost=%d",
		res.ClientMetrics.Counters["client.batch.frames"],
		res.ClientMetrics.Counters["client.batch.resends"],
		res.ClientMetrics.Counters["client.batch.replays"],
		res.Workload.Acked, res.Workload.Lost)
}

// TestChaosSyncCommitLossWindow pins the other side of the per-mode
// claim: the same kill under the sync policies must lose nothing acked.
// kill-primary-sync asserts loss-window; this checks that the budget it
// computes is exactly zero for a sync-replication fleet.
func TestChaosSyncCommitLossWindow(t *testing.T) {
	sc, err := ParseFile(filepath.Join("..", "..", "scenarios", "kill-primary-sync.yaml"))
	if err != nil {
		t.Fatal(err)
	}
	if got := lossWindowBound(sc); got != 0 {
		t.Errorf("sync-replication fleet computed loss budget %d, want 0", got)
	}
	if got := sc.Fleet.CommitMode; got != "sync-repl" {
		t.Errorf("commit mode %q, want sync-repl", got)
	}
}

// TestLibraryLossWindowBounds pins the budget loss-window computes for
// every library scenario, and which of them assert it. The assertion
// takes no hand-written bound, so this table is where a scenario's
// promise is written down: a fleet-config edit that loosens a budget
// fails here.
func TestLibraryLossWindowBounds(t *testing.T) {
	want := map[string]struct {
		bound   int
		asserts bool
	}{
		"async-commit-kill.yaml":      {64 + 2048 + 256, true}, // commit window + backlog + ship window
		"backup-promotion-chain.yaml": {0, true},
		"cascading-failover.yaml":     {0, true},
		"flash-crowd-hot-dir.yaml":    {0, false},
		"kill-owner-warm-cache.yaml":  {0, true},
		"kill-primary-async.yaml":     {2048 + 256, true}, // backlog + ship window
		"kill-primary-sync.yaml":      {0, true},
		"migration-storm-churn.yaml":  {0, false},
		"packet-drop-degraded.yaml":   {0, false},
		"partition-latency.yaml":      {0, false},
		"partition-stale-map.yaml":    {0, false},
		"read-flash-crowd.yaml":       {0, true},
		"retrain-under-kill.yaml":     {0, false},
		"slow-disk-tail.yaml":         {0, false},
		"stat-storm-warm-cache.yaml":  {0, false},
		"trace-replay-churn.yaml":     {0, false},
	}
	files, err := filepath.Glob(filepath.Join("..", "..", "scenarios", "*.yaml"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != len(want) {
		t.Errorf("library has %d scenarios, table has %d", len(files), len(want))
	}
	for _, file := range files {
		name := filepath.Base(file)
		w, ok := want[name]
		if !ok {
			t.Errorf("%s: not in the table", name)
			continue
		}
		sc, err := ParseFile(file)
		if err != nil {
			t.Fatal(err)
		}
		if got := lossWindowBound(sc); got != w.bound {
			t.Errorf("%s: loss-window budget %d, want %d", name, got, w.bound)
		}
		asserts := false
		for _, a := range sc.Assertions {
			asserts = asserts || a.Kind == AssertLossWindow
		}
		if asserts != w.asserts {
			t.Errorf("%s: asserts loss-window = %v, want %v", name, asserts, w.asserts)
		}
	}
}
