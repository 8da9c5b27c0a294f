// The failover chaos tests, ported onto the scenario harness. The
// write-storm-then-kill choreography that used to live here as a
// hand-rolled harness (fixed sleeps included) is now declared in
// scenarios/kill-primary-{sync,async}.yaml and executed by
// internal/scenario — one harness, not three. Timing is owned by the
// scenario timeline; every wait below is a bounded poll with a reason.
package server_test

import (
	"path/filepath"
	"testing"
	"time"

	"origami/internal/scenario"
	"origami/internal/server"
)

// runScenario executes one library scenario file and reports every
// assertion verdict through the test log. Harness errors (cluster would
// not start, bad scenario) fail immediately; a failed assertion fails
// the test with the runner's own detail string.
func runScenario(t *testing.T, name string, inspect func(cl *server.Cluster, co *server.Coordinator)) *scenario.RunResult {
	t.Helper()
	path := filepath.Join("..", "..", "scenarios", name)
	res, err := scenario.RunFile(path, scenario.Options{Inspect: inspect})
	if err != nil {
		t.Fatalf("scenario %s: %v", name, err)
	}
	for _, a := range res.Assertions {
		if a.Passed {
			t.Logf("assert ok   %-16s %s", a.Kind, a.Detail)
		} else {
			t.Errorf("assert FAIL %-16s %s", a.Kind, a.Detail)
		}
	}
	return res
}

// TestChaosFailoverSyncZeroLoss kills the primary of a write storm in
// sync mode: every acknowledged create must be readable from the
// promoted backup. This is the mode's headline guarantee, declared in
// kill-primary-sync.yaml as a loss-window assertion, whose budget for a
// sync fleet is zero.
func TestChaosFailoverSyncZeroLoss(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos test")
	}
	res := runScenario(t, "kill-primary-sync.yaml", nil)
	if res.Workload.Acked == 0 {
		t.Fatal("storm acknowledged no writes")
	}
	t.Logf("all %d acknowledged creates survived the failover", res.Workload.Acked)
}

// TestChaosFailoverAsyncBoundedLoss is the async twin: acknowledged
// creates may be lost across the kill, but only the unshipped tail —
// kill-primary-async.yaml bounds the loss at backlog + window.
func TestChaosFailoverAsyncBoundedLoss(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos test")
	}
	res := runScenario(t, "kill-primary-async.yaml", nil)
	if res.Workload.Acked == 0 {
		t.Fatal("storm acknowledged no writes")
	}
	t.Logf("async mode: %d of %d acknowledged creates lost across the failover",
		res.Workload.Lost, res.Workload.Acked)
}

// TestFailoverRetargetsReplication checks re-replication: after MDS 1
// dies and MDS 2 is promoted, the shipper that used MDS 1 as its backup
// (MDS 0 in the ring) must be retargeted to a live MDS and converge
// there. The topology checks run through the Inspect hook while the
// scenario's cluster is still up.
func TestFailoverRetargetsReplication(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos test")
	}
	runScenario(t, "kill-primary-async.yaml", func(cl *server.Cluster, co *server.Coordinator) {
		if b := cl.BackupOf(0); b != 2 {
			t.Errorf("MDS 0's backup is %d after the failover, want 2", b)
		}
		converged := scenario.WaitUntil(5*time.Second, func() bool {
			st := cl.ShipperOf(0).Status()
			return st.Backup == 2 && !st.Syncing && st.Lag == 0
		})
		if !converged {
			t.Errorf("MDS 0's stream never converged on the new backup: %+v",
				cl.ShipperOf(0).Status())
		}
		status := cl.ReplicationStatus(2)
		if role, _ := status["role"].(string); role != "primary+backup" {
			t.Errorf("promoted MDS 2 reports role %q, want primary+backup", role)
		}
	})
}
