package server

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"origami/internal/mds"
	"origami/internal/rpc"
)

// TestDumpErrorSkipsShardWithoutDemotingIt: a shard that answers its dump
// with an error, as one past the 16 MiB response limit does, is alive.
// The epoch skips it, and only a transport failure would demote it.
func TestDumpErrorSkipsShardWithoutDemotingIt(t *testing.T) {
	cl, _ := startTestCluster(t, 2)
	co := NewCoordinator(cl)
	const victim = 1
	cl.Services[victim].Server().SetFaultInjector(rpc.InjectorFunc(func(p rpc.InjectPoint, m rpc.Method) rpc.Fault {
		if p == rpc.PointServerRecv && m == mds.MethodDump {
			return rpc.Fault{Action: rpc.FaultError}
		}
		return rpc.Fault{}
	}))
	res, err := co.RunEpoch()
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Contains(res.SkippedMDS, victim) {
		t.Errorf("SkippedMDS = %v, want it to hold MDS %d", res.SkippedMDS, victim)
	}
	if st := co.Health.State(victim); st != Up {
		t.Errorf("MDS %d health = %v after answering its dump with an error, want up", victim, st)
	}
}

// TestDegradedEpochAndReconciliation is the fault-tolerance acceptance
// scenario: with one of five MDSs down, a balancing epoch must complete
// degraded (dead shard skipped, its decisions rejected), the survivors
// must converge on one partition-map version, and after the MDS comes
// back a reconciliation round must restore a consistent cluster-wide map.
func TestDegradedEpochAndReconciliation(t *testing.T) {
	cl, sdk := startTestCluster(t, 5)
	co := NewCoordinator(cl)

	// Four equally hot subtrees, all on MDS 0, so the planner spreads
	// migrations over several destinations — at most one decision can
	// target the down MDS (which looks idle in its zeroed dump slot).
	for s := 0; s < 4; s++ {
		if _, err := sdk.Mkdir(fmt.Sprintf("/t%d", s)); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 8; i++ {
			if _, err := sdk.Create(fmt.Sprintf("/t%d/f%d", s, i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	for round := 0; round < 200; round++ {
		for s := 0; s < 4; s++ {
			if _, err := sdk.Stat(fmt.Sprintf("/t%d/f%d", s, round%8)); err != nil {
				t.Fatal(err)
			}
		}
	}

	// Take MDS 4 down: every request it receives severs its connection,
	// so coordinator calls fail fast instead of timing out.
	const victim = 4
	cl.Services[victim].Server().SetFaultInjector(rpc.DownInjector())

	res, err := co.RunEpoch()
	if err != nil {
		t.Fatalf("RunEpoch with a down MDS: %v", err)
	}
	if !res.Degraded() {
		t.Fatal("epoch with a down MDS not reported degraded")
	}
	if len(res.SkippedMDS) != 1 || res.SkippedMDS[0] != victim {
		t.Errorf("SkippedMDS = %v, want [%d]", res.SkippedMDS, victim)
	}
	if st := co.Health.State(victim); st != Down {
		t.Errorf("victim health = %v, want down", st)
	}
	if len(res.Applied) == 0 {
		t.Fatal("degraded epoch applied no migrations")
	}
	for _, d := range res.Applied {
		if int(d.From) == victim || int(d.To) == victim {
			t.Errorf("applied migration %v touches the down MDS", d)
		}
	}

	// Survivors converge on the published map version; the victim missed
	// the publish and is queued for reconciliation.
	if res.MapVersion == 0 {
		t.Fatal("degraded epoch published no map")
	}
	for i := 0; i < victim; i++ {
		if v := cl.Services[i].MapVersion(); v != res.MapVersion {
			t.Errorf("MDS %d map version %d, want %d", i, v, res.MapVersion)
		}
	}
	stale := false
	for _, id := range res.StaleMDS {
		if id == victim {
			stale = true
		}
	}
	if !stale {
		t.Errorf("StaleMDS = %v, want it to include %d", res.StaleMDS, victim)
	}

	// Clients keep operating against the degraded cluster (all data lives
	// on the survivors).
	for s := 0; s < 4; s++ {
		for i := 0; i < 8; i++ {
			if _, err := sdk.Stat(fmt.Sprintf("/t%d/f%d", s, i)); err != nil {
				t.Errorf("degraded stat /t%d/f%d: %v", s, i, err)
			}
		}
	}

	// "Restart" the victim and wait until a heartbeat goes green (the
	// coordinator's connection redials in the background).
	cl.Services[victim].Server().SetFaultInjector(nil)
	deadline := time.Now().Add(5 * time.Second)
	for co.Health.Check(victim) != Up {
		if time.Now().After(deadline) {
			t.Fatalf("victim did not recover: %v", co.Health.LastErr(victim))
		}
		time.Sleep(10 * time.Millisecond)
	}

	// One reconciliation round catches the victim's map up.
	updated := co.Reconcile()
	caught := false
	for _, id := range updated {
		if id == victim {
			caught = true
		}
	}
	if !caught {
		t.Errorf("Reconcile updated %v, want it to include %d", updated, victim)
	}
	for i := 0; i < 5; i++ {
		if v := cl.Services[i].MapVersion(); v != co.MapVersion() {
			t.Errorf("MDS %d map version %d after reconcile, want %d", i, v, co.MapVersion())
		}
	}

	// The next epoch runs clean over the full cluster.
	res2, err := co.RunEpoch()
	if err != nil {
		t.Fatalf("post-recovery RunEpoch: %v", err)
	}
	if len(res2.SkippedMDS) != 0 {
		t.Errorf("post-recovery epoch skipped %v", res2.SkippedMDS)
	}
}

// TestRunEpochFailsOnlyWhenAllDown verifies the fail-open boundary: the
// epoch errors out only when not a single MDS can be collected.
func TestRunEpochFailsOnlyWhenAllDown(t *testing.T) {
	cl, _ := startTestCluster(t, 2)
	co := NewCoordinator(cl)
	for i := range cl.Services {
		cl.Services[i].Server().SetFaultInjector(rpc.DownInjector())
	}
	res, err := co.RunEpoch()
	if err == nil {
		t.Fatal("RunEpoch with every MDS down reported success")
	}
	if len(res.SkippedMDS) != 2 {
		t.Errorf("SkippedMDS = %v, want both", res.SkippedMDS)
	}
}
