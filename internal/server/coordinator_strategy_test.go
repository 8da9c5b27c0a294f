package server

import (
	"encoding/json"
	"fmt"
	"testing"
	"time"

	"origami/internal/balancer"
	"origami/internal/client"
	"origami/internal/cluster"
	"origami/internal/namespace"
)

// TestCoordinatorWithPluggedStrategy drives the networked cluster with a
// balancer.Origami strategy instead of the built-in Meta-OPT planner —
// the deployment path where origami-train's model runs the live cluster.
func TestCoordinatorWithPluggedStrategy(t *testing.T) {
	cl, sdk := startTestCluster(t, 3)
	co := NewCoordinator(cl)
	co.SetStrategy(&balancer.Origami{CacheDepth: 3})

	sdk.Mkdir("/hotA")
	sdk.Mkdir("/hotB")
	for i := 0; i < 10; i++ {
		sdk.Create(fmt.Sprintf("/hotA/f%d", i))
		sdk.Create(fmt.Sprintf("/hotB/f%d", i))
	}
	for round := 0; round < 300; round++ {
		sdk.Stat(fmt.Sprintf("/hotA/f%d", round%10))
		sdk.Stat(fmt.Sprintf("/hotB/f%d", round%10))
	}
	res, err := co.RunEpoch()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Applied) == 0 {
		t.Fatal("plugged strategy migrated nothing off the overloaded MDS")
	}
	// The cluster must remain fully functional.
	for i := 0; i < 10; i++ {
		if _, err := sdk.Stat(fmt.Sprintf("/hotA/f%d", i)); err != nil {
			t.Errorf("post-balance stat: %v", err)
		}
	}
	// A second epoch with the same strategy instance must not fail
	// (Setup is invoked only once).
	if _, err := co.RunEpoch(); err != nil {
		t.Fatalf("second epoch: %v", err)
	}
}

// TestCoordinatorWithLunule exercises the heuristic strategy over the
// networked dump-merge path.
func TestCoordinatorWithLunule(t *testing.T) {
	cl, sdk := startTestCluster(t, 3)
	co := NewCoordinator(cl)
	co.SetStrategy(&balancer.Lunule{})

	for d := 0; d < 4; d++ {
		sdk.Mkdir(fmt.Sprintf("/t%d", d))
		for i := 0; i < 5; i++ {
			sdk.Create(fmt.Sprintf("/t%d/f%d", d, i))
		}
	}
	for round := 0; round < 400; round++ {
		sdk.Stat(fmt.Sprintf("/t%d/f%d", round%4, round%5))
	}
	res, err := co.RunEpoch()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Applied) == 0 {
		t.Fatal("Lunule migrated nothing")
	}
	for d := 0; d < 4; d++ {
		if _, err := sdk.Stat(fmt.Sprintf("/t%d/f0", d)); err != nil {
			t.Errorf("post-balance stat t%d: %v", d, err)
		}
	}
}

// skewedTraffic builds four hot directories (all initially owned by
// MDS 0, since subtrees inherit the root's owner) and runs one round of
// stat storms over them — the workload every balancing test here uses.
func skewedTraffic(t *testing.T, sdk *client.Client, round int) {
	t.Helper()
	if round == 0 {
		for d := 0; d < 4; d++ {
			if _, err := sdk.Mkdir(fmt.Sprintf("/hot%d", d)); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 5; i++ {
				if _, err := sdk.Create(fmt.Sprintf("/hot%d/f%d", d, i)); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	for i := 0; i < 400; i++ {
		sdk.Stat(fmt.Sprintf("/hot%d/f%d", i%4, i%5)) //nolint:errcheck // load generation
	}
}

// setupCountingStrategy counts Setup invocations and can be told to
// fail them — the probe for the strategy-lifecycle fixes.
type setupCountingStrategy struct {
	name      string
	setups    int
	failSetup bool
}

func (s *setupCountingStrategy) Name() string { return s.name }
func (s *setupCountingStrategy) Setup(*namespace.Tree, *cluster.PartitionMap) error {
	s.setups++
	if s.failSetup {
		return fmt.Errorf("induced setup failure")
	}
	return nil
}
func (s *setupCountingStrategy) PinPolicy() cluster.PinPolicy { return nil }
func (s *setupCountingStrategy) Rebalance(*cluster.EpochStats, *namespace.Tree, *cluster.PartitionMap) []cluster.Decision {
	return nil
}

// TestSetStrategyRearmsSetup: swapping strategies mid-run must give the
// new strategy its Setup call (the old bug: strategyReady stayed true
// across an assignment, so swapped-in strategies ran unconfigured).
func TestSetStrategyRearmsSetup(t *testing.T) {
	cl, sdk := startTestCluster(t, 2)
	co := NewCoordinator(cl)
	sdk.Mkdir("/d") //nolint:errcheck

	a := &setupCountingStrategy{name: "A"}
	co.SetStrategy(a)
	for i := 0; i < 2; i++ {
		if _, err := co.RunEpoch(); err != nil {
			t.Fatal(err)
		}
	}
	if a.setups != 1 {
		t.Fatalf("strategy A set up %d times, want 1 (lazy, once)", a.setups)
	}

	b := &setupCountingStrategy{name: "B"}
	co.SetStrategy(b)
	if _, err := co.RunEpoch(); err != nil {
		t.Fatal(err)
	}
	if b.setups != 1 {
		t.Fatalf("swapped-in strategy B set up %d times, want 1", b.setups)
	}
}

// TestStrategySetupErrorRetriesNextEpoch: a failing Setup must fail the
// epoch, bump the error counter, and retry on the next epoch rather
// than marking the strategy ready.
func TestStrategySetupErrorRetriesNextEpoch(t *testing.T) {
	cl, _ := startTestCluster(t, 2)
	co := NewCoordinator(cl)
	s := &setupCountingStrategy{name: "flaky", failSetup: true}
	co.SetStrategy(s)

	if _, err := co.RunEpoch(); err == nil {
		t.Fatal("epoch succeeded despite failing Setup")
	}
	if n := co.Registry().Counter("coordinator.strategy.setup_errors").Value(); n != 1 {
		t.Fatalf("setup_errors = %d, want 1", n)
	}
	// Recovery: the strategy starts working; the next epoch must call
	// Setup again instead of trusting the failed attempt.
	s.failSetup = false
	if _, err := co.RunEpoch(); err != nil {
		t.Fatalf("recovered epoch: %v", err)
	}
	if s.setups != 2 {
		t.Fatalf("Setup called %d times, want 2 (retry after failure)", s.setups)
	}
}

// fixedPlanStrategy always proposes the same decision.
type fixedPlanStrategy struct {
	plan []cluster.Decision
}

func (s *fixedPlanStrategy) Name() string                                       { return "fixed" }
func (s *fixedPlanStrategy) Setup(*namespace.Tree, *cluster.PartitionMap) error { return nil }
func (s *fixedPlanStrategy) PinPolicy() cluster.PinPolicy                       { return nil }
func (s *fixedPlanStrategy) Rebalance(*cluster.EpochStats, *namespace.Tree, *cluster.PartitionMap) []cluster.Decision {
	return s.plan
}

// TestRunEpochRejectsDecisionsToDownShard: planned migrations whose
// source or destination is unreachable must land in Rejected, not
// Applied — experiment accounting depends on the distinction.
func TestRunEpochRejectsDecisionsToDownShard(t *testing.T) {
	cl, sdk := startTestCluster(t, 3)
	co := NewCoordinator(cl)
	in, err := sdk.Mkdir("/victim")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		sdk.Stat("/victim") //nolint:errcheck // load so dumps are non-empty
	}

	// Kill MDS 2, then plan a migration into it.
	if err := cl.StopMDS(2); err != nil {
		t.Fatal(err)
	}
	co.SetStrategy(&fixedPlanStrategy{plan: []cluster.Decision{
		{Subtree: in.Ino, From: 0, To: 2},
	}})
	res, err := co.RunEpoch()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Applied) != 0 {
		t.Fatalf("migration into a down shard applied: %v", res.Applied)
	}
	if len(res.Rejected) != 1 {
		t.Fatalf("rejected = %v, want the one planned decision", res.Rejected)
	}
	// The pin must not have moved.
	if owner, ok := co.Pins()[in.Ino]; ok && owner == 2 {
		t.Fatal("pin moved to the down shard")
	}
}

// TestAdminRPCs drives the coordinator admin protocol end to end: the
// origami-cli path (client → MDS 0's RPC server → coordinator).
func TestAdminRPCs(t *testing.T) {
	cl, sdk := startTestCluster(t, 3)
	co := NewCoordinator(cl)
	co.SetStrategy(&balancer.Origami{})
	co.RegisterAdmin(cl.Services[0].Server())

	skewedTraffic(t, sdk, 0)
	body, err := sdk.TriggerEpoch()
	if err != nil {
		t.Fatal(err)
	}
	var summary struct {
		MapVersion uint64 `json:"map_version"`
		Degraded   bool   `json:"degraded"`
	}
	if err := json.Unmarshal(body, &summary); err != nil {
		t.Fatalf("epoch summary not JSON: %v (%s)", err, body)
	}
	if summary.Degraded {
		t.Errorf("healthy cluster reported a degraded epoch: %s", body)
	}

	body, err = sdk.ModelInfo()
	if err != nil {
		t.Fatal(err)
	}
	var info map[string]interface{}
	if err := json.Unmarshal(body, &info); err != nil {
		t.Fatalf("model info not JSON: %v (%s)", err, body)
	}
	if info["strategy"] != "Origami" || info["source"] != "meta-opt" {
		t.Fatalf("model info after one bootstrap epoch: %s", body)
	}
	for _, k := range []string{"version", "rows", "fits"} {
		if _, ok := info[k]; !ok {
			t.Fatalf("model info missing %q: %s", k, body)
		}
	}
}

// TestModelInfoWithoutLearner: the admin RPC must answer, naming the
// planner and no model, when the coordinator runs the built-in Meta-OPT
// planner.
func TestModelInfoWithoutLearner(t *testing.T) {
	cl, sdk := startTestCluster(t, 2)
	co := NewCoordinator(cl)
	co.RegisterAdmin(cl.Services[0].Server())
	body, err := sdk.ModelInfo()
	if err != nil {
		t.Fatal(err)
	}
	var info map[string]interface{}
	if err := json.Unmarshal(body, &info); err != nil {
		t.Fatal(err)
	}
	if _, ok := info["source"]; ok || info["strategy"] != "metaopt" {
		t.Fatalf("built-in planner reported as %s", body)
	}
}

// TestRunEpochRecordsBenefit: the predicted-vs-realized benefit ledger
// is the coordinator's, so a strategy that does not learn fills it too.
func TestRunEpochRecordsBenefit(t *testing.T) {
	cl, sdk := startTestCluster(t, 3)
	co := NewCoordinator(cl)
	skewedTraffic(t, sdk, 0)
	hot, err := sdk.Stat("/hot0")
	if err != nil {
		t.Fatal(err)
	}
	co.SetStrategy(&fixedPlanStrategy{plan: []cluster.Decision{
		{Subtree: hot.Ino, From: 0, To: 1, PredictedBenefit: time.Millisecond},
	}})
	if res, err := co.RunEpoch(); err != nil || len(res.Applied) != 1 {
		t.Fatalf("planted migration: %+v, %v", res, err)
	}
	// The next dump realizes it; creates reach the shards past the
	// client's lease cache.
	co.SetStrategy(&fixedPlanStrategy{})
	for i := 0; i < 20; i++ {
		if _, err := sdk.Create(fmt.Sprintf("/hot%d/n%d", i%4, i)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := co.RunEpoch(); err != nil {
		t.Fatal(err)
	}
	reg := co.Registry()
	for _, name := range []string{"coordinator.benefit.predicted_bp", "coordinator.benefit.realized_bp"} {
		if n := reg.Histogram(name).Count(); n != 1 {
			t.Errorf("%s holds %d samples, want 1", name, n)
		}
	}
	if reg.Gauge("coordinator.balance.imbalance").Value() == 0 {
		t.Error("imbalance gauge never set")
	}
}
