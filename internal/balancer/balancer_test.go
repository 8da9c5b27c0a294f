package balancer

import (
	"fmt"
	"testing"
	"time"

	"origami/internal/cluster"
	"origami/internal/costmodel"
	"origami/internal/ml"
	"origami/internal/namespace"
	"origami/internal/sim"
	"origami/internal/trace"
	"origami/internal/workload"
)

// buildCluster makes a small namespace with skewed load, all on MDS 0,
// and returns an epoch dump.
func buildCluster(t *testing.T, numMDS int) (*namespace.Tree, *cluster.PartitionMap, *cluster.EpochStats) {
	t.Helper()
	tree := namespace.NewTree()
	pm := cluster.NewPartitionMap(numMDS)
	params := costmodel.DefaultParams()
	exec := &cluster.Executor{Tree: tree, PM: pm, Params: &params}
	coll := cluster.NewCollector(numMDS)
	apply := func(op trace.Op) {
		t.Helper()
		res, err := exec.Apply(op, cluster.NoCache{}, 0)
		if err != nil {
			t.Fatalf("%v: %v", op, err)
		}
		coll.Record(op, &res)
	}
	for i := 0; i < 6; i++ {
		apply(trace.Op{Type: costmodel.OpMkdir, Path: fmt.Sprintf("/d%d", i)})
		for j := 0; j < 3; j++ {
			apply(trace.Op{Type: costmodel.OpCreate, Path: fmt.Sprintf("/d%d/f%d", i, j)})
		}
	}
	coll.Reset()
	for i := 0; i < 6; i++ {
		weight := 10 * (i + 1) * (i + 1)
		for k := 0; k < weight; k++ {
			apply(trace.Op{Type: costmodel.OpStat, Path: fmt.Sprintf("/d%d/f%d", i, k%3)})
		}
	}
	return tree, pm, coll.Snapshot(0, tree, pm)
}

func TestHashMDSDeterministicAndSpread(t *testing.T) {
	counts := make([]int, 5)
	for ino := namespace.Ino(2); ino < 2002; ino++ {
		m := hashMDS(ino, 5)
		if m != hashMDS(ino, 5) {
			t.Fatal("hashMDS not deterministic")
		}
		counts[m]++
	}
	for i, c := range counts {
		if c < 200 {
			t.Errorf("MDS %d got only %d/2000 inodes", i, c)
		}
	}
}

func TestFHashSetupPinsEveryDir(t *testing.T) {
	tree, pm, _ := buildCluster(t, 5)
	if err := (FHash{}).Setup(tree, pm); err != nil {
		t.Fatal(err)
	}
	// 6 top dirs, all pinned.
	if pm.NumPins() != 6 {
		t.Errorf("pins = %d, want 6", pm.NumPins())
	}
}

func TestCHashSetupPinsUpperLevels(t *testing.T) {
	tree := namespace.NewTree()
	pm := cluster.NewPartitionMap(5)
	a, _ := tree.Create(namespace.RootIno, "a", namespace.TypeDir, 0)
	b, _ := tree.Create(a.Ino, "b", namespace.TypeDir, 0)
	c, _ := tree.Create(b.Ino, "c", namespace.TypeDir, 0)
	d, _ := tree.Create(c.Ino, "d", namespace.TypeDir, 0)
	e, _ := tree.Create(d.Ino, "e", namespace.TypeDir, 0)
	if err := (CHash{Levels: 3}).Setup(tree, pm); err != nil {
		t.Fatal(err)
	}
	for _, ino := range []namespace.Ino{a.Ino, b.Ino, c.Ino} {
		if _, ok := pm.PinOf(ino); !ok {
			t.Errorf("depth<=3 dir %d not pinned", ino)
		}
	}
	for _, ino := range []namespace.Ino{d.Ino, e.Ino} {
		if _, ok := pm.PinOf(ino); ok {
			t.Errorf("depth>3 dir %d pinned", ino)
		}
	}
}

func TestCHashPinPolicyDepthGate(t *testing.T) {
	tree, pm, _ := buildCluster(t, 5)
	pol := CHash{Levels: 2}.PinPolicy()
	if _, ok := pol(tree, pm, 99, "/a/b", 2); !ok {
		t.Error("depth-2 dir not pinned by C-Hash policy")
	}
	if _, ok := pol(tree, pm, 99, "/a/b/c", 3); ok {
		t.Error("depth-3 dir pinned by C-Hash Levels=2 policy")
	}
}

func TestFHashPinPolicyAlwaysPins(t *testing.T) {
	tree, pm, _ := buildCluster(t, 5)
	pol := FHash{}.PinPolicy()
	if _, ok := pol(tree, pm, 99, "/a/b/c/d", 4); !ok {
		t.Error("F-Hash policy did not pin")
	}
}

func TestSingleDoesNothing(t *testing.T) {
	tree, pm, es := buildCluster(t, 5)
	var s Single
	if err := s.Setup(tree, pm); err != nil {
		t.Fatal(err)
	}
	if pm.NumPins() != 0 {
		t.Error("Single pinned something")
	}
	if s.PinPolicy() != nil {
		t.Error("Single has a pin policy")
	}
	if d := s.Rebalance(es, tree, pm); d != nil {
		t.Error("Single migrated")
	}
}

func TestMLTreeMigratesUnderImbalance(t *testing.T) {
	tree, pm, es := buildCluster(t, 3)
	s := &MLTree{}
	s.Setup(tree, pm)
	decisions := s.Rebalance(es, tree, pm)
	if len(decisions) == 0 {
		t.Fatal("ML-Tree did not migrate under total imbalance")
	}
	if len(decisions) > s.MaxMigrations {
		t.Errorf("exceeded MaxMigrations: %d", len(decisions))
	}
	for _, d := range decisions {
		if d.From != 0 {
			t.Errorf("decision from MDS %d", d.From)
		}
	}
}

func TestMLTreeCooldownPreventsBounce(t *testing.T) {
	tree, pm, es := buildCluster(t, 3)
	s := &MLTree{}
	s.Setup(tree, pm)
	first := s.Rebalance(es, tree, pm)
	if len(first) == 0 {
		t.Fatal("no first decisions")
	}
	// Same dump again (without applying): cooled-down subtrees must not
	// reappear immediately.
	second := s.Rebalance(es, tree, pm)
	for _, d2 := range second {
		for _, d1 := range first {
			if d1.Subtree == d2.Subtree {
				t.Errorf("subtree %d re-migrated within cooldown", d2.Subtree)
			}
		}
	}
}

func TestMLTreeQuietWhenBalanced(t *testing.T) {
	tree, pm, es := buildCluster(t, 3)
	// Force perfectly balanced service tallies.
	for i := range es.Service {
		es.Service[i] = time.Second
	}
	s := &MLTree{}
	s.Setup(tree, pm)
	if d := s.Rebalance(es, tree, pm); len(d) != 0 {
		t.Errorf("ML-Tree migrated a balanced cluster: %v", d)
	}
}

func TestOrigamiBootstrapUsesMetaOPT(t *testing.T) {
	tree, pm, es := buildCluster(t, 3)
	s := &Origami{}
	s.Setup(tree, pm)
	decisions := s.Rebalance(es, tree, pm)
	if len(decisions) == 0 {
		t.Fatal("Origami did not migrate under total imbalance")
	}
	// Decisions must never be nested within each other.
	for i, a := range decisions {
		for _, b := range decisions[i+1:] {
			if tree.IsAncestor(a.Subtree, b.Subtree) || tree.IsAncestor(b.Subtree, a.Subtree) {
				t.Errorf("nested decisions %d and %d", a.Subtree, b.Subtree)
			}
		}
	}
	for _, d := range decisions {
		if d.PredictedBenefit <= 0 {
			t.Errorf("non-positive predicted benefit: %v", d)
		}
	}
}

func TestOrigamiWithPretrainedModel(t *testing.T) {
	tree, pm, es := buildCluster(t, 3)
	// A toy model that predicts a constant positive benefit for all.
	var ds ml.Dataset
	for i := 0; i < 60; i++ {
		ds.Append(make([]float64, 7), 0.2)
	}
	model, err := ml.TrainGBDT(ds, ml.GBDTConfig{Rounds: 5, NumLeaves: 4})
	if err != nil {
		t.Fatal(err)
	}
	s := &Origami{Model: model}
	s.Setup(tree, pm)
	decisions := s.Rebalance(es, tree, pm)
	if len(decisions) == 0 {
		t.Fatal("Origami with model produced no decisions")
	}
}

func TestOracleDelegatesToMetaOPT(t *testing.T) {
	tree, pm, es := buildCluster(t, 3)
	s := &MetaOPTOracle{}
	s.Setup(tree, pm)
	decisions := s.Rebalance(es, tree, pm)
	if len(decisions) == 0 {
		t.Fatal("oracle produced no decisions under imbalance")
	}
	for i := range es.Service {
		es.Service[i] = time.Second
	}
	if d := s.Rebalance(es, tree, pm); len(d) != 0 {
		t.Error("oracle migrated a balanced cluster")
	}
}

func TestByName(t *testing.T) {
	for _, name := range []string{"single", "C-Hash", "f_hash", "ML-Tree", "lunule", "Origami", "metaopt", "Meta-OPT"} {
		st, err := ByName(name)
		if err != nil {
			t.Errorf("ByName(%q): %v", name, err)
			continue
		}
		if st.Name() == "" {
			t.Errorf("ByName(%q) has empty name", name)
		}
	}
	if _, err := ByName("mystery"); err == nil {
		t.Error("unknown strategy accepted")
	}
}

// TestStrategyOrderingEndToEnd is the integration check of the headline
// result: under the skewed compile workload, Origami must beat the best
// hash baseline, and every multi-MDS strategy must beat a single MDS.
func TestStrategyOrderingEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("integration ordering test")
	}
	run := func(st cluster.Strategy, n int) float64 {
		cfg := workload.DefaultRW()
		cfg.NumOps = 120000
		tr := workload.TraceRW(cfg)
		res, err := sim.Run(sim.Config{
			NumMDS: n, Clients: 50, CacheDepth: 3, Epoch: time.Second,
		}, tr, st)
		if err != nil {
			t.Fatal(err)
		}
		return res.SteadyThroughput
	}
	single := run(Single{}, 1)
	chash := run(CHash{}, 5)
	fhash := run(FHash{}, 5)
	origami := run(&Origami{}, 5)
	if chash <= single || fhash <= single || origami <= single {
		t.Errorf("multi-MDS below single: single=%.0f chash=%.0f fhash=%.0f origami=%.0f",
			single, chash, fhash, origami)
	}
	if origami <= chash {
		t.Errorf("Origami (%.0f) did not beat C-Hash (%.0f)", origami, chash)
	}
	if chash <= fhash {
		t.Errorf("C-Hash (%.0f) did not beat F-Hash (%.0f)", chash, fhash)
	}
}
