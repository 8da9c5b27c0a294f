package metaopt

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"origami/internal/cluster"
	"origami/internal/costmodel"
	"origami/internal/namespace"
	"origami/internal/trace"
)

// fixture builds a namespace with nTop top-level subtrees each holding
// nFiles files, generates load by statting files with the given per-tree
// weights, and returns the epoch dump. All metadata starts on MDS 0.
type fixture struct {
	tree *namespace.Tree
	pm   *cluster.PartitionMap
	exec *cluster.Executor
	coll *cluster.Collector
	dirs map[string]namespace.Ino
}

func newFixture(t *testing.T, numMDS int) *fixture {
	t.Helper()
	tr := namespace.NewTree()
	pm := cluster.NewPartitionMap(numMDS)
	params := costmodel.DefaultParams()
	f := &fixture{
		tree: tr,
		pm:   pm,
		exec: &cluster.Executor{Tree: tr, PM: pm, Params: &params},
		coll: cluster.NewCollector(numMDS),
		dirs: map[string]namespace.Ino{},
	}
	return f
}

func (f *fixture) apply(t *testing.T, op trace.Op) {
	t.Helper()
	res, err := f.exec.Apply(op, cluster.NoCache{}, 0)
	if err != nil {
		t.Fatalf("%v: %v", op, err)
	}
	f.coll.Record(op, &res)
}

func (f *fixture) mkdir(t *testing.T, path string) {
	t.Helper()
	if _, err := f.exec.Apply(trace.Op{Type: costmodel.OpMkdir, Path: path}, cluster.NoCache{}, 0); err != nil {
		t.Fatal(err)
	}
	chain, _ := f.tree.ResolvePath(path)
	f.dirs[path] = chain[len(chain)-1].Ino
}

func (f *fixture) create(t *testing.T, path string) {
	t.Helper()
	if _, err := f.exec.Apply(trace.Op{Type: costmodel.OpCreate, Path: path}, cluster.NoCache{}, 0); err != nil {
		t.Fatal(err)
	}
}

// buildSkewed creates /t0../tN each with files, and stats files with the
// given weights (ops counts per subtree).
func buildSkewed(t *testing.T, numMDS int, weights []int) *fixture {
	f := newFixture(t, numMDS)
	for i := range weights {
		dir := fmt.Sprintf("/t%d", i)
		f.mkdir(t, dir)
		for j := 0; j < 3; j++ {
			f.create(t, fmt.Sprintf("%s/f%d", dir, j))
		}
	}
	f.coll.Reset() // setup ops don't count as load
	for i, w := range weights {
		for k := 0; k < w; k++ {
			f.apply(t, trace.Op{Type: costmodel.OpStat, Path: fmt.Sprintf("/t%d/f%d", i, k%3)})
		}
	}
	return f
}

func TestPlanOffloadsHotMDS(t *testing.T) {
	f := buildSkewed(t, 3, []int{100, 100, 100, 100})
	es := f.coll.Snapshot(0, f.tree, f.pm)
	decisions := Plan(es, f.pm, Config{Delta: time.Hour, Threshold: time.Nanosecond, CacheDepth: 0})
	if len(decisions) == 0 {
		t.Fatal("no decisions for fully skewed cluster")
	}
	// Applying the decisions must reduce modelled JCT.
	loads := append([]time.Duration(nil), es.Service...)
	before := costmodel.JCT(loads)
	for _, d := range decisions {
		ds := es.Dir(d.Subtree)
		loads[d.From] -= ds.OwnedService
		loads[d.To] += ds.OwnedService // overhead 0 at depth 1 with cache
	}
	if after := costmodel.JCT(loads); after >= before {
		t.Errorf("JCT did not improve: %v -> %v", before, after)
	}
	// All decisions move off the loaded MDS 0.
	for _, d := range decisions {
		if d.From != 0 {
			t.Errorf("decision from MDS %d, want 0", d.From)
		}
		if d.To == 0 {
			t.Errorf("decision to MDS 0")
		}
	}
}

func TestPlanRespectsThreshold(t *testing.T) {
	f := buildSkewed(t, 3, []int{50, 50})
	es := f.coll.Snapshot(0, f.tree, f.pm)
	// Absurdly high threshold: nothing is worth migrating.
	decisions := Plan(es, f.pm, Config{Delta: time.Hour, Threshold: time.Hour})
	if len(decisions) != 0 {
		t.Errorf("threshold ignored: %v", decisions)
	}
}

func TestPlanRespectsDelta(t *testing.T) {
	// One giant subtree: moving it entirely would just flip the
	// imbalance; with a tight Δ the move is rejected.
	f := buildSkewed(t, 2, []int{200})
	es := f.coll.Snapshot(0, f.tree, f.pm)
	decisions := Plan(es, f.pm, Config{Delta: time.Microsecond, Threshold: time.Nanosecond})
	for _, d := range decisions {
		ds := es.Dir(d.Subtree)
		// Any accepted decision must satisfy the constraint.
		newTo := es.Service[d.To] + ds.OwnedService
		newFrom := es.Service[d.From] - ds.OwnedService
		if newTo-newFrom >= time.Microsecond && ds.Ino == f.dirs["/t0"] {
			t.Errorf("decision %v violates Δ", d)
		}
	}
}

func TestPlanMaxDecisions(t *testing.T) {
	weights := make([]int, 12)
	for i := range weights {
		weights[i] = 40
	}
	f := buildSkewed(t, 4, weights)
	es := f.coll.Snapshot(0, f.tree, f.pm)
	decisions := Plan(es, f.pm, Config{Delta: time.Hour, Threshold: time.Nanosecond, MaxDecisions: 3})
	if len(decisions) > 3 {
		t.Errorf("MaxDecisions ignored: %d decisions", len(decisions))
	}
}

func TestPlanNeverMigratesNested(t *testing.T) {
	f := newFixture(t, 3)
	f.mkdir(t, "/a")
	f.mkdir(t, "/a/b")
	f.mkdir(t, "/a/b/c")
	f.create(t, "/a/b/c/f")
	f.coll.Reset()
	for i := 0; i < 200; i++ {
		f.apply(t, trace.Op{Type: costmodel.OpStat, Path: "/a/b/c/f"})
	}
	es := f.coll.Snapshot(0, f.tree, f.pm)
	decisions := Plan(es, f.pm, Config{Delta: time.Hour, Threshold: time.Nanosecond, MaxDecisions: 10})
	// After a subtree is chosen, none of its descendants or ancestors may
	// be chosen again.
	seen := map[namespace.Ino]bool{}
	for _, d := range decisions {
		for ino := range seen {
			if f.tree.IsAncestor(ino, d.Subtree) || f.tree.IsAncestor(d.Subtree, ino) {
				t.Errorf("nested decision: %d after %d", d.Subtree, ino)
			}
		}
		seen[d.Subtree] = true
	}
}

func TestOverheadFreeInCachedRegion(t *testing.T) {
	f := buildSkewed(t, 2, []int{100})
	es := f.coll.Snapshot(0, f.tree, f.pm)
	d := es.Dir(f.dirs["/t0"])
	cfg := Config{CacheDepth: 2}
	cfgDef := cfg.withDefaults(es)
	if got := overheadOf(d, cfgDef); got != 0 {
		t.Errorf("near-root overhead = %v, want 0 (parent cached)", got)
	}
	cfgDef.CacheDepth = 0
	if got := overheadOf(d, cfgDef); got <= 0 {
		t.Errorf("uncached overhead = %v, want > 0 (through=%d)", got, d.Through)
	}
}

func TestBenefitsLabelsEveryDir(t *testing.T) {
	f := buildSkewed(t, 3, []int{80, 20, 5})
	es := f.coll.Snapshot(0, f.tree, f.pm)
	b := Benefits(es, f.pm, Config{Delta: time.Hour, Threshold: time.Nanosecond, CacheDepth: 2})
	if len(b) < 3 {
		t.Fatalf("labels for %d dirs, want >= 3", len(b))
	}
	// The hottest subtree must carry the largest benefit.
	sorted := SortedByBenefit(b)
	if sorted[0].Subtree != f.dirs["/t0"] {
		t.Errorf("top benefit subtree = %d, want /t0 (%d)", sorted[0].Subtree, f.dirs["/t0"])
	}
	if sorted[0].Benefit <= 0 {
		t.Error("top benefit not positive")
	}
	// Benefits are non-increasing.
	for i := 1; i < len(sorted); i++ {
		if sorted[i].Benefit > sorted[i-1].Benefit {
			t.Errorf("SortedByBenefit out of order at %d", i)
		}
	}
}

func TestMixedSubtreesExcluded(t *testing.T) {
	f := buildSkewed(t, 3, []int{100, 50})
	// Pin a subdirectory of /t0 to another MDS: /t0 becomes mixed and may
	// no longer migrate atomically.
	f.mkdir(t, "/t0/sub")
	f.pm.Pin(f.dirs["/t0/sub"], 1)
	es := f.coll.Snapshot(0, f.tree, f.pm)
	b := Benefits(es, f.pm, Config{Delta: time.Hour})
	if _, ok := b[f.dirs["/t0"]]; ok {
		t.Error("mixed subtree /t0 still a candidate")
	}
	// The pinned subtree itself remains a candidate.
	if _, ok := b[f.dirs["/t0/sub"]]; !ok {
		t.Error("pinned subtree /t0/sub should still be labelled")
	}
}

// TestTheorem1FormulaGap property-tests Theorem 1 exactly as stated: for a
// subtree s (load l_s, overhead o_s) chosen under the Δ constraint
// (Δ > 2l_s + o_s − D), and any disjoint nested set with smaller
// cumulative load and overhead, b0 − b1 > −Δ.
func TestTheorem1FormulaGap(t *testing.T) {
	rnd := rand.New(rand.NewSource(11))
	for trial := 0; trial < 2000; trial++ {
		ls := time.Duration(1+rnd.Intn(1000)) * time.Millisecond
		os := time.Duration(rnd.Intn(500)) * time.Millisecond
		d := time.Duration(rnd.Intn(3000)) * time.Millisecond
		// Δ must admit s's migration (Alg. 1 line 9 precondition).
		minDelta := 2*ls + os - d
		if minDelta < 0 {
			minDelta = 0
		}
		delta := minDelta + time.Duration(1+rnd.Intn(500))*time.Millisecond
		// A nested disjoint set: cumulative load/overhead strictly below
		// s's (subtrees nest strictly).
		frac := func(x time.Duration) time.Duration {
			if x <= 1 {
				return 0
			}
			return time.Duration(rnd.Int63n(int64(x)))
		}
		lk := frac(ls)
		ok := frac(os)
		b0 := AppendixBenefit(d, ls, os)
		b1 := AppendixBenefit(d, lk, ok)
		if b0-b1 <= -delta {
			t.Fatalf("trial %d: Theorem 1 violated: b0=%v b1=%v Δ=%v (D=%v ls=%v os=%v lk=%v ok=%v)",
				trial, b0, b1, delta, d, ls, os, lk, ok)
		}
	}
}

// TestGreedyVsOracleEndToEnd checks the greedy planner against exhaustive
// search on random small instances. The formal Theorem-1 bound covers a
// single decision; empirically the full greedy sequence stays within Δ of
// optimal per decision taken, and never regresses the initial JCT.
func TestGreedyVsOracleEndToEnd(t *testing.T) {
	rnd := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		nTop := 2 + rnd.Intn(3)
		weights := make([]int, nTop)
		for i := range weights {
			weights[i] = 10 + rnd.Intn(120)
		}
		numMDS := 2 + rnd.Intn(2)
		f := buildSkewed(t, numMDS, weights)
		// Add one nested hot dir inside t0 so nesting decisions matter.
		f.mkdir(t, "/t0/deep")
		f.create(t, "/t0/deep/g")
		for i := 0; i < 10+rnd.Intn(80); i++ {
			f.apply(t, trace.Op{Type: costmodel.OpStat, Path: "/t0/deep/g"})
		}
		es := f.coll.Snapshot(0, f.tree, f.pm)
		delta := time.Duration(1+rnd.Intn(20)) * time.Millisecond
		cfg := Config{Delta: delta, Threshold: time.Nanosecond, CacheDepth: 0, MinLoad: 1e-9}

		decisions := Plan(es, f.pm, cfg)
		loads := append([]time.Duration(nil), es.Service...)
		cfgDef := cfg.withDefaults(es)
		for _, d := range decisions {
			ds := es.Dir(d.Subtree)
			loads[d.From] -= ds.OwnedService
			loads[d.To] += ds.OwnedService + overheadOf(ds, cfgDef)
		}
		greedyJCT := costmodel.JCT(loads)
		initial := costmodel.JCT(es.Service)
		if greedyJCT > initial {
			t.Errorf("trial %d: greedy made JCT worse: %v -> %v", trial, initial, greedyJCT)
		}
		opt := Exhaustive(es, cfg, 12)
		slack := delta * time.Duration(len(decisions)+1)
		if greedyJCT > opt.JCT+slack {
			t.Errorf("trial %d: greedy JCT %v exceeds optimal %v + %v",
				trial, greedyJCT, opt.JCT, slack)
		}
	}
}

func TestExhaustiveNeverWorseThanNothing(t *testing.T) {
	f := buildSkewed(t, 3, []int{60, 30, 10})
	es := f.coll.Snapshot(0, f.tree, f.pm)
	opt := Exhaustive(es, Config{Delta: time.Hour, Threshold: time.Nanosecond}, 10)
	if opt.JCT > costmodel.JCT(es.Service) {
		t.Errorf("oracle JCT %v worse than initial %v", opt.JCT, costmodel.JCT(es.Service))
	}
}

func TestPlanDeterministic(t *testing.T) {
	f := buildSkewed(t, 4, []int{90, 40, 70, 20, 55})
	es := f.coll.Snapshot(0, f.tree, f.pm)
	cfg := Config{Delta: time.Hour, Threshold: time.Nanosecond, CacheDepth: 2}
	a := Plan(es, f.pm, cfg)
	b := Plan(es, f.pm, cfg)
	if len(a) != len(b) {
		t.Fatalf("plan lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Errorf("plan[%d] differs: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestCandidateInvariants(t *testing.T) {
	f := buildSkewed(t, 4, []int{90, 40, 70, 20})
	es := f.coll.Snapshot(0, f.tree, f.pm)
	for _, c := range Benefits(es, f.pm, Config{Delta: time.Hour, CacheDepth: 2}) {
		if c.Load < 0 || c.Overhead < 0 {
			t.Errorf("negative load/overhead: %+v", c)
		}
		if c.Benefit > 0 && c.To == c.From {
			t.Errorf("positive benefit without a move: %+v", c)
		}
		if c.Benefit > c.Load {
			// A single move can at best shave its own load off the max
			// bin.
			t.Errorf("benefit %v exceeds moved load %v", c.Benefit, c.Load)
		}
	}
}

func TestConfigDefaults(t *testing.T) {
	f := buildSkewed(t, 3, []int{10})
	es := f.coll.Snapshot(0, f.tree, f.pm)
	cfg := Config{}.withDefaults(es)
	if cfg.Delta <= 0 || cfg.Threshold <= 0 || cfg.MaxDecisions <= 0 || cfg.Params == nil {
		t.Errorf("defaults not filled: %+v", cfg)
	}
}
