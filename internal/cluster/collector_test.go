package cluster

import (
	"testing"
	"time"

	"origami/internal/costmodel"
	"origami/internal/namespace"
	"origami/internal/trace"
)

func runOps(t *testing.T, e *Executor, c *Collector, ops []trace.Op) {
	t.Helper()
	for _, op := range ops {
		res, err := e.Apply(op, NoCache{}, 0)
		if err != nil {
			t.Fatalf("%v: %v", op, err)
		}
		c.Record(op, &res)
	}
}

func TestCollectorReadWriteCounts(t *testing.T) {
	e, inos := newExecutor(t)
	c := NewCollector(3)
	runOps(t, e, c, []trace.Op{
		{Type: costmodel.OpStat, Path: "/proj/src/mod0/f0"},
		{Type: costmodel.OpStat, Path: "/proj/src/mod0/f1"},
		{Type: costmodel.OpCreate, Path: "/proj/src/mod0/f2"},
		{Type: costmodel.OpOpen, Path: "/proj/include/h0"},
	})
	es := c.Snapshot(1, e.Tree, e.PM)
	mod0 := es.Dir(inos["/proj/src/mod0"])
	if mod0 == nil {
		t.Fatal("mod0 missing from dump")
	}
	if mod0.SubtreeReads != 2 || mod0.SubtreeWrites != 1 {
		t.Errorf("mod0 subtree reads/writes = %d/%d, want 2/1", mod0.SubtreeReads, mod0.SubtreeWrites)
	}
	inc := es.Dir(inos["/proj/include"])
	if inc.SubtreeReads != 1 || inc.SubtreeWrites != 0 {
		t.Errorf("include subtree reads/writes = %d/%d, want 1/0", inc.SubtreeReads, inc.SubtreeWrites)
	}
	if es.TotalReads() != 3 || es.TotalWrites() != 1 {
		t.Errorf("totals = %d/%d, want 3/1", es.TotalReads(), es.TotalWrites())
	}
}

func TestCollectorSubtreeAggregation(t *testing.T) {
	e, inos := newExecutor(t)
	c := NewCollector(3)
	runOps(t, e, c, []trace.Op{
		{Type: costmodel.OpStat, Path: "/proj/src/mod0/f0"},
		{Type: costmodel.OpOpen, Path: "/proj/include/h0"},
	})
	es := c.Snapshot(1, e.Tree, e.PM)
	// /proj aggregates both subtrees.
	proj := es.Dir(inos["/proj"])
	if proj.SubtreeReads != 2 {
		t.Errorf("proj subtree reads = %d, want 2", proj.SubtreeReads)
	}
	// Structure counts: /proj has src, include, mod0 (3 subdirs) and 3 files.
	if proj.SubDirs != 3 || proj.SubFiles != 3 {
		t.Errorf("proj structure = %d dirs %d files, want 3/3", proj.SubDirs, proj.SubFiles)
	}
	if proj.Depth != 1 {
		t.Errorf("proj depth = %d", proj.Depth)
	}
	if proj.SubtreeService <= 0 {
		t.Error("proj subtree service not accumulated")
	}
}

func TestCollectorThroughCounts(t *testing.T) {
	e, inos := newExecutor(t)
	c := NewCollector(3)
	runOps(t, e, c, []trace.Op{
		{Type: costmodel.OpStat, Path: "/proj/src/mod0/f0"},
		{Type: costmodel.OpStat, Path: "/proj/src/mod0/f1"},
	})
	es := c.Snapshot(1, e.Tree, e.PM)
	src := es.Dir(inos["/proj/src"])
	if src.Through != 2 {
		t.Errorf("src through = %d, want 2", src.Through)
	}
	inc := es.Dir(inos["/proj/include"])
	if inc.Through != 0 {
		t.Errorf("include through = %d, want 0", inc.Through)
	}
}

func TestCollectorParentLsdirs(t *testing.T) {
	e, inos := newExecutor(t)
	c := NewCollector(3)
	runOps(t, e, c, []trace.Op{
		{Type: costmodel.OpLsdir, Path: "/proj/src"},
		{Type: costmodel.OpLsdir, Path: "/proj/src"},
	})
	es := c.Snapshot(1, e.Tree, e.PM)
	mod0 := es.Dir(inos["/proj/src/mod0"])
	if mod0.ParentLsdirs != 2 {
		t.Errorf("mod0 parent lsdirs = %d, want 2", mod0.ParentLsdirs)
	}
}

func TestCollectorPerMDSTallies(t *testing.T) {
	e, inos := newExecutor(t)
	e.PM.Pin(inos["/proj/src/mod0"], 1)
	c := NewCollector(3)
	runOps(t, e, c, []trace.Op{
		{Type: costmodel.OpStat, Path: "/proj/src/mod0/f0"}, // exec on 1, visits 0 and 1
		{Type: costmodel.OpStat, Path: "/proj/include/h0"},  // all on 0
	})
	es := c.Snapshot(1, e.Tree, e.PM)
	if es.QPS[1] != 1 || es.QPS[0] != 1 {
		t.Errorf("QPS = %v", es.QPS)
	}
	if es.RPCs[0] != 2 || es.RPCs[1] != 1 {
		t.Errorf("RPCs = %v", es.RPCs)
	}
	if es.Service[0] <= 0 || es.Service[1] <= 0 {
		t.Errorf("Service = %v", es.Service)
	}
	// Inode ownership: mod0 subtree = 4 inodes (mod0, f0, f1, plus the
	// created f2? no f2 here) -> mod0 + 2 files = 3.
	if es.Inodes[1] != 3 {
		t.Errorf("Inodes = %v, want 3 on MDS 1", es.Inodes)
	}
}

func TestCollectorReset(t *testing.T) {
	e, _ := newExecutor(t)
	c := NewCollector(3)
	runOps(t, e, c, []trace.Op{{Type: costmodel.OpStat, Path: "/proj/include/h0"}})
	c.Reset()
	es := c.Snapshot(2, e.Tree, e.PM)
	if es.QPS[0] != 0 || es.RPCs[0] != 0 || es.Service[0] != 0 || es.TotalReads() != 0 {
		t.Errorf("reset did not clear: qps=%v rpcs=%v service=%v reads=%d", es.QPS, es.RPCs, es.Service, es.TotalReads())
	}
	if es.Epoch != 2 {
		t.Errorf("epoch = %d", es.Epoch)
	}
}

func TestMigratorApply(t *testing.T) {
	e, inos := newExecutor(t)
	mg := NewMigrator()
	d := Decision{Subtree: inos["/proj/src/mod0"], From: 0, To: 2}
	cost, err := mg.Apply(e.Tree, e.PM, d)
	if err != nil {
		t.Fatal(err)
	}
	if cost.Inodes != 3 { // mod0 + f0 + f1
		t.Errorf("migrated inodes = %d, want 3", cost.Inodes)
	}
	if cost.SrcService <= 0 || cost.DstService <= 0 {
		t.Errorf("cost = %+v", cost)
	}
	owner, _ := e.PM.OwnerOf(e.Tree, inos["/proj/src/mod0"])
	if owner != 2 {
		t.Errorf("owner after migration = %d", owner)
	}
}

func TestMigratorRejectsStaleDecision(t *testing.T) {
	e, inos := newExecutor(t)
	mg := NewMigrator()
	if _, err := mg.Apply(e.Tree, e.PM, Decision{Subtree: inos["/proj/src"], From: 1, To: 2}); err == nil {
		t.Error("stale From accepted")
	}
	if _, err := mg.Apply(e.Tree, e.PM, Decision{Subtree: inos["/proj/src"], From: 0, To: 0}); err == nil {
		t.Error("self-migration accepted")
	}
	if _, err := mg.Apply(e.Tree, e.PM, Decision{Subtree: inos["/proj/src/mod0/f0"], From: 0, To: 1}); err == nil {
		t.Error("file migration accepted")
	}
	if _, err := mg.Apply(e.Tree, e.PM, Decision{Subtree: 99999, From: 0, To: 1}); err == nil {
		t.Error("missing subtree accepted")
	}
}

func TestMigratorCollapsesRedundantNestedPins(t *testing.T) {
	e, inos := newExecutor(t)
	mg := NewMigrator()
	// Pin mod0 to 2, then migrate the whole of src to 2: mod0's pin is
	// redundant and should be dropped.
	e.PM.Pin(inos["/proj/src/mod0"], 2)
	if _, err := mg.Apply(e.Tree, e.PM, Decision{Subtree: inos["/proj/src"], From: 0, To: 2}); err != nil {
		t.Fatal(err)
	}
	if _, ok := e.PM.PinOf(inos["/proj/src/mod0"]); ok {
		t.Error("redundant nested pin survived")
	}
	owner, _ := e.PM.OwnerOf(e.Tree, inos["/proj/src/mod0/f0"])
	if owner != 2 {
		t.Errorf("owner = %d", owner)
	}
}

func TestMigratorKeepsForeignNestedPins(t *testing.T) {
	e, inos := newExecutor(t)
	mg := NewMigrator()
	e.PM.Pin(inos["/proj/src/mod0"], 1)
	cost, err := mg.Apply(e.Tree, e.PM, Decision{Subtree: inos["/proj/src"], From: 0, To: 2})
	if err != nil {
		t.Fatal(err)
	}
	// mod0 stays on 1; only src itself moves (1 inode).
	if cost.Inodes != 1 {
		t.Errorf("moved inodes = %d, want 1", cost.Inodes)
	}
	owner, _ := e.PM.OwnerOf(e.Tree, inos["/proj/src/mod0"])
	if owner != 1 {
		t.Errorf("foreign nested pin lost: owner = %d", owner)
	}
}

func TestDecisionString(t *testing.T) {
	d := Decision{Subtree: 7, From: 0, To: 2, PredictedBenefit: time.Second}
	if d.String() == "" {
		t.Error("empty decision string")
	}
}

// TestBuildEpochStatsParentCycle: rows whose parent links loop — dumps
// taken on either side of cross-shard renames can disagree that way —
// still get one DirStat each, and the aggregation terminates.
func TestBuildEpochStatsParentCycle(t *testing.T) {
	es := BuildEpochStats([]DirRow{
		{Ino: namespace.RootIno, Files: 1},
		{Ino: 2, Parent: 3, Files: 2, Reads: 1},
		{Ino: 3, Parent: 2, Files: 3, Reads: 2},
	}, NewPartitionMap(2))
	if len(es.Dirs) != 3 {
		t.Fatalf("%d rows, want 3", len(es.Dirs))
	}
	two, three := es.Dir(2), es.Dir(3)
	if two.Depth != 2 || two.SubDirs != 1 || two.SubFiles != 5 || two.SubtreeReads != 3 {
		t.Errorf("cycle head = %+v, want depth 2 over both rows", *two)
	}
	if three.Depth != 3 || three.SubDirs != 0 || three.SubFiles != 3 {
		t.Errorf("cycle member = %+v, want depth 3 and only itself", *three)
	}
}
