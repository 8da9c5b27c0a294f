package features

import (
	"fmt"
	"testing"
	"time"

	"origami/internal/cluster"
	"origami/internal/costmodel"
	"origami/internal/metaopt"
	"origami/internal/namespace"
	"origami/internal/trace"
)

func buildDump(t *testing.T) (*cluster.EpochStats, map[string]namespace.Ino) {
	t.Helper()
	tree := namespace.NewTree()
	pm := cluster.NewPartitionMap(3)
	params := costmodel.DefaultParams()
	exec := &cluster.Executor{Tree: tree, PM: pm, Params: &params}
	coll := cluster.NewCollector(3)
	inos := map[string]namespace.Ino{}
	apply := func(op trace.Op) {
		t.Helper()
		res, err := exec.Apply(op, cluster.NoCache{}, 0)
		if err != nil {
			t.Fatalf("%v: %v", op, err)
		}
		coll.Record(op, &res)
	}
	for _, d := range []string{"/hot", "/cold", "/hot/sub"} {
		apply(trace.Op{Type: costmodel.OpMkdir, Path: d})
		chain, _ := tree.ResolvePath(d)
		inos[d] = chain[len(chain)-1].Ino
	}
	apply(trace.Op{Type: costmodel.OpCreate, Path: "/hot/f"})
	apply(trace.Op{Type: costmodel.OpCreate, Path: "/hot/sub/g"})
	apply(trace.Op{Type: costmodel.OpCreate, Path: "/cold/h"})
	coll.Reset()
	for i := 0; i < 90; i++ {
		apply(trace.Op{Type: costmodel.OpStat, Path: "/hot/f"})
	}
	for i := 0; i < 30; i++ {
		apply(trace.Op{Type: costmodel.OpSetattr, Path: "/hot/sub/g"})
	}
	for i := 0; i < 10; i++ {
		apply(trace.Op{Type: costmodel.OpStat, Path: "/cold/h"})
	}
	return coll.Snapshot(0, tree, pm), inos
}

func TestExtractShape(t *testing.T) {
	es, _ := buildDump(t)
	m := Extract(es)
	if len(m.X) != len(m.Inos) {
		t.Fatalf("rows %d != inos %d", len(m.X), len(m.Inos))
	}
	// Root excluded: 3 dirs.
	if len(m.X) != 3 {
		t.Fatalf("rows = %d, want 3", len(m.X))
	}
	for _, row := range m.X {
		if len(row) != NumFeatures {
			t.Fatalf("row width = %d, want %d", len(row), NumFeatures)
		}
	}
}

func TestExtractNormalisation(t *testing.T) {
	es, inos := buildDump(t)
	m := Extract(es)
	for i, row := range m.X {
		// Normalised structure features are in [0, 1].
		for _, f := range []int{FeatDepth, FeatSubFiles, FeatSubDirs, FeatReads, FeatWrites, FeatRWRatio} {
			if row[f] < 0 || row[f] > 1 {
				t.Errorf("row %d feature %s = %v out of [0,1]", i, Names[f], row[f])
			}
		}
	}
	hot := m.Row(inos["/hot"])
	cold := m.Row(inos["/cold"])
	if hot < 0 || cold < 0 {
		t.Fatal("rows missing")
	}
	// /hot's subtree saw 90 reads of 100 total reads; /cold 10.
	if m.X[hot][FeatReads] <= m.X[cold][FeatReads] {
		t.Errorf("hot reads %v <= cold reads %v", m.X[hot][FeatReads], m.X[cold][FeatReads])
	}
	// /hot/sub is write-only: its read-write ratio must be 0; /cold is
	// read-only: ratio 1.
	sub := m.Row(inos["/hot/sub"])
	if m.X[sub][FeatRWRatio] != 0 {
		t.Errorf("write-only rw ratio = %v", m.X[sub][FeatRWRatio])
	}
	if m.X[cold][FeatRWRatio] != 1 {
		t.Errorf("read-only rw ratio = %v", m.X[cold][FeatRWRatio])
	}
}

func TestLabelsFromBenefits(t *testing.T) {
	es, inos := buildDump(t)
	m := Extract(es)
	benefits := metaopt.Benefits(es, cluster.NewPartitionMap(3), metaopt.Config{
		Delta: time.Hour, CacheDepth: 2,
	})
	labels := LabelsFromBenefits(m, es, benefits)
	if len(labels) != len(m.Inos) {
		t.Fatalf("labels %d != rows %d", len(labels), len(m.Inos))
	}
	hot := m.Row(inos["/hot"])
	if labels[hot] <= 0 {
		t.Errorf("hot subtree label = %v, want positive", labels[hot])
	}
	for i, l := range labels {
		if l < 0 || l > 1 {
			t.Errorf("label %d = %v out of [0,1]", i, l)
		}
	}
}

func TestPopularityLabels(t *testing.T) {
	es, inos := buildDump(t)
	m := Extract(es)
	pop := PopularityLabels(m, es)
	hot := m.Row(inos["/hot"])
	sub := m.Row(inos["/hot/sub"])
	cold := m.Row(inos["/cold"])
	// Own-dir popularity: /hot has 90 of 130 accesses, /hot/sub 30,
	// /cold 10.
	if pop[hot] < pop[sub] || pop[sub] < pop[cold] {
		t.Errorf("popularity ordering wrong: hot=%v sub=%v cold=%v", pop[hot], pop[sub], pop[cold])
	}
	if fmt.Sprintf("%.4f", pop[hot]) != fmt.Sprintf("%.4f", 90.0/130) {
		t.Errorf("hot own popularity = %v, want %v", pop[hot], 90.0/130)
	}
}

func TestMatrixRowMissing(t *testing.T) {
	es, _ := buildDump(t)
	m := Extract(es)
	if m.Row(99999) != -1 {
		t.Error("missing ino should give -1")
	}
}
