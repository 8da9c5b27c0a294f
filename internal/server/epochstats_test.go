package server

import (
	"testing"
	"time"

	"origami/internal/cluster"
	"origami/internal/costmodel"
	"origami/internal/mds"
	"origami/internal/namespace"
	"origami/internal/trace"
)

// The fixture namespace of TestEpochStatsFromDumps, pinned b→1, d→2 and
// x→2, so d is a foreign pin nested inside b's subtree:
//
//	/ (1) ─ a (2) ─ b (3) ─ c (4) ─ d (5)
//	   │       └─── e (6)
//	   └─── x (7)
const (
	fxA namespace.Ino = iota + 2
	fxB
	fxC
	fxD
	fxE
	fxX
)

// fxRow is a directory's dump row with the fixture's tallies.
func fxRow(ino namespace.Ino) mds.DumpRow {
	switch ino {
	case namespace.RootIno:
		return mds.DumpRow{Ino: ino, Reads: 1, Lookups: 20, ServiceNS: 100, ChildFiles: 1}
	case fxA:
		return mds.DumpRow{Ino: ino, Parent: namespace.RootIno, Reads: 2, Writes: 1, Lookups: 10, ServiceNS: 200, ChildFiles: 2}
	case fxB:
		return mds.DumpRow{Ino: ino, Parent: fxA, Reads: 4, Lookups: 8, ServiceNS: 400, ChildFiles: 3}
	case fxC:
		return mds.DumpRow{Ino: ino, Parent: fxB, Reads: 5, Writes: 2, Lookups: 4, ServiceNS: 500, ChildFiles: 1}
	case fxD:
		return mds.DumpRow{Ino: ino, Parent: fxC, Reads: 6, Writes: 1, ServiceNS: 600, ChildFiles: 2}
	case fxE:
		return mds.DumpRow{Ino: ino, Parent: fxA, Writes: 3, ServiceNS: 300}
	case fxX:
		return mds.DumpRow{Ino: ino, Parent: namespace.RootIno, Reads: 7, Lookups: 1, ServiceNS: 700, ChildFiles: 4}
	}
	panic("not a fixture directory")
}

// fxCopy is the row of a directory's stale copy on a migration
// destination whose evict failed: same place in the tree, no traffic.
func fxCopy(ino namespace.Ino) mds.DumpRow {
	r := fxRow(ino)
	r.Reads, r.Writes, r.Lookups, r.ServiceNS = 0, 0, 0, 0
	return r
}

// fxDir builds an expected DirStat. Positional, in this order: ino,
// parent, depth, owner; SubFiles, SubDirs; SubtreeReads, SubtreeWrites,
// OwnReads, OwnWrites; SubtreeService, OwnedService (ns), OwnedInodes;
// Through.
func fxDir(ino, parent namespace.Ino, depth int, owner cluster.MDSID,
	files, dirs int, reads, writes, ownR, ownW int64,
	service, owned int64, ownedInodes int, through int64) cluster.DirStat {
	return cluster.DirStat{
		Ino: ino, Parent: parent, Depth: depth, Owner: owner,
		SubFiles: files, SubDirs: dirs,
		SubtreeReads: reads, SubtreeWrites: writes, OwnReads: ownR, OwnWrites: ownW,
		SubtreeService: time.Duration(service), OwnedService: time.Duration(owned),
		OwnedInodes: ownedInodes, Through: through,
	}
}

// TestEpochStatsFromDumps pins the live cluster's epoch dump: the
// DirStats the coordinator derives from hand-built per-shard rows,
// including the degraded cases — a skipped shard leaves orphans, which
// head their own subtrees, and a failed evict leaves a directory on two
// shards, where the later shard's row wins.
func TestEpochStatsFromDumps(t *testing.T) {
	pm := cluster.NewPartitionMap(3)
	for ino, m := range map[namespace.Ino]cluster.MDSID{fxB: 1, fxD: 2, fxX: 2} {
		if err := pm.Pin(ino, m); err != nil {
			t.Fatal(err)
		}
	}
	stats := []mds.StatsSnapshot{
		{Ops: 10, RPCs: 12, ServiceNS: 600, Inodes: 9},
		{Ops: 20, RPCs: 21, ServiceNS: 900, Inodes: 6},
		{Ops: 30, RPCs: 33, ServiceNS: 1300, Inodes: 8},
	}
	shard0 := []mds.DumpRow{fxRow(namespace.RootIno), fxRow(fxA), fxRow(fxE)}
	shard1 := []mds.DumpRow{fxRow(fxB), fxRow(fxC)}
	shard2 := []mds.DumpRow{fxRow(fxD), fxRow(fxX)}
	root := namespace.RootIno
	cases := []struct {
		name    string
		skipped int // shard whose dump is missing, -1 for none
		rows    [][]mds.DumpRow
		want    []cluster.DirStat
	}{
		{
			// a's owned load stops at b (MDS 1), b's at d (MDS 2), and
			// the root's at x (MDS 2).
			name: "nested foreign pin", skipped: -1,
			rows: [][]mds.DumpRow{shard0, shard1, shard2},
			want: []cluster.DirStat{
				fxDir(root, 0, 0, 0, 13, 6, 25, 7, 1, 0, 2800, 600, 6, 20),
				fxDir(fxA, root, 1, 0, 8, 4, 17, 7, 2, 1, 2000, 500, 4, 10),
				fxDir(fxB, fxA, 2, 1, 6, 2, 15, 3, 4, 0, 1500, 900, 6, 8),
				fxDir(fxC, fxB, 3, 1, 3, 1, 11, 3, 5, 2, 1100, 500, 2, 4),
				fxDir(fxD, fxC, 4, 2, 2, 0, 6, 1, 6, 1, 600, 600, 3, 0),
				fxDir(fxE, fxA, 2, 0, 0, 0, 0, 3, 0, 3, 300, 300, 1, 0),
				fxDir(fxX, root, 1, 2, 4, 0, 7, 0, 7, 0, 700, 700, 5, 1),
			},
		},
		{
			// Shard 0 is skipped. b heads a subtree under the missing a
			// (depth 2, its own pin), x under the missing root (depth 1),
			// and e's stale copy on shard 2 under the missing a, with
			// neither it nor a pinned (MDS 0).
			name: "skipped shard 0", skipped: 0,
			rows: [][]mds.DumpRow{nil, shard1, append(shard2[:2:2], fxCopy(fxE))},
			want: []cluster.DirStat{
				fxDir(fxB, fxA, 2, 1, 6, 2, 15, 3, 4, 0, 1500, 900, 6, 8),
				fxDir(fxC, fxB, 3, 1, 3, 1, 11, 3, 5, 2, 1100, 500, 2, 4),
				fxDir(fxD, fxC, 4, 2, 2, 0, 6, 1, 6, 1, 600, 600, 3, 0),
				fxDir(fxE, fxA, 2, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0),
				fxDir(fxX, root, 1, 2, 4, 0, 7, 0, 7, 0, 700, 700, 5, 1),
			},
		},
		{
			// Shard 1 is skipped; shard 2 still holds c's copy from an
			// aborted c: 1→2. c heads a subtree under the missing b and
			// takes b's pin (MDS 1); its nested d keeps MDS 2.
			name: "skipped shard 1", skipped: 1,
			rows: [][]mds.DumpRow{shard0, nil, append(shard2[:2:2], fxCopy(fxC))},
			want: []cluster.DirStat{
				fxDir(root, 0, 0, 0, 7, 3, 10, 4, 1, 0, 1300, 600, 6, 20),
				fxDir(fxA, root, 1, 0, 2, 1, 2, 4, 2, 1, 500, 500, 4, 10),
				fxDir(fxC, fxB, 2, 1, 3, 1, 6, 1, 0, 0, 600, 0, 2, 0),
				fxDir(fxD, fxC, 3, 2, 2, 0, 6, 1, 6, 1, 600, 600, 3, 0),
				fxDir(fxE, fxA, 2, 0, 0, 0, 0, 3, 0, 3, 300, 300, 1, 0),
				fxDir(fxX, root, 1, 2, 4, 0, 7, 0, 7, 0, 700, 700, 5, 1),
			},
		},
		{
			// Every shard answers, and shard 2 still holds c's copy: the
			// copy's row (the later shard) wins over shard 1's.
			name: "duplicate directory", skipped: -1,
			rows: [][]mds.DumpRow{shard0, shard1, append(shard2[:2:2], fxCopy(fxC))},
			want: []cluster.DirStat{
				fxDir(root, 0, 0, 0, 13, 6, 20, 5, 1, 0, 2300, 600, 6, 20),
				fxDir(fxA, root, 1, 0, 8, 4, 12, 5, 2, 1, 1500, 500, 4, 10),
				fxDir(fxB, fxA, 2, 1, 6, 2, 10, 1, 4, 0, 1000, 400, 6, 8),
				fxDir(fxC, fxB, 3, 1, 3, 1, 6, 1, 0, 0, 600, 0, 2, 0),
				fxDir(fxD, fxC, 4, 2, 2, 0, 6, 1, 6, 1, 600, 600, 3, 0),
				fxDir(fxE, fxA, 2, 0, 0, 0, 0, 3, 0, 3, 300, 300, 1, 0),
				fxDir(fxX, root, 1, 2, 4, 0, 7, 0, 7, 0, 700, 700, 5, 1),
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			st := append([]mds.StatsSnapshot(nil), stats...)
			if tc.skipped >= 0 {
				st[tc.skipped] = mds.StatsSnapshot{}
			}
			es := epochStatsFromDumps(st, tc.rows, pm)
			if len(es.Dirs) != len(tc.want) {
				t.Fatalf("%d rows, want %d: %+v", len(es.Dirs), len(tc.want), es.Dirs)
			}
			for i, w := range tc.want {
				if g := es.Dirs[i]; g != w {
					t.Errorf("row %d:\n got %+v\nwant %+v", i, g, w)
				}
				if d := es.Dir(w.Ino); d == nil || d.Ino != w.Ino {
					t.Errorf("Index misses directory %d", w.Ino)
				}
			}
			for i, s := range st {
				if es.Service[i] != time.Duration(s.ServiceNS) || es.QPS[i] != s.Ops ||
					es.RPCs[i] != s.RPCs || es.Inodes[i] != int(s.Inodes) {
					t.Errorf("MDS %d tallies service=%v qps=%d rpcs=%d inodes=%d, dump says %+v",
						i, es.Service[i], es.QPS[i], es.RPCs[i], es.Inodes[i], s)
				}
			}
		})
	}
}

// TestEpochStatsSimLiveParity: one namespace with a nested pin and one
// epoch of traffic give the same DirStats through the simulator's
// Collector.Snapshot and through the live dump path, once that traffic is
// rendered as the rows each owning shard would send. ParentLsdirs is the
// exception: a live dump carries no lsdir tally, so it is 0 there.
func TestEpochStatsSimLiveParity(t *testing.T) {
	params := costmodel.DefaultParams()
	ex := &cluster.Executor{Tree: namespace.NewTree(), PM: cluster.NewPartitionMap(3), Params: &params}
	apply := func(op trace.Op) cluster.OpResult {
		t.Helper()
		res, err := ex.Apply(op, cluster.NoCache{}, 0)
		if err != nil {
			t.Fatalf("%v: %v", op, err)
		}
		return res
	}
	for _, p := range []string{"/a", "/a/b", "/a/b/c", "/a/b/c/d", "/a/e", "/x"} {
		apply(trace.Op{Type: costmodel.OpMkdir, Path: p})
	}
	for _, p := range []string{"/f0", "/a/f1", "/a/f2", "/a/b/f3", "/a/b/c/f4", "/a/b/c/d/f5", "/a/b/c/d/f6", "/x/f7"} {
		apply(trace.Op{Type: costmodel.OpCreate, Path: p})
	}
	inoOf := func(path string) namespace.Ino {
		chain, err := ex.Tree.ResolvePath(path)
		if err != nil {
			t.Fatal(err)
		}
		return chain[len(chain)-1].Ino
	}
	for path, m := range map[string]cluster.MDSID{"/a/b": 1, "/a/b/c/d": 2, "/x": 2} {
		if err := ex.PM.Pin(inoOf(path), m); err != nil {
			t.Fatal(err)
		}
	}

	// One epoch: the Collector records each op, and tallies keeps what
	// the owning MDS counts for it.
	coll := cluster.NewCollector(3)
	type tally struct{ reads, writes, service, through int64 }
	tallies := make(map[namespace.Ino]*tally)
	at := func(ino namespace.Ino) *tally {
		if tallies[ino] == nil {
			tallies[ino] = &tally{}
		}
		return tallies[ino]
	}
	ops := []trace.Op{
		{Type: costmodel.OpStat, Path: "/a/b/c/d/f5"},
		{Type: costmodel.OpOpen, Path: "/a/b/c/d/f6"},
		{Type: costmodel.OpStat, Path: "/a/b/c/f4"},
		{Type: costmodel.OpStat, Path: "/a/f1"},
		{Type: costmodel.OpCreate, Path: "/a/b/f8"},
		{Type: costmodel.OpCreate, Path: "/a/e/f9"},
		{Type: costmodel.OpMkdir, Path: "/a/b/c/d/g"},
		{Type: costmodel.OpCreate, Path: "/a/b/c/d/g/f10"},
		{Type: costmodel.OpLsdir, Path: "/a"},
		{Type: costmodel.OpLsdir, Path: "/a/b/c"},
		{Type: costmodel.OpStat, Path: "/x/f7"},
		{Type: costmodel.OpStat, Path: "/f0"},
	}
	for _, op := range ops {
		res := apply(op)
		coll.Record(op, &res)
		tl := at(res.TargetDir)
		if op.Type.IsWrite() {
			tl.writes++
		} else {
			tl.reads++
		}
		tl.service += int64(res.ServiceSum())
		for _, d := range res.PathDirs {
			at(d).through++
		}
	}

	rows := make([][]mds.DumpRow, 3)
	for _, ino := range ex.Tree.DirList() {
		in, err := ex.Tree.Get(ino)
		if err != nil {
			t.Fatal(err)
		}
		owner, err := ex.PM.OwnerOf(ex.Tree, ino)
		if err != nil {
			t.Fatal(err)
		}
		tl := at(ino)
		row := mds.DumpRow{Ino: ino, Parent: in.Parent, Reads: tl.reads, Writes: tl.writes,
			Lookups: tl.through, ServiceNS: tl.service}
		ex.Tree.ForEachChild(ino, func(ch *namespace.Inode) {
			if !ch.IsDir() {
				row.ChildFiles++
			}
		})
		rows[owner] = append(rows[owner], row)
	}

	sim := coll.Snapshot(0, ex.Tree, ex.PM)
	live := epochStatsFromDumps(make([]mds.StatsSnapshot, 3), rows, ex.PM)
	if len(sim.Dirs) != len(live.Dirs) {
		t.Fatalf("simulator dumps %d directories, live %d", len(sim.Dirs), len(live.Dirs))
	}
	lsdirs := false
	for i, s := range sim.Dirs {
		lsdirs = lsdirs || s.ParentLsdirs != 0
		s.ParentLsdirs = 0
		if l := live.Dirs[i]; s != l {
			t.Errorf("directory %d:\n  sim %+v\n live %+v", s.Ino, s, l)
		}
	}
	if !lsdirs {
		t.Error("no simulated ParentLsdirs: the listings did not exercise the one field that differs")
	}
}
