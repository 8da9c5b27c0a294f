package cluster

import (
	"sort"
	"time"

	"origami/internal/costmodel"
	"origami/internal/namespace"
	"origami/internal/trace"
)

// DirRow is one directory's epoch tally, the input of the Data
// Collector's aggregation. Directories, not files, are the collection
// unit (§4.1), which keeps the dump small.
type DirRow struct {
	Ino       namespace.Ino
	Parent    namespace.Ino
	Files     int   // files directly in this directory
	Reads     int64 // read-type ops targeting entries in this directory
	Writes    int64 // write-type ops targeting entries in this directory
	ServiceNS int64 // MDS busy time attributable to those ops
	Through   int64 // resolutions that traversed this directory
	Lsdirs    int64 // lsdir ops listing this directory
}

// DirStat is one row of an epoch dump: the per-subtree statistics Meta-OPT
// and the feature pipeline consume. Subtree* fields aggregate over the
// whole subtree rooted here, because migration operates at subtree
// granularity (§4.3).
type DirStat struct {
	Ino    namespace.Ino
	Parent namespace.Ino
	Depth  int
	// Structure (Table 1, "Namespace Structure").
	SubFiles int // files in the subtree
	SubDirs  int // directories in the subtree (excluding this one)
	// Access history of the subtree in this epoch (Table 1, "Metadata
	// History").
	SubtreeReads  int64
	SubtreeWrites int64
	// OwnReads and OwnWrites count only operations targeting entries
	// directly in this directory (no subtree aggregation) — what a
	// directory-popularity balancer like LoADM ranks by.
	OwnReads  int64
	OwnWrites int64
	// SubtreeService is the MDS busy time attributable to the subtree:
	// the l_s of Appendix A.
	SubtreeService time.Duration
	// OwnedService restricts SubtreeService to directories currently
	// owned by this subtree root's MDS — the load that would actually
	// move if the subtree migrated (nested foreign pins keep theirs).
	OwnedService time.Duration
	// OwnedInodes is the number of inodes that would move with the
	// subtree, sizing the migration's copy cost.
	OwnedInodes int
	// Through counts resolutions traversing this directory; together
	// with ParentLsdirs it prices the o_s crossing overhead a cut here
	// would introduce. A live dump has no lsdir tally, so ParentLsdirs
	// is 0 on the live cluster.
	Through      int64
	ParentLsdirs int64
	// Owner is the MDS serving this directory under the current map.
	Owner MDSID
}

// EpochStats is a full Data Collector dump for one epoch (§4.1): the
// per-directory table plus per-MDS aggregates.
type EpochStats struct {
	Epoch int
	// Dirs lists every directory, sorted by inode number.
	Dirs []DirStat
	// Index maps a directory inode to its position in Dirs.
	Index map[namespace.Ino]int
	// Service is each MDS's total busy time this epoch.
	Service []time.Duration
	// QPS and RPCs are per-MDS request and RPC counts.
	QPS  []int64
	RPCs []int64
	// Inodes is the number of inodes each MDS owns at dump time.
	Inodes []int
}

// Collector accumulates per-directory and per-MDS statistics during an
// epoch and produces EpochStats dumps.
type Collector struct {
	n       int
	dirs    map[namespace.Ino]*DirRow
	service []time.Duration
	qps     []int64
	rpcs    []int64
}

// NewCollector creates a collector for an n-MDS cluster.
func NewCollector(n int) *Collector {
	return &Collector{
		n:       n,
		dirs:    make(map[namespace.Ino]*DirRow),
		service: make([]time.Duration, n),
		qps:     make([]int64, n),
		rpcs:    make([]int64, n),
	}
}

func (c *Collector) accum(ino namespace.Ino) *DirRow {
	a, ok := c.dirs[ino]
	if !ok {
		a = &DirRow{}
		c.dirs[ino] = a
	}
	return a
}

// Record ingests one executed operation.
func (c *Collector) Record(op trace.Op, res *OpResult) {
	a := c.accum(res.TargetDir)
	if op.Type.IsWrite() {
		a.Writes++
	} else {
		a.Reads++
	}
	a.ServiceNS += int64(res.ServiceSum())
	if op.Type == costmodel.OpLsdir {
		a.Lsdirs++
	}
	for _, d := range res.PathDirs {
		c.accum(d).Through++
	}
	for _, v := range res.Visits {
		c.service[v.MDS] += v.Service
		c.rpcs[v.MDS]++
	}
	c.qps[res.Exec]++
}

// Reset clears the epoch counters (structure stays with the namespace).
func (c *Collector) Reset() {
	c.dirs = make(map[namespace.Ino]*DirRow)
	for i := 0; i < c.n; i++ {
		c.service[i] = 0
		c.qps[i] = 0
		c.rpcs[i] = 0
	}
}

// Snapshot produces the epoch dump: one row per directory of the
// namespace with its tallies, aggregated by BuildEpochStats, plus the
// per-MDS tallies.
func (c *Collector) Snapshot(epoch int, t *namespace.Tree, pm *PartitionMap) *EpochStats {
	dirs := t.DirList()
	rows := make([]DirRow, len(dirs))
	for i, ino := range dirs {
		r := &rows[i]
		if a, ok := c.dirs[ino]; ok {
			*r = *a
		}
		r.Ino = ino
		if in, err := t.Get(ino); err == nil {
			r.Parent = in.Parent
		}
		t.ForEachChild(ino, func(in *namespace.Inode) {
			if !in.IsDir() {
				r.Files++
			}
		})
	}
	es := BuildEpochStats(rows, pm)
	es.Epoch = epoch
	es.Service = append([]time.Duration(nil), c.service...)
	es.QPS = append([]int64(nil), c.qps...)
	es.RPCs = append([]int64(nil), c.rpcs...)
	es.Inodes = pm.InodeCounts(t)
	return es
}

// BuildEpochStats is the Data Collector's aggregation, the one the
// simulator and the live coordinator share: it turns per-directory rows
// into DirStats sorted by inode — depth, owner under pm, and the subtree
// aggregates, computed top-down and bottom-up over the rows' parent
// links. It reorders rows. The caller fills in Epoch and the per-MDS
// slices.
//
// The rows of a degraded live epoch need not form one tree. A directory
// listed twice keeps its later row (a shard's stale copy after a failed
// evict). A row whose parent has no row (that shard's dump was skipped)
// heads its own subtree: depth 1 if the missing parent is the root, else
// 2, owned by its own pin, else its parent's, else MDS 0. Rows on a
// parent cycle are headed the same way.
func BuildEpochStats(rows []DirRow, pm *PartitionMap) *EpochStats {
	sort.SliceStable(rows, func(i, j int) bool { return rows[i].Ino < rows[j].Ino })
	n := 0
	for i := range rows {
		if i+1 < len(rows) && rows[i+1].Ino == rows[i].Ino {
			continue // a later row of the same directory follows
		}
		rows[n] = rows[i]
		n++
	}
	rows = rows[:n]
	es := &EpochStats{Dirs: make([]DirStat, n), Index: make(map[namespace.Ino]int, n)}
	for i, r := range rows {
		es.Index[r.Ino] = i
	}
	parent := make([]int, n) // row index of the parent's row, -1 if none
	kids := make([][]int, n)
	for i, r := range rows {
		p, ok := es.Index[r.Parent]
		if !ok || r.Ino == namespace.RootIno {
			p = -1
		} else {
			kids[p] = append(kids[p], i)
		}
		parent[i] = p
	}
	type agg struct {
		files, subdirs int
		reads, writes  int64
		service        int64
		ownedService   int64
		ownedInodes    int
	}
	visited := make([]bool, n)
	var walk func(i, depth int, owner MDSID) agg
	walk = func(i, depth int, owner MDSID) agg {
		visited[i] = true
		r := &rows[i]
		owner = pm.OwnerBelow(owner, r.Ino)
		a := agg{files: r.Files, reads: r.Reads, writes: r.Writes, service: r.ServiceNS,
			ownedService: r.ServiceNS, ownedInodes: 1 + r.Files}
		for _, k := range kids[i] {
			if visited[k] {
				continue
			}
			ka := walk(k, depth+1, owner)
			a.files += ka.files
			a.subdirs += ka.subdirs + 1
			a.reads += ka.reads
			a.writes += ka.writes
			a.service += ka.service
			if es.Dirs[k].Owner == owner {
				a.ownedService += ka.ownedService
				a.ownedInodes += ka.ownedInodes
			}
		}
		ds := DirStat{
			Ino:            r.Ino,
			Parent:         r.Parent,
			Depth:          depth,
			SubFiles:       a.files,
			SubDirs:        a.subdirs,
			SubtreeReads:   a.reads,
			SubtreeWrites:  a.writes,
			OwnReads:       r.Reads,
			OwnWrites:      r.Writes,
			SubtreeService: time.Duration(a.service),
			OwnedService:   time.Duration(a.ownedService),
			OwnedInodes:    a.ownedInodes,
			Through:        r.Through,
			Owner:          owner,
		}
		if p := parent[i]; p >= 0 {
			ds.ParentLsdirs = rows[p].Lsdirs
		}
		es.Dirs[i] = ds
		return a
	}
	head := func(i int) {
		r := &rows[i]
		if r.Ino == namespace.RootIno {
			walk(i, 0, 0)
			return
		}
		depth := 2
		if r.Parent == namespace.RootIno {
			depth = 1
		}
		owner, _ := pm.PinOf(r.Parent)
		walk(i, depth, owner)
	}
	for i := range rows {
		if parent[i] < 0 {
			head(i)
		}
	}
	for i := range rows {
		if !visited[i] {
			head(i)
		}
	}
	return es
}

// TotalReads returns the cluster-wide read count of the epoch (the root's
// subtree aggregate).
func (es *EpochStats) TotalReads() int64 {
	if i, ok := es.Index[namespace.RootIno]; ok {
		return es.Dirs[i].SubtreeReads
	}
	return 0
}

// TotalWrites returns the cluster-wide write count of the epoch.
func (es *EpochStats) TotalWrites() int64 {
	if i, ok := es.Index[namespace.RootIno]; ok {
		return es.Dirs[i].SubtreeWrites
	}
	return 0
}

// Dir returns the row for a directory, or nil if unknown.
func (es *EpochStats) Dir(ino namespace.Ino) *DirStat {
	if i, ok := es.Index[ino]; ok {
		return &es.Dirs[i]
	}
	return nil
}

// IsAncestor reports whether a is an ancestor of b (or equal), using the
// dump's parent links. Strategies use this instead of the live namespace
// tree, so they work identically on the simulator and on merged dumps
// from a networked cluster.
func (es *EpochStats) IsAncestor(a, b namespace.Ino) bool {
	for cur := b; ; {
		if cur == a {
			return true
		}
		if cur == namespace.RootIno {
			return false
		}
		d := es.Dir(cur)
		if d == nil || d.Parent == cur {
			return false
		}
		cur = d.Parent
	}
}
