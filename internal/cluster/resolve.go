package cluster

import (
	"fmt"
	"time"

	"origami/internal/costmodel"
	"origami/internal/namespace"
	"origami/internal/trace"
)

// Visit is one MDS's involvement in serving a request: the queue it passes
// through and the service (busy) time it consumes there.
type Visit struct {
	MDS     MDSID
	Service time.Duration
}

// OpResult describes the execution of one metadata operation under the
// current partition: the Eq.-2 profile, the per-MDS visit list (whose
// service times sum to the cost model's ServiceTime), and the bookkeeping
// the Data Collector records.
type OpResult struct {
	Profile costmodel.Profile
	Visits  []Visit
	// Exec is the MDS that executed the operation; the per-MDS request
	// count (EpochStats.QPS) attributes the whole request here.
	Exec MDSID
	// TargetDir is the directory containing the target entry; per-dir
	// read/write/load accounting attributes the op here.
	TargetDir namespace.Ino
	// PathDirs are the directories whose lookup was served by an MDS
	// (cached prefix excluded); crossing-overhead accounting counts
	// traversals here.
	PathDirs []namespace.Ino
	// Created is the inode created by create/mkdir, if any.
	Created namespace.Ino
	// CachedPrefix counts path components resolved client-side.
	CachedPrefix int
}

// PinPolicy lets a balancing strategy place newly created directories at
// creation time (how the hash-based baselines operate). It returns the MDS
// to pin the new directory to, or ok=false to inherit the parent's owner.
type PinPolicy func(t *namespace.Tree, pm *PartitionMap, ino namespace.Ino, path string, depth int) (MDSID, bool)

// Executor applies metadata operations to the shared namespace under a
// partition map, producing cost profiles. It is the simulator's model of
// the MDS cluster's execution engine.
type Executor struct {
	Tree   *namespace.Tree
	PM     *PartitionMap
	Params *costmodel.Params
	// PinOnMkdir, when non-nil, is invoked for every new directory.
	PinOnMkdir PinPolicy
}

// resolvedChain is the outcome of partition-aware path resolution.
type resolvedChain struct {
	inos   []namespace.Ino // full chain including root
	owners []MDSID         // owner per chain element
	// firstUncached is the index of the first element that required an
	// MDS lookup; everything before it came from the client cache.
	firstUncached int
}

// resolve walks the path, computing each component's owner incrementally,
// and determines the client-cached prefix. The final component is never
// considered cached (the target is always served authoritatively).
func (e *Executor) resolve(path string, cache Cache) (resolvedChain, error) {
	chain, err := e.Tree.ResolvePath(path)
	if err != nil {
		return resolvedChain{}, err
	}
	rc := resolvedChain{
		inos:   make([]namespace.Ino, len(chain)),
		owners: make([]MDSID, len(chain)),
	}
	owner := MDSID(0)
	for i, in := range chain {
		owner = e.PM.OwnerBelow(owner, in.Ino)
		rc.inos[i] = in.Ino
		rc.owners[i] = owner
	}
	// Longest cached prefix, excluding the final (target) component.
	rc.firstUncached = 0
	for i := 0; i < len(chain)-1; i++ {
		if !cache.Contains(chain[i].Ino) {
			break
		}
		rc.firstUncached = i + 1
	}
	return rc, nil
}

// admit offers every resolved directory to the cache.
func admit(cache Cache, rc resolvedChain, t *namespace.Tree) {
	for i, ino := range rc.inos {
		in, err := t.Get(ino)
		if err == nil && in.IsDir() {
			cache.Insert(ino, i)
		}
	}
}

// groupVisits turns the uncached suffix of a chain into MDS visits: one
// visit per run of consecutive same-owner components, each charged
// T_inode·(components+1) — the +1 being the fake-inode read that records
// where the partition boundary leads (Eq. 2's m extra reads).
func (e *Executor) groupVisits(rc resolvedChain) (visits []Visit, m, k int, pathDirs []namespace.Ino) {
	i := rc.firstUncached
	for i < len(rc.inos) {
		owner := rc.owners[i]
		n := 0
		for i < len(rc.inos) && rc.owners[i] == owner {
			pathDirs = append(pathDirs, rc.inos[i])
			n++
			i++
		}
		visits = append(visits, Visit{
			MDS:     owner,
			Service: e.Params.TInode*time.Duration(n+1) + e.Params.RPCHandle,
		})
		m++
		k += n
	}
	return visits, m, k, pathDirs
}

// Apply executes one operation, mutating the namespace for writes, and
// returns its cost breakdown. now is the virtual-clock timestamp recorded
// in mutated inodes.
func (e *Executor) Apply(op trace.Op, cache Cache, now int64) (OpResult, error) {
	switch op.Type {
	case costmodel.OpCreate, costmodel.OpMkdir:
		return e.applyCreate(op, cache, now)
	case costmodel.OpUnlink, costmodel.OpRmdir:
		return e.applyRemove(op, cache, now)
	case costmodel.OpRename:
		return e.applyRename(op, cache, now)
	case costmodel.OpLsdir:
		return e.applyLsdir(op, cache, now)
	case costmodel.OpStat, costmodel.OpOpen, costmodel.OpSetattr:
		return e.applyPoint(op, cache, now)
	default:
		return OpResult{}, fmt.Errorf("cluster: unsupported op %v", op.Type)
	}
}

// applyPoint handles stat/open/setattr: resolve and touch one entry.
func (e *Executor) applyPoint(op trace.Op, cache Cache, now int64) (OpResult, error) {
	rc, err := e.resolve(op.Path, cache)
	if err != nil {
		return OpResult{}, err
	}
	visits, m, k, pathDirs := e.groupVisits(rc)
	last := len(rc.inos) - 1
	execMDS := rc.owners[last]
	if m == 0 { // entire parent chain cached; still one RPC to the target
		visits = append(visits, Visit{MDS: execMDS, Service: e.Params.TInode + e.Params.RPCHandle})
		m, k = 1, 1
	}
	visits[len(visits)-1].Service += e.Params.TExec[op.Type]
	target := rc.inos[last]
	if op.Type == costmodel.OpSetattr {
		in, _ := e.Tree.Get(target)
		if err := e.Tree.SetAttr(target, in.Size+1, in.Mode, now); err != nil {
			return OpResult{}, err
		}
	} else {
		e.Tree.Touch(target, now)
	}
	admit(cache, rc, e.Tree)
	parent := namespace.RootIno
	if last > 0 {
		parent = rc.inos[last-1]
	}
	return OpResult{
		Profile:      costmodel.Profile{K: k, M: m},
		Visits:       visits,
		Exec:         execMDS,
		TargetDir:    parent,
		PathDirs:     dirsOnly(e.Tree, pathDirs),
		CachedPrefix: rc.firstUncached,
	}, nil
}

// applyLsdir lists a directory. Children pinned to other MDSs add the
// RTT·i latency term of Eq. 2; the remote fetches are wire time, not MDS
// busy time.
func (e *Executor) applyLsdir(op trace.Op, cache Cache, now int64) (OpResult, error) {
	rc, err := e.resolve(op.Path, cache)
	if err != nil {
		return OpResult{}, err
	}
	visits, m, k, pathDirs := e.groupVisits(rc)
	last := len(rc.inos) - 1
	dirIno := rc.inos[last]
	dirOwner := rc.owners[last]
	if m == 0 {
		visits = append(visits, Visit{MDS: dirOwner, Service: e.Params.TInode + e.Params.RPCHandle})
		m, k = 1, 1
	}
	// Count children and the spread of their owners.
	entries := 0
	remote := make(map[MDSID]struct{})
	e.Tree.ForEachChild(dirIno, func(in *namespace.Inode) {
		entries++
		owner := e.PM.OwnerBelow(dirOwner, in.Ino)
		if owner != dirOwner {
			remote[owner] = struct{}{}
		}
	})
	spread := len(remote)
	visits[len(visits)-1].Service += e.Params.TExec[op.Type] +
		e.Params.LsdirPerEntry*time.Duration(entries)
	e.Tree.Touch(dirIno, now)
	admit(cache, rc, e.Tree)
	return OpResult{
		Profile:      costmodel.Profile{K: k, M: m, Spread: spread, Entries: entries},
		Visits:       visits,
		Exec:         dirOwner,
		TargetDir:    dirIno,
		PathDirs:     dirsOnly(e.Tree, pathDirs),
		CachedPrefix: rc.firstUncached,
	}, nil
}

// applyCreate handles create and mkdir: resolve the parent chain, insert
// the entry, and pay coordination if the new entry lands on another MDS.
func (e *Executor) applyCreate(op trace.Op, cache Cache, now int64) (OpResult, error) {
	dirPath, name := namespace.ParentPath(op.Path)
	rc, err := e.resolve(dirPath, cache)
	if err != nil {
		return OpResult{}, err
	}
	visits, m, k, pathDirs := e.groupVisits(rc)
	last := len(rc.inos) - 1
	parentIno := rc.inos[last]
	parentOwner := rc.owners[last]
	if m == 0 {
		visits = append(visits, Visit{MDS: parentOwner, Service: e.Params.TInode + e.Params.RPCHandle})
		m, k = 1, 1
	}
	typ := namespace.TypeFile
	if op.Type == costmodel.OpMkdir {
		typ = namespace.TypeDir
	}
	in, err := e.Tree.Create(parentIno, name, typ, now)
	if err != nil {
		return OpResult{}, err
	}
	// The balancing strategy may place the new directory elsewhere.
	newOwner := parentOwner
	if typ == namespace.TypeDir && e.PinOnMkdir != nil {
		if mds, ok := e.PinOnMkdir(e.Tree, e.PM, in.Ino, op.Path, last+1); ok {
			if err := e.PM.Pin(in.Ino, mds); err != nil {
				return OpResult{}, err
			}
			newOwner = mds
		}
	}
	spread := 0
	k++ // the insertion itself is one more metadata record touched
	visits[len(visits)-1].Service += e.Params.TExec[op.Type]
	if newOwner != parentOwner {
		spread = 1
		m++
		// Distributed transaction: both participants burn coordination
		// time (Eq. 2's T_coor, charged once overall, split across the
		// two MDSs' busy time).
		visits[len(visits)-1].Service += e.Params.TCoor / 2
		visits = append(visits, Visit{
			MDS:     newOwner,
			Service: e.Params.TCoor/2 + e.Params.TInode + e.Params.RPCHandle,
		})
	}
	admit(cache, rc, e.Tree)
	return OpResult{
		Profile:      costmodel.Profile{K: k, M: m, Spread: spread},
		Visits:       visits,
		Exec:         parentOwner,
		TargetDir:    parentIno,
		PathDirs:     dirsOnly(e.Tree, pathDirs),
		Created:      in.Ino,
		CachedPrefix: rc.firstUncached,
	}, nil
}

// applyRemove handles unlink and rmdir.
func (e *Executor) applyRemove(op trace.Op, cache Cache, now int64) (OpResult, error) {
	rc, err := e.resolve(op.Path, cache)
	if err != nil {
		return OpResult{}, err
	}
	visits, m, k, pathDirs := e.groupVisits(rc)
	last := len(rc.inos) - 1
	targetIno := rc.inos[last]
	targetOwner := rc.owners[last]
	parentIno := namespace.RootIno
	parentOwner := MDSID(0)
	if last > 0 {
		parentIno = rc.inos[last-1]
		parentOwner = rc.owners[last-1]
	}
	if m == 0 {
		visits = append(visits, Visit{MDS: parentOwner, Service: e.Params.TInode + e.Params.RPCHandle})
		m, k = 1, 1
	}
	in, err := e.Tree.Get(targetIno)
	if err != nil {
		return OpResult{}, err
	}
	name := in.Name
	if err := e.Tree.Remove(parentIno, name, now); err != nil {
		return OpResult{}, err
	}
	e.PM.Unpin(targetIno)
	cache.Invalidate(targetIno)
	spread := 0
	visits[len(visits)-1].Service += e.Params.TExec[op.Type]
	if targetOwner != parentOwner {
		spread = 1
		visits[len(visits)-1].Service += e.Params.TCoor / 2
		visits = append(visits, Visit{MDS: targetOwner, Service: e.Params.TCoor/2 + e.Params.RPCHandle})
	}
	admit(cache, rc, e.Tree)
	return OpResult{
		Profile:      costmodel.Profile{K: k, M: m, Spread: spread},
		Visits:       visits,
		Exec:         parentOwner,
		TargetDir:    parentIno,
		PathDirs:     dirsOnly(e.Tree, pathDirs),
		CachedPrefix: rc.firstUncached,
	}, nil
}

// applyRename resolves source and destination, moves the entry, and pays
// coordination when the two parents (or the moved entry) live on
// different MDSs.
func (e *Executor) applyRename(op trace.Op, cache Cache, now int64) (OpResult, error) {
	srcRC, err := e.resolve(op.Path, cache)
	if err != nil {
		return OpResult{}, err
	}
	dstDirPath, dstName := namespace.ParentPath(op.Dst)
	dstRC, err := e.resolve(dstDirPath, cache)
	if err != nil {
		return OpResult{}, err
	}
	v1, m1, k1, pd1 := e.groupVisits(srcRC)
	v2, m2, k2, pd2 := e.groupVisits(dstRC)
	srcLast := len(srcRC.inos) - 1
	srcIno := srcRC.inos[srcLast]
	srcOwner := srcRC.owners[srcLast]
	srcParent := namespace.RootIno
	srcParentOwner := MDSID(0)
	if srcLast > 0 {
		srcParent = srcRC.inos[srcLast-1]
		srcParentOwner = srcRC.owners[srcLast-1]
	}
	dstParent := dstRC.inos[len(dstRC.inos)-1]
	dstParentOwner := dstRC.owners[len(dstRC.inos)-1]

	// The two resolutions run back-to-back; consecutive hops to the same
	// MDS are one RPC (on a single MDS the whole rename is one request).
	visits := mergeAdjacent(append(v1, v2...))
	m, k := len(visits), k1+k2
	_, _ = m1, m2
	if m == 0 {
		visits = append(visits, Visit{MDS: srcParentOwner, Service: e.Params.TInode + e.Params.RPCHandle})
		m, k = 1, 1
	}
	in, err := e.Tree.Get(srcIno)
	if err != nil {
		return OpResult{}, err
	}
	if err := e.Tree.Rename(srcParent, in.Name, dstParent, dstName, now); err != nil {
		return OpResult{}, err
	}
	spread := 0
	visits[len(visits)-1].Service += e.Params.TExec[op.Type]
	participants := map[MDSID]struct{}{}
	for _, o := range []MDSID{srcParentOwner, dstParentOwner, srcOwner} {
		participants[o] = struct{}{}
	}
	if len(participants) > 1 {
		spread = 1
		share := e.Params.TCoor / time.Duration(len(participants))
		for o := range participants {
			visits = append(visits, Visit{MDS: o, Service: share})
		}
	}
	admit(cache, srcRC, e.Tree)
	admit(cache, dstRC, e.Tree)
	cache.Invalidate(srcIno) // after admit, so the moved dir stays dropped
	return OpResult{
		Profile:      costmodel.Profile{K: k, M: m, Spread: spread},
		Visits:       visits,
		Exec:         srcParentOwner,
		TargetDir:    srcParent,
		PathDirs:     dirsOnly(e.Tree, append(pd1, pd2...)),
		CachedPrefix: srcRC.firstUncached + dstRC.firstUncached,
	}, nil
}

// mergeAdjacent collapses consecutive visits to the same MDS into one,
// summing their service time.
func mergeAdjacent(vs []Visit) []Visit {
	out := vs[:0]
	for _, v := range vs {
		if n := len(out); n > 0 && out[n-1].MDS == v.MDS {
			out[n-1].Service += v.Service
			continue
		}
		out = append(out, v)
	}
	return out
}

// dirsOnly filters a chain down to directories (files cannot be partition
// boundaries, so crossing accounting ignores them).
func dirsOnly(t *namespace.Tree, inos []namespace.Ino) []namespace.Ino {
	out := inos[:0]
	for _, ino := range inos {
		if in, err := t.Get(ino); err == nil && in.IsDir() {
			out = append(out, ino)
		}
	}
	return out
}

// ServiceSum returns the total MDS busy time of a result's visits.
func (r *OpResult) ServiceSum() time.Duration {
	var s time.Duration
	for _, v := range r.Visits {
		s += v.Service
	}
	return s
}

// RPCs returns the number of RPCs the request needed (one per visit).
func (r *OpResult) RPCs() int { return len(r.Visits) }
