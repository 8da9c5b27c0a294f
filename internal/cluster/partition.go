// Package cluster models the OrigamiFS metadata cluster: the partition map
// assigning namespace subtrees to MDSs, partition-aware path resolution
// (which produces the m, k, and i of the cost model's Eq. 2), the Data
// Collector that dumps per-directory statistics every epoch, and the
// Migrator that executes external migration decisions (§4.1–4.2).
package cluster

import (
	"fmt"
	"sort"

	"origami/internal/namespace"
)

// MDSID identifies one metadata server, 0-based. MDS 0 holds the root and
// all initially unassigned metadata (§4.2: "in the initial state,
// OrigamiFS stores all metadata on the MDS numbered 0").
type MDSID int

// PartitionMap assigns directory subtrees to MDSs. A directory is owned by
// its nearest explicitly pinned ancestor (dynamic subtree partitioning);
// regular files are always co-located with their parent directory. The
// root is implicitly pinned to MDS 0.
type PartitionMap struct {
	n    int
	pins map[namespace.Ino]MDSID
}

// NewPartitionMap creates a map over n MDSs with everything on MDS 0.
func NewPartitionMap(n int) *PartitionMap {
	if n < 1 {
		n = 1
	}
	return &PartitionMap{n: n, pins: make(map[namespace.Ino]MDSID)}
}

// NumMDS returns the cluster size.
func (pm *PartitionMap) NumMDS() int { return pm.n }

// Pin assigns the subtree rooted at ino to mds. Pinning the root moves the
// default owner.
func (pm *PartitionMap) Pin(ino namespace.Ino, mds MDSID) error {
	if mds < 0 || int(mds) >= pm.n {
		return fmt.Errorf("cluster: pin %d to invalid MDS %d (cluster size %d)", ino, mds, pm.n)
	}
	pm.pins[ino] = mds
	return nil
}

// Unpin removes an explicit assignment, so the subtree rejoins its
// parent's partition.
func (pm *PartitionMap) Unpin(ino namespace.Ino) { delete(pm.pins, ino) }

// PinOf returns the explicit pin for ino, if any.
func (pm *PartitionMap) PinOf(ino namespace.Ino) (MDSID, bool) {
	m, ok := pm.pins[ino]
	return m, ok
}

// NumPins returns the number of explicit subtree assignments.
func (pm *PartitionMap) NumPins() int { return len(pm.pins) }

// Pins returns the explicit assignments sorted by inode number.
func (pm *PartitionMap) Pins() []struct {
	Ino namespace.Ino
	MDS MDSID
} {
	out := make([]struct {
		Ino namespace.Ino
		MDS MDSID
	}, 0, len(pm.pins))
	for ino, mds := range pm.pins {
		out = append(out, struct {
			Ino namespace.Ino
			MDS MDSID
		}{ino, mds})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Ino < out[j].Ino })
	return out
}

// OwnerOf resolves the owning MDS of ino by walking up the ancestor chain
// to the nearest pin. O(depth); prefer OwnerBelow during top-down path
// resolution, which is O(1) per component.
func (pm *PartitionMap) OwnerOf(t *namespace.Tree, ino namespace.Ino) (MDSID, error) {
	for cur := ino; ; {
		if mds, ok := pm.pins[cur]; ok {
			return mds, nil
		}
		if cur == namespace.RootIno {
			return 0, nil
		}
		in, err := t.Get(cur)
		if err != nil {
			return 0, err
		}
		cur = in.Parent
	}
}

// OwnerBelow returns the owner of child given its parent's owner, in O(1):
// the child's own pin if present, else the parent's owner.
func (pm *PartitionMap) OwnerBelow(parentOwner MDSID, child namespace.Ino) MDSID {
	if mds, ok := pm.pins[child]; ok {
		return mds
	}
	return parentOwner
}

// Clone returns an independent copy of the partition map. Meta-OPT
// explores candidate migrations on clones.
func (pm *PartitionMap) Clone() *PartitionMap {
	c := &PartitionMap{n: pm.n, pins: make(map[namespace.Ino]MDSID, len(pm.pins))}
	for k, v := range pm.pins {
		c.pins[k] = v
	}
	return c
}

// InodeCounts returns how many inodes each MDS currently owns — the
// "Inodes" metric of the Figure-6 imbalance analysis. O(tree).
func (pm *PartitionMap) InodeCounts(t *namespace.Tree) []int {
	counts := make([]int, pm.n)
	var walk func(ino namespace.Ino, owner MDSID)
	walk = func(ino namespace.Ino, owner MDSID) {
		owner = pm.OwnerBelow(owner, ino)
		counts[owner]++
		t.ForEachChild(ino, func(in *namespace.Inode) {
			if in.IsDir() {
				walk(in.Ino, owner)
			} else {
				counts[pm.OwnerBelow(owner, in.Ino)]++
			}
		})
	}
	walk(namespace.RootIno, 0)
	return counts
}
