package server

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"origami/internal/rpc"
)

// Network-fault fabric for in-process clusters. Every connection the
// cluster owns — coordinator→MDS and MDS→MDS — carries a link injector
// that consults one shared LinkFaults table on each frame, so a chaos
// harness flips partitions, per-link packet drop, and per-link latency
// on live connections without redialing anything. Faults stack: a link
// can have latency AND probabilistic drop at once (rpc.MultiInjector
// semantics).
//
// The coordinator (and, when wired through Cluster.ClientInjector, SDK
// clients) sits on MDS 0's side of any partition — the paper runs the
// Metadata Balancer on MDS 0, so severing MDS 0's side from a group
// severs the control plane from it too.

// ErrPartitioned is the failure injected on a link that crosses a
// partition. It wraps rpc.ErrClosed so callers treat it exactly like a
// dead connection: retryable, health-demoting, fast.
var ErrPartitioned = fmt.Errorf("server: link partitioned: %w", rpc.ErrClosed)

// ErrLinkDropped is the failure injected for a probabilistically dropped
// frame. It wraps rpc.ErrTimeout — the outcome a real lost packet ends
// in — but surfaces immediately so lossy-link scenarios run at full
// speed instead of waiting out call deadlines.
var ErrLinkDropped = fmt.Errorf("server: frame dropped on lossy link: %w", rpc.ErrTimeout)

// linkKey is an undirected node pair (a <= b).
type linkKey struct{ a, b int }

func mkLink(x, y int) linkKey {
	if x > y {
		x, y = y, x
	}
	return linkKey{x, y}
}

// LinkFaults is the mutable fault table of one cluster. All methods are
// safe for concurrent use; injectors consult it on every frame, so
// changes take effect immediately on live connections.
type LinkFaults struct {
	mu        sync.Mutex
	rnd       *rand.Rand
	side      map[int]int // node -> partition side; empty = no partition
	linkDrop  map[linkKey]float64
	linkDelay map[linkKey]time.Duration
	nodeDrop  map[int]float64
	nodeDelay map[int]time.Duration
}

// NewLinkFaults builds an empty fault table whose probabilistic drops
// draw from a RNG seeded with seed.
func NewLinkFaults(seed int64) *LinkFaults {
	return &LinkFaults{
		rnd:       rand.New(rand.NewSource(seed)),
		side:      make(map[int]int),
		linkDrop:  make(map[linkKey]float64),
		linkDelay: make(map[linkKey]time.Duration),
		nodeDrop:  make(map[int]float64),
		nodeDelay: make(map[int]time.Duration),
	}
}

// Partition splits the fleet into groups: links inside a group stay up,
// links between groups fail with ErrPartitioned. Nodes not listed keep
// side 0 (the first group's side, where MDS 0 conventionally lives).
// A node listed twice is an error. Replaces any previous partition.
func (lf *LinkFaults) Partition(groups [][]int) error {
	seen := make(map[int]bool)
	for _, g := range groups {
		for _, id := range g {
			if seen[id] {
				return fmt.Errorf("server: node %d in two partition groups", id)
			}
			seen[id] = true
		}
	}
	lf.mu.Lock()
	defer lf.mu.Unlock()
	lf.side = make(map[int]int)
	for si, g := range groups {
		for _, id := range g {
			lf.side[id] = si
		}
	}
	return nil
}

// Heal removes the partition (link drop/latency faults stay).
func (lf *LinkFaults) Heal() {
	lf.mu.Lock()
	defer lf.mu.Unlock()
	lf.side = make(map[int]int)
}

// SetLinkDrop sets the drop probability of the undirected link a-b
// (0 removes it).
func (lf *LinkFaults) SetLinkDrop(a, b int, p float64) {
	lf.mu.Lock()
	defer lf.mu.Unlock()
	if p <= 0 {
		delete(lf.linkDrop, mkLink(a, b))
		return
	}
	lf.linkDrop[mkLink(a, b)] = p
}

// SetLinkDelay sets the one-way injected latency of the undirected link
// a-b (0 removes it).
func (lf *LinkFaults) SetLinkDelay(a, b int, d time.Duration) {
	lf.mu.Lock()
	defer lf.mu.Unlock()
	if d <= 0 {
		delete(lf.linkDelay, mkLink(a, b))
		return
	}
	lf.linkDelay[mkLink(a, b)] = d
}

// SetNodeDrop sets the drop probability of every link touching a node
// (0 removes it).
func (lf *LinkFaults) SetNodeDrop(id int, p float64) {
	lf.mu.Lock()
	defer lf.mu.Unlock()
	if p <= 0 {
		delete(lf.nodeDrop, id)
		return
	}
	lf.nodeDrop[id] = p
}

// SetNodeDelay sets the injected latency of every link touching a node
// (0 removes it).
func (lf *LinkFaults) SetNodeDelay(id int, d time.Duration) {
	lf.mu.Lock()
	defer lf.mu.Unlock()
	if d <= 0 {
		delete(lf.nodeDelay, id)
		return
	}
	lf.nodeDelay[id] = d
}

// Clear removes every fault: partition, drops, delays.
func (lf *LinkFaults) Clear() {
	lf.mu.Lock()
	defer lf.mu.Unlock()
	lf.side = make(map[int]int)
	lf.linkDrop = make(map[linkKey]float64)
	lf.linkDelay = make(map[linkKey]time.Duration)
	lf.nodeDrop = make(map[int]float64)
	lf.nodeDelay = make(map[int]time.Duration)
}

// faultsOn resolves the current fault stack of the from→to link for one
// frame: a partition terminates it outright; otherwise injected latency
// (link- plus node-level) precedes a probabilistic drop.
func (lf *LinkFaults) faultsOn(from, to int) []rpc.Fault {
	lf.mu.Lock()
	defer lf.mu.Unlock()
	if len(lf.side) > 0 && lf.side[from] != lf.side[to] {
		return []rpc.Fault{{Action: rpc.FaultError, Err: ErrPartitioned}}
	}
	var fs []rpc.Fault
	delay := lf.linkDelay[mkLink(from, to)]
	if d := lf.nodeDelay[from]; d > delay {
		delay = d
	}
	if d := lf.nodeDelay[to]; d > delay {
		delay = d
	}
	if delay > 0 {
		fs = append(fs, rpc.Fault{Action: rpc.FaultDelay, Delay: delay})
	}
	drop := lf.linkDrop[mkLink(from, to)]
	if p := lf.nodeDrop[from]; p > drop {
		drop = p
	}
	if p := lf.nodeDrop[to]; p > drop {
		drop = p
	}
	if drop > 0 && lf.rnd.Float64() < drop {
		fs = append(fs, rpc.Fault{Action: rpc.FaultError, Err: ErrLinkDropped})
	}
	return fs
}

// InjectorFor returns the injector of the from→to link, for installation
// on the rpc.Client that dials to from from. The injector holds no state
// of its own — it reads the live table on every frame.
func (lf *LinkFaults) InjectorFor(from, to int) rpc.FaultInjector {
	return linkInjector{lf: lf, from: from, to: to}
}

type linkInjector struct {
	lf       *LinkFaults
	from, to int
}

// Intercept implements rpc.FaultInjector (first fault wins).
func (li linkInjector) Intercept(point rpc.InjectPoint, method rpc.Method) rpc.Fault {
	if fs := li.InterceptAll(point, method); len(fs) > 0 {
		return fs[0]
	}
	return rpc.Fault{}
}

// InterceptAll implements rpc.MultiInjector. Faults fire once per call,
// at the client-send point.
func (li linkInjector) InterceptAll(point rpc.InjectPoint, method rpc.Method) []rpc.Fault {
	if point != rpc.PointClientSend {
		return nil
	}
	return li.lf.faultsOn(li.from, li.to)
}

// Faults returns the cluster's live network-fault table.
func (c *Cluster) Faults() *LinkFaults { return c.faults }

// Partition splits the cluster into groups (see LinkFaults.Partition),
// validating the node ids first.
func (c *Cluster) Partition(groups [][]int) error {
	for _, g := range groups {
		for _, id := range g {
			if id < 0 || id >= len(c.Addrs) {
				return fmt.Errorf("server: partition node %d out of range [0,%d)", id, len(c.Addrs))
			}
		}
	}
	return c.faults.Partition(groups)
}

// HealPartition removes a partition, leaving other link faults in place.
func (c *Cluster) HealPartition() { c.faults.Heal() }

// ClientInjector returns the injector an SDK client should install on
// its connection to MDS id so partitions and link faults apply to the
// data plane too. Clients sit on MDS 0's side of any partition.
func (c *Cluster) ClientInjector(id int) rpc.FaultInjector {
	return c.faults.InjectorFor(0, id)
}
