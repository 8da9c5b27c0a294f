package server

import (
	"fmt"
	"path/filepath"
	"sync"
	"time"

	"origami/internal/namespace"
	"origami/internal/replication"
	"origami/internal/telemetry"
)

// Replication wiring for in-process clusters: ring topology, MDS i ships
// its WAL to MDS (i+1) mod n. Each MDS is simultaneously the primary of
// its own shard and the backup of its predecessor's. The coordinator
// drives failover (Coordinator.Failover / StartAutoFailover) and
// re-replication retargets the shippers that were using the dead MDS as
// their backup.

// replGroup holds the per-MDS replication actors. Slots are nil while
// the matching MDS is stopped. Mutated only by the single-threaded admin
// operations (Enable/Stop/Restart/Retarget/Close), like Services itself.
type replGroup struct {
	tweak     func(*replication.Options) // EnableReplication's, reapplied on restart
	backups   []int                      // backups[i] = backup MDS of primary i
	shippers  []*replication.Shipper
	receivers []*replication.Receiver
	regs      []*telemetry.Registry
}

// EnableReplication wires ring replication into a running cluster:
// every MDS gets a Receiver registered on its RPC server and a Shipper
// streaming its shard to the next MDS. What an acknowledgement waits for
// is the cluster's commit mode alone (ClusterConfig.CommitMode:
// sync-repl gates acks on the backup's). tweak, when non-nil, is applied
// to each shipper's options before start, restarts included (tests
// shrink windows and timeouts with it).
func (c *Cluster) EnableReplication(tweak func(*replication.Options)) error {
	n := len(c.Services)
	if n < 2 {
		return fmt.Errorf("server: replication needs >= 2 MDSs, have %d", n)
	}
	if c.repl != nil {
		return fmt.Errorf("server: replication already enabled")
	}
	c.repl = &replGroup{
		tweak:     tweak,
		backups:   make([]int, n),
		shippers:  make([]*replication.Shipper, n),
		receivers: make([]*replication.Receiver, n),
		regs:      make([]*telemetry.Registry, n),
	}
	// Every receiver is up before the first shipper bootstraps to it.
	for i := range c.Services {
		c.repl.regs[i] = telemetry.NewRegistry()
		c.startReceiver(i)
	}
	for i := range c.Services {
		c.repl.backups[i] = (i + 1) % n
		c.startShipper(i)
	}
	return nil
}

// startReceiver registers MDS id's receiver on its server.
func (c *Cluster) startReceiver(id int) {
	svc := c.Services[id]
	rcv := replication.NewReceiver(id, c.replicaDir(id), svc.Store(), c.kvOpts, c.repl.regs[id])
	rcv.Register(svc.Server())
	c.repl.receivers[id] = rcv
}

// startShipper starts MDS id's ring shipper, which takes the shard's
// commit hook and bootstraps its backup from a snapshot.
func (c *Cluster) startShipper(id int) {
	svc := c.Services[id]
	opts := replication.Options{
		Primary:  id,
		Backup:   c.repl.backups[id],
		Registry: c.repl.regs[id],
		Dial:     c.peerResolverFor(id),
		Tracer:   c.Tracer(id),
	}
	if c.repl.tweak != nil {
		c.repl.tweak(&opts)
	}
	c.repl.shippers[id] = replication.NewShipper(svc.Store(), opts)
	svc.AddBuildFeature("replication")
}

func (c *Cluster) replicaDir(id int) string {
	return filepath.Join(c.dir, fmt.Sprintf("mds%d", id), "replicas")
}

// ReplicationEnabled reports whether EnableReplication ran.
func (c *Cluster) ReplicationEnabled() bool { return c.repl != nil }

// BackupOf returns the backup MDS of a primary, or -1 when replication
// is off (or the id is out of range).
func (c *Cluster) BackupOf(id int) int {
	if c.repl == nil || id < 0 || id >= len(c.repl.backups) {
		return -1
	}
	return c.repl.backups[id]
}

// ShipperOf returns a primary's shipper (tests, status), or nil.
func (c *Cluster) ShipperOf(id int) *replication.Shipper {
	if c.repl == nil {
		return nil
	}
	return c.repl.shippers[id]
}

// ReplRegistry returns the replication telemetry registry of one MDS, or
// nil when replication is off.
func (c *Cluster) ReplRegistry(id int) *telemetry.Registry {
	if c.repl == nil {
		return nil
	}
	return c.repl.regs[id]
}

// RetargetReplication re-replicates around a dead MDS: every live
// primary whose backup was dead is retargeted to its next live
// successor, which bootstraps a fresh replica by snapshot.
func (c *Cluster) RetargetReplication(dead int) {
	if c.repl == nil {
		return
	}
	n := len(c.Services)
	for i := 0; i < n; i++ {
		if i == dead || c.repl.shippers[i] == nil || c.repl.backups[i] != dead {
			continue
		}
		nb := -1
		for cand := (i + 1) % n; cand != i; cand = (cand + 1) % n {
			if cand != dead && c.Services[cand] != nil {
				nb = cand
				break
			}
		}
		if nb < 0 {
			continue // nobody left to replicate to
		}
		c.repl.backups[i] = nb
		c.repl.shippers[i].Retarget(nb)
	}
}

// ReplicationStatus summarises one MDS's replication state for the admin
// /healthz document: its role, the stream it ships, and the replicas it
// hosts. Returns nil when replication is off.
func (c *Cluster) ReplicationStatus(id int) map[string]interface{} {
	if c.repl == nil || id < 0 || id >= len(c.repl.shippers) {
		return nil
	}
	doc := map[string]interface{}{}
	role := ""
	if sh := c.repl.shippers[id]; sh != nil {
		role = "primary"
		doc["shipper"] = sh.Status()
	}
	if rc := c.repl.receivers[id]; rc != nil {
		replicas := rc.Status()
		if len(replicas) > 0 {
			if role != "" {
				role += "+backup"
			} else {
				role = "backup"
			}
			doc["replicas"] = replicas
		}
	}
	if role == "" {
		role = "idle"
	}
	doc["role"] = role
	return doc
}

// stopReplicationFor tears down the replication actors of one MDS ahead
// of its shutdown: the shipper dies with its primary (sync waiters are
// released with an error) and hosted replicas are closed.
func (c *Cluster) stopReplicationFor(id int) {
	if c.repl == nil {
		return
	}
	if sh := c.repl.shippers[id]; sh != nil {
		sh.Stop()
		c.repl.shippers[id] = nil
	}
	if rc := c.repl.receivers[id]; rc != nil {
		rc.Close()
		c.repl.receivers[id] = nil
	}
}

// startReplicationFor re-wires replication after RestartMDS: a fresh
// receiver on the revived server and a shipper that re-bootstraps its
// backup from snapshot.
func (c *Cluster) startReplicationFor(id int) {
	if c.repl == nil {
		return
	}
	c.startReceiver(id)
	c.startShipper(id)
}

// Failover handles a confirmed-dead primary: promote its backup (the
// replica is absorbed into the backup's serving store), repoint every
// subtree the dead MDS owned at the promotee, re-replicate around the
// hole, and publish the bumped map so clients recover through the
// not-owner/map-version retry path.
func (co *Coordinator) Failover(dead int) error {
	co.mu.Lock()
	defer co.mu.Unlock()
	return co.failoverLocked(dead)
}

func (co *Coordinator) failoverLocked(dead int) error {
	start := time.Now()
	backup := co.cluster.BackupOf(dead)
	if backup < 0 {
		return fmt.Errorf("server: no backup for MDS %d (replication not enabled)", dead)
	}
	if backup == dead || co.cluster.Services[backup] == nil {
		return fmt.Errorf("server: backup %d of MDS %d is not alive", backup, dead)
	}
	resp, err := co.cluster.Conn(backup).Call(replication.MethodPromote, replication.EncodePromote(dead))
	if err != nil {
		co.reg.Counter("coordinator.failover.errors").Inc()
		return fmt.Errorf("server: promote replica of %d on MDS %d: %w", dead, backup, err)
	}
	absorbed, _ := replication.DecodePromoteResp(resp)
	moved := 0
	for ino, m := range co.pins {
		if m == dead {
			co.pins[ino] = backup
			moved++
		}
	}
	if dead == 0 {
		// MDS 0 is the default owner of everything unpinned; pin the root
		// at the promotee so resolution lands there. (Clients still
		// bootstrap their map from MDS 0 — promoting MDS 0 keeps the data
		// available but needs an out-of-band map source; see DESIGN.md.)
		co.pins[namespace.RootIno] = backup
		moved++
	}
	co.cluster.RetargetReplication(dead)
	stale := co.publish()
	co.failedOver[dead] = true
	co.reg.Counter("coordinator.failover.completed").Inc()
	co.reg.Histogram("coordinator.failover.duration_ns").Record(time.Since(start).Nanoseconds())
	co.log.Info("failover complete",
		"dead", dead, "promoted", backup, "absorbed", absorbed,
		"pins_moved", moved, "map_version", co.version, "stale", stale)
	return nil
}

// StartAutoFailover launches the heartbeat/failover loop: every interval
// it probes all MDSs and fails over any primary the tracker declares
// Down (once per outage — a revived MDS re-arms). Returns a stop func.
func (co *Coordinator) StartAutoFailover(interval time.Duration) (stop func()) {
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case <-t.C:
			}
			co.failoverSweep()
		}
	}()
	return func() { close(done); wg.Wait() }
}

// failoverSweep is one heartbeat round: probe everything, fail over what
// is down and still has a live backup.
func (co *Coordinator) failoverSweep() {
	for id := range co.cluster.Addrs {
		st := co.Health.Check(id)
		co.mu.Lock()
		switch {
		case st == Up:
			delete(co.failedOver, id) // re-arm after a revival
		case st == Down && !co.failedOver[id]:
			backup := co.cluster.BackupOf(id)
			if backup >= 0 && backup != id && co.Health.State(backup) == Up {
				if err := co.failoverLocked(id); err != nil {
					co.log.Warn("failover failed", "dead", id, "err", err)
				}
			}
		}
		co.mu.Unlock()
	}
	co.recordHealthGauges()
}
