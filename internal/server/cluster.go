// Package server assembles networked OrigamiFS clusters: it can start N
// in-process MDS services (used by tests, examples, and the CLI dev mode)
// and runs the Coordinator — the §4.2 Metadata Balancer on MDS 0 that
// pulls Data Collector dumps every epoch, plans migrations with Meta-OPT
// (or a trained model), executes them through the Migrator RPCs, and
// publishes the updated partition map.
package server

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"origami/internal/commit"
	"origami/internal/kvstore"
	"origami/internal/mds"
	"origami/internal/rpc"
	"origami/internal/telemetry"
)

// DefaultCallTimeout bounds the coordinator's RPCs to each MDS so a dead
// shard degrades an epoch instead of hanging it.
const DefaultCallTimeout = 3 * time.Second

// ClusterConfig tunes a cluster beyond the store options. The zero value
// reproduces StartCluster's defaults.
type ClusterConfig struct {
	// KvOpts are the store options of every shard (SyncWAL etc.).
	KvOpts kvstore.Options
	// CallTimeout bounds coordinator and peer RPCs (default
	// DefaultCallTimeout). Chaos scenarios shrink it so dropped frames
	// resolve quickly.
	CallTimeout time.Duration
	// FaultSeed seeds the link-fault table's drop RNG (default 1).
	FaultSeed int64
	// TraceSampleRate is the head-sampling rate of every node's span
	// tracer: 0 keeps the tracer default (record everything), a negative
	// value disables span collection entirely. Slow operations are
	// captured regardless of sampling.
	TraceSampleRate float64
	// SlowOpThreshold is the always-keep-slow span cutoff (0 = the
	// telemetry default; negative disables slow-op capture).
	SlowOpThreshold time.Duration
	// LeaseTTL overrides every shard's directory-lease TTL (0 keeps
	// lease.DefaultTTL). Shorter TTLs tighten the staleness bound for
	// idle clients at the cost of more re-grants; restarted shards keep
	// the override.
	LeaseTTL time.Duration
	// CommitMode selects the durability policy of every shard's commit
	// pipeline: "sync-fsync" (default — ack after the local WAL fsync),
	// "sync-repl" (ack after the backup replica applied; requires
	// EnableReplication, else it degrades to the local fsync), or
	// "async" (ack from the memtable under CommitWindow). It is the one
	// durability setting: EnableReplication never changes it.
	CommitMode string
	// CommitWindow bounds the async mode's acknowledged-but-not-durable
	// in-flight set (0 = commit.DefaultWindow). It is the loss window a
	// crash can open under async commit.
	CommitWindow int
}

// Cluster is a set of running MDS services plus coordinator connections.
type Cluster struct {
	Services []*mds.Service
	Addrs    []string

	mu    sync.Mutex
	conns []*rpc.Client
	// peerConns[from][to] is MDS from's connection to MDS to, dialed
	// lazily. Keeping the matrix per-caller lets link faults (partitions,
	// loss, latency) apply to exactly one direction of one link.
	peerConns [][]*rpc.Client
	dir       string
	timeout   time.Duration
	kvOpts    kvstore.Options

	// faults is the live network-fault table every cluster-owned
	// connection consults (see netfaults.go).
	faults *LinkFaults
	// throttles are the per-MDS slow-disk injectors, installed into each
	// shard's store options (surviving restarts).
	throttles []*kvstore.Throttle

	// tracers[i] is MDS i's span tracer (nil when tracing is disabled).
	// Restarts mint a fresh tracer bound to the revived service's
	// registry — span stores die with their process, like a crash.
	tracers    []*telemetry.Tracer
	traceRate  float64
	slowThresh time.Duration
	leaseTTL   time.Duration

	// commitMode/commitWindow are the cluster-wide durability policy;
	// pipelines[i] is MDS i's installed commit pipeline.
	commitMode   commit.Mode
	commitWindow int
	pipelines    []*commit.Pipeline

	// repl is the replication wiring, nil until EnableReplication. Like
	// Services it is mutated only by single-threaded admin operations.
	repl *replGroup
}

// StartCluster launches n in-process MDS services storing shards under
// baseDir (one sub-directory per MDS). MDS 0 holds the root. The
// coordinator connections carry DefaultCallTimeout deadlines and redial
// automatically after a drop.
func StartCluster(n int, baseDir string) (*Cluster, error) {
	return StartClusterConfig(n, baseDir, ClusterConfig{})
}

// StartClusterConfig is the fully configurable constructor.
func StartClusterConfig(n int, baseDir string, cfg ClusterConfig) (*Cluster, error) {
	if n < 1 {
		return nil, fmt.Errorf("server: cluster size %d", n)
	}
	if cfg.CallTimeout <= 0 {
		cfg.CallTimeout = DefaultCallTimeout
	}
	if cfg.FaultSeed == 0 {
		cfg.FaultSeed = 1
	}
	mode, err := commit.ParseMode(cfg.CommitMode)
	if err != nil {
		return nil, fmt.Errorf("server: %w", err)
	}
	c := &Cluster{
		dir:          baseDir,
		peerConns:    make([][]*rpc.Client, n),
		timeout:      cfg.CallTimeout,
		kvOpts:       cfg.KvOpts,
		faults:       NewLinkFaults(cfg.FaultSeed),
		throttles:    make([]*kvstore.Throttle, n),
		tracers:      make([]*telemetry.Tracer, n),
		traceRate:    cfg.TraceSampleRate,
		slowThresh:   cfg.SlowOpThreshold,
		leaseTTL:     cfg.LeaseTTL,
		commitMode:   mode,
		commitWindow: cfg.CommitWindow,
		pipelines:    make([]*commit.Pipeline, n),
	}
	for i := range c.peerConns {
		c.peerConns[i] = make([]*rpc.Client, n)
		c.throttles[i] = &kvstore.Throttle{}
	}
	for i := 0; i < n; i++ {
		svc, addr, err := c.startMDS(i)
		if err != nil {
			c.Close()
			return nil, err
		}
		c.Services = append(c.Services, svc)
		c.Addrs = append(c.Addrs, addr)
	}
	for i := 0; i < n; i++ {
		conn, err := c.dialLink(0, i)
		if err != nil {
			c.Close()
			return nil, err
		}
		c.conns = append(c.conns, conn)
	}
	return c, nil
}

// startMDS brings MDS id up from its shard directory — the one path for
// a fresh shard and a restarted one alike: open the store, build the
// service with the cluster's lease TTL and commit pipeline, serve on a
// fresh loopback port, and attach a span tracer.
func (c *Cluster) startMDS(id int) (*mds.Service, string, error) {
	dir := filepath.Join(c.dir, fmt.Sprintf("mds%d", id))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, "", err
	}
	store, err := mds.OpenStore(dir, id, c.shardOpts(id))
	if err != nil {
		return nil, "", fmt.Errorf("server: open store %d: %w", id, err)
	}
	svc := mds.NewService(id, store, c.peerResolverFor(id))
	if c.leaseTTL > 0 {
		svc.SetLeaseTTL(c.leaseTTL)
	}
	c.installCommit(id, svc)
	addr, err := svc.Serve("127.0.0.1:0")
	if err != nil {
		store.Close()
		return nil, "", fmt.Errorf("server: serve MDS %d: %w", id, err)
	}
	c.attachTracer(id, svc)
	return svc, addr, nil
}

// newTracer builds a span tracer with the cluster's sampling config,
// or nil when tracing is disabled (negative sample rate).
func (c *Cluster) newTracer(node string, reg *telemetry.Registry) *telemetry.Tracer {
	if c.traceRate < 0 {
		return nil
	}
	return telemetry.NewTracer(node, telemetry.TracerConfig{
		SampleRate:    c.traceRate,
		SlowThreshold: c.slowThresh,
		Registry:      reg,
	})
}

// attachTracer mints MDS id's span tracer and wires it through the
// service (RPC dispatch spans, mds.op spans, kvstore commit spans).
func (c *Cluster) attachTracer(id int, svc *mds.Service) {
	tr := c.newTracer(fmt.Sprintf("mds%d", id), svc.Registry())
	if tr == nil {
		return
	}
	c.tracers[id] = tr
	svc.SetTracer(tr)
}

// Tracer returns one MDS's span tracer, or nil (tracing disabled, id out
// of range).
func (c *Cluster) Tracer(id int) *telemetry.Tracer {
	if id < 0 || id >= len(c.tracers) {
		return nil
	}
	return c.tracers[id]
}

// installCommit builds MDS id's commit pipeline for the cluster's
// current durability policy and installs it on the shard's store. The
// pipeline shares the service's telemetry registry, so the commit.*
// vocabulary lands next to the mds.* metrics (and the batch replay
// counter the service bumps).
func (c *Cluster) installCommit(id int, svc *mds.Service) {
	p := commit.NewPipeline(c.commitMode, c.commitWindow, svc.Registry())
	svc.Store().SetCommitter(p)
	c.pipelines[id] = p
}

// CommitMode returns the cluster's durability policy.
func (c *Cluster) CommitMode() commit.Mode { return c.commitMode }

// PipelineOf returns one MDS's commit pipeline (tests, scenario
// assertions), or nil when the id is out of range.
func (c *Cluster) PipelineOf(id int) *commit.Pipeline {
	if id < 0 || id >= len(c.pipelines) {
		return nil
	}
	return c.pipelines[id]
}

// shardOpts is the per-MDS store configuration: the shared options plus
// that shard's disk throttle.
func (c *Cluster) shardOpts(id int) kvstore.Options {
	opts := c.kvOpts
	opts.Throttle = c.throttles[id]
	return opts
}

// DiskThrottle returns the slow-disk injector of one MDS; setting a
// non-zero delay stalls that shard's write path.
func (c *Cluster) DiskThrottle(id int) *kvstore.Throttle {
	return c.throttles[id]
}

// dialLink dials MDS to on behalf of node from (the coordinator dials as
// MDS 0, where it lives), installing the from→to link injector so the
// fault table applies to the connection for its whole life.
func (c *Cluster) dialLink(from, to int) (*rpc.Client, error) {
	return rpc.DialOptions(c.Addrs[to], rpc.ClientOptions{
		CallTimeout: c.timeout,
		Reconnect:   true,
		BackoffBase: 5 * time.Millisecond,
		Injector:    c.faults.InjectorFor(from, to),
	})
}

// peerResolverFor builds the peer resolver of one MDS: it lazily dials
// MDS-to-MDS connections (migration pushes, replication streams) by id,
// re-dialing when a cached connection died or the peer restarted on a
// new address. Each caller gets its own connections so per-link faults
// hit only that link.
func (c *Cluster) peerResolverFor(from int) func(int) (*rpc.Client, error) {
	return func(id int) (*rpc.Client, error) {
		c.mu.Lock()
		defer c.mu.Unlock()
		if id < 0 || id >= len(c.Addrs) {
			return nil, fmt.Errorf("server: peer %d out of range", id)
		}
		if cached := c.peerConns[from][id]; cached != nil {
			if cached.Connected() && cached.Addr() == c.Addrs[id] {
				return cached, nil
			}
			cached.Close()
			c.peerConns[from][id] = nil
		}
		conn, err := c.dialLink(from, id)
		if err != nil {
			return nil, err
		}
		c.peerConns[from][id] = conn
		return conn, nil
	}
}

// Conn returns the coordinator's connection to one MDS.
func (c *Cluster) Conn(id int) *rpc.Client {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.conns[id]
}

// StopMDS shuts one MDS down in place (crash simulation). Its connection
// slots stay allocated so calls fail fast rather than panic; RestartMDS
// brings the shard back from its on-disk state.
func (c *Cluster) StopMDS(id int) error {
	if id < 0 || id >= len(c.Services) || c.Services[id] == nil {
		return fmt.Errorf("server: no MDS %d to stop", id)
	}
	// Close the service first, replication actors second. The reverse
	// order opens a sync-mode loss window: with the commit hook already
	// uninstalled but the server still answering, a write would be
	// acknowledged without ever reaching the backup. Closing the server
	// first kills the connections, so in-flight writes can commit and
	// ship but their acks never escape — exactly a crash's semantics.
	err := c.Services[id].Close()
	c.stopReplicationFor(id)
	// Background durability waits (async mode, sync-repl's off-path
	// fsyncs) must settle before the store closes under them; stopping
	// the shipper released any pending repl acks with an error, so this
	// returns promptly.
	if p := c.pipelines[id]; p != nil {
		p.Drain()
	}
	c.Services[id] = nil
	return err
}

// RestartMDS revives a stopped MDS from its shard directory, rebinding it
// to a fresh address and re-dialing the coordinator connection. Peer
// connections re-resolve lazily.
func (c *Cluster) RestartMDS(id int) error {
	if id < 0 || id >= len(c.Addrs) {
		return fmt.Errorf("server: MDS %d out of range", id)
	}
	if c.Services[id] != nil {
		return fmt.Errorf("server: MDS %d still running", id)
	}
	svc, addr, err := c.startMDS(id)
	if err != nil {
		return err
	}
	c.mu.Lock()
	c.Services[id] = svc
	c.Addrs[id] = addr
	if c.conns[id] != nil {
		c.conns[id].Close()
	}
	for from := range c.peerConns {
		if c.peerConns[from][id] != nil {
			c.peerConns[from][id].Close()
			c.peerConns[from][id] = nil
		}
	}
	c.mu.Unlock()
	conn, err := c.dialLink(0, id)
	if err != nil {
		return err
	}
	c.mu.Lock()
	c.conns[id] = conn
	c.mu.Unlock()
	c.startReplicationFor(id)
	return nil
}

// Close shuts everything down.
func (c *Cluster) Close() {
	if c.repl != nil {
		for i := range c.repl.shippers {
			c.stopReplicationFor(i)
		}
	}
	for _, p := range c.pipelines {
		if p != nil {
			p.Drain()
		}
	}
	c.mu.Lock()
	conns := append([]*rpc.Client{}, c.conns...)
	var peers []*rpc.Client
	for _, row := range c.peerConns {
		peers = append(peers, row...)
	}
	c.mu.Unlock()
	for _, conn := range conns {
		if conn != nil {
			conn.Close()
		}
	}
	for _, conn := range peers {
		if conn != nil {
			conn.Close()
		}
	}
	for _, svc := range c.Services {
		if svc != nil {
			svc.Close()
		}
	}
}
