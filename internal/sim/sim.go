// Package sim is the discrete-event simulator that stands in for the
// paper's 10-node testbed (see DESIGN.md §1). It drives closed-loop
// clients against an MDS cluster modelled as FIFO service queues, with
// per-operation costs supplied by the cluster executor and the Eq.-1/Eq.-2
// cost model. All time is virtual, so runs are deterministic and the
// throughput/latency/imbalance metrics are functions of the partitioning
// strategy alone — exactly the quantities the paper's figures compare.
package sim

import (
	"container/heap"
	"fmt"
	"math/rand"
	"time"

	"origami/internal/cluster"
	"origami/internal/costmodel"
	"origami/internal/namespace"
	"origami/internal/stats"
	"origami/internal/trace"
)

// Config parameterises one simulation run.
type Config struct {
	// NumMDS is the metadata cluster size.
	NumMDS int
	// Clients is the number of closed-loop client threads.
	Clients int
	// CacheDepth enables the near-root client cache for directories
	// with depth < CacheDepth; 0 disables caching.
	CacheDepth int
	// Params is the cost-model calibration; zero value uses defaults.
	Params costmodel.Params
	// Epoch is the virtual-time statistics/rebalance interval
	// (paper: 10 s).
	Epoch time.Duration
	// MaxVirtual stops the run after this much virtual time (0 = no
	// limit; the run ends when the trace is exhausted).
	MaxVirtual time.Duration
	// ArrivalRate switches the load generator to open loop: operations
	// arrive at this rate (ops per virtual second, exponential
	// inter-arrivals) regardless of completions, so latency reflects the
	// offered load instead of the closed-loop equilibrium. 0 keeps the
	// default closed loop of Clients threads.
	ArrivalRate float64
	// Seed drives the open-loop arrival process (default 1).
	Seed int64
	// DataPath, when non-nil, appends a simulated data-cluster stage to
	// every open/create (the Fig. 9b end-to-end configuration).
	DataPath *DataPath
	// Outages takes MDSs offline for windows of virtual time: requests
	// visiting a downed MDS stall until it recovers, and the coordinator
	// rejects migration decisions that touch it (degraded epochs).
	Outages []Outage
}

// Outage is one MDS-unavailability window in virtual time,
// [From, Until).
type Outage struct {
	MDS  int
	From time.Duration
	// Until is when the MDS is back; it must be > From.
	Until time.Duration
}

func (c Config) withDefaults() Config {
	if c.NumMDS <= 0 {
		c.NumMDS = 5
	}
	if c.Clients <= 0 {
		c.Clients = 50
	}
	if c.Params.TInode == 0 {
		c.Params = costmodel.DefaultParams()
	}
	if c.Epoch <= 0 {
		c.Epoch = 10 * time.Second
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// EpochMetrics is the per-epoch measurement row, from which every figure's
// series derives.
type EpochMetrics struct {
	Epoch    int
	Start    time.Duration // virtual time at epoch start
	Ops      int64
	QPS      []float64 // per-MDS executed requests per virtual second
	BusyFrac []float64 // per-MDS busy-time fraction of the epoch
	RPCs     []int64
	Inodes   []int
	Service  []time.Duration
	// Imbalance factors over the four Figure-6 metrics.
	ImbalanceQPS, ImbalanceRPC, ImbalanceInodes, ImbalanceBusy float64
	// Migrations applied at the end of this epoch.
	Migrations    int
	MigratedInos  int
	DecisionsSkip int // decisions rejected (stale or participant in outage)
}

// Result summarises a run.
type Result struct {
	Strategy string
	Ops      int64
	Elapsed  time.Duration // virtual time
	// Throughput is aggregate metadata ops per virtual second over the
	// whole run.
	Throughput float64
	// SteadyThroughput averages per-epoch throughput over the second
	// half of the run (post-rebalancing, as the paper measures).
	SteadyThroughput float64
	// MeanLatency and P99Latency summarise per-op RCT.
	MeanLatency time.Duration
	P50Latency  time.Duration
	P99Latency  time.Duration
	// RPCPerRequest is total RPCs / total requests.
	RPCPerRequest float64
	// ForwardedFraction is the share of RPCs beyond the first per
	// request ("forwarded requests", §1: Origami adds only ~3.5%).
	ForwardedFraction float64
	// Epochs carries the full per-epoch series (Figs. 6 and 7).
	Epochs []EpochMetrics
	// Migrations is the total number of applied migrations.
	Migrations int
	// Applied records every executed migration for decision analysis
	// (the §5.4 study of which subtrees the balancer picks).
	Applied []AppliedMigration
	// FailedOps counts trace ops that could not be applied.
	FailedOps int64
}

// AppliedMigration is one executed migration decision with the subtree
// properties at decision time.
type AppliedMigration struct {
	Epoch    int
	Decision cluster.Decision
	// Depth of the migrated subtree root below "/".
	Depth int
	// WriteFraction of the subtree's epoch accesses.
	WriteFraction float64
	// Inodes moved.
	Inodes int
}

// event is one scheduled simulator action: a request progressing to its
// next visit (client >= 0) or, in open-loop mode, the next arrival
// (client == arrivalEvent).
type event struct {
	at     time.Duration
	seq    int64 // tiebreaker for determinism
	client int
}

// arrivalEvent marks open-loop arrival events.
const arrivalEvent = -1

type eventHeap []event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x interface{}) { *h = append(*h, x.(event)) }
func (h *eventHeap) Pop() interface{} {
	old := *h
	n := len(old)
	e := old[n-1]
	*h = old[:n-1]
	return e
}

// clientState tracks one closed-loop client through its current op's
// visit sequence.
type clientState struct {
	cache     cluster.Cache
	visits    []cluster.Visit
	visitIdx  int
	opStart   time.Duration
	queueWait time.Duration
	op        trace.Op
	res       cluster.OpResult
	inData    bool // currently in the data-path stage
}

// Sim is one configured simulation instance.
type Sim struct {
	cfg      Config
	tr       *trace.Trace
	strategy cluster.Strategy
	exec     *cluster.Executor
	coll     *cluster.Collector
	migrator *cluster.Migrator

	clock   time.Duration
	events  eventHeap
	seq     int64
	freeAt  []time.Duration // per-MDS queue availability
	clients []clientState
	nextOp  int
	done    int64
	failed  int64

	// Open-loop state: free flow slots, shared caches, arrival RNG.
	openLoop  bool
	freeFlows []int
	caches    []cluster.Cache
	rnd       *rand.Rand

	latencies []float64 // seconds, per completed op
	rpcTotal  int64
	fwdTotal  int64

	epochIdx   int
	epochStart time.Duration
	epochOps   int64
	metrics    []EpochMetrics
	migrations int
	applied    []AppliedMigration
}

// New builds a simulator for one (trace, strategy) pair. The trace's setup
// ops are applied instantly (the namespace pre-exists when measurement
// begins), with the strategy's pin policy in force so hash baselines
// partition the initial tree.
func New(cfg Config, tr *trace.Trace, strategy cluster.Strategy) (*Sim, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Params.Validate(); err != nil {
		return nil, err
	}
	t := namespace.NewTree()
	pm := cluster.NewPartitionMap(cfg.NumMDS)
	exec := &cluster.Executor{Tree: t, PM: pm, Params: &cfg.Params, PinOnMkdir: strategy.PinPolicy()}
	s := &Sim{
		cfg:      cfg,
		tr:       tr,
		strategy: strategy,
		exec:     exec,
		coll:     cluster.NewCollector(cfg.NumMDS),
		migrator: cluster.NewMigrator(),
		freeAt:   make([]time.Duration, cfg.NumMDS),
		clients:  make([]clientState, cfg.Clients),
	}
	newCache := func() cluster.Cache {
		if cfg.CacheDepth > 0 {
			return cluster.NewNearRootCache(cfg.CacheDepth)
		}
		return cluster.NoCache{}
	}
	for i := range s.clients {
		s.clients[i].cache = newCache()
	}
	if cfg.ArrivalRate > 0 {
		s.openLoop = true
		s.rnd = rand.New(rand.NewSource(cfg.Seed))
		s.caches = make([]cluster.Cache, cfg.Clients)
		for i := range s.caches {
			s.caches[i] = newCache()
		}
		s.clients = nil // flows are allocated on demand
	}
	// Build the namespace (free of charge: it pre-exists).
	for _, op := range tr.Setup {
		if _, err := exec.Apply(op, cluster.NoCache{}, 0); err != nil {
			return nil, fmt.Errorf("sim: setup op %v: %w", op, err)
		}
	}
	if err := strategy.Setup(t, pm); err != nil {
		return nil, fmt.Errorf("sim: strategy setup: %w", err)
	}
	return s, nil
}

// Tree exposes the simulated namespace (read-only use expected).
func (s *Sim) Tree() *namespace.Tree { return s.exec.Tree }

// PartitionMap exposes the live partition map.
func (s *Sim) PartitionMap() *cluster.PartitionMap { return s.exec.PM }

// outageEnd returns when MDS id comes back if it is in an outage at
// virtual time t, or t itself when it is up.
func (s *Sim) outageEnd(id int, t time.Duration) time.Duration {
	end := t
	for _, o := range s.cfg.Outages {
		if o.MDS == id && end >= o.From && end < o.Until {
			end = o.Until
		}
	}
	return end
}

func (s *Sim) schedule(at time.Duration, client int) {
	s.seq++
	heap.Push(&s.events, event{at: at, seq: s.seq, client: client})
}

// issueNext pulls the next trace op for a client and begins its visit
// sequence. Returns false when the trace is exhausted.
func (s *Sim) issueNext(client int) bool {
	for s.nextOp < len(s.tr.Ops) {
		op := s.tr.Ops[s.nextOp]
		s.nextOp++
		cs := &s.clients[client]
		res, err := s.exec.Apply(op, cs.cache, int64(s.clock))
		if err != nil {
			// Trace ops are generated to replay cleanly; a failure here
			// means a concurrent-interleaving artifact. Count and skip.
			s.failed++
			continue
		}
		cs.op = op
		cs.res = res
		cs.visits = res.Visits
		cs.visitIdx = 0
		cs.opStart = s.clock
		cs.queueWait = 0
		cs.inData = false
		// First hop: one RTT to reach the first MDS.
		s.schedule(s.clock+s.cfg.Params.RTT, client)
		return true
	}
	return false
}

// issueArrival starts one open-loop request on a free (or new) flow slot
// and schedules the next arrival.
func (s *Sim) issueArrival() {
	if s.nextOp >= len(s.tr.Ops) {
		return
	}
	// Allocate a flow slot.
	var flow int
	if n := len(s.freeFlows); n > 0 {
		flow = s.freeFlows[n-1]
		s.freeFlows = s.freeFlows[:n-1]
	} else {
		flow = len(s.clients)
		s.clients = append(s.clients, clientState{
			cache: s.caches[flow%len(s.caches)],
		})
	}
	for s.nextOp < len(s.tr.Ops) {
		op := s.tr.Ops[s.nextOp]
		s.nextOp++
		res, err := s.exec.Apply(op, s.clients[flow].cache, int64(s.clock))
		if err != nil {
			s.failed++
			continue
		}
		cs := &s.clients[flow]
		cs.op = op
		cs.res = res
		cs.visits = res.Visits
		cs.visitIdx = 0
		cs.opStart = s.clock
		cs.queueWait = 0
		cs.inData = false
		s.schedule(s.clock+s.cfg.Params.RTT, flow)
		break
	}
	if s.nextOp < len(s.tr.Ops) {
		inter := time.Duration(s.rnd.ExpFloat64() / s.cfg.ArrivalRate * float64(time.Second))
		s.schedule(s.clock+inter, arrivalEvent)
	}
}

// step processes one event: the client's request arriving at its next
// visit's MDS (or finishing).
func (s *Sim) step(ev event) {
	s.clock = ev.at
	if ev.client == arrivalEvent {
		s.issueArrival()
		return
	}
	cs := &s.clients[ev.client]
	if cs.inData {
		s.completeOp(ev.client)
		return
	}
	if cs.visitIdx < len(cs.visits) {
		v := cs.visits[cs.visitIdx]
		start := s.clock
		if s.freeAt[v.MDS] > start {
			cs.queueWait += s.freeAt[v.MDS] - start
			start = s.freeAt[v.MDS]
		}
		if end := s.outageEnd(int(v.MDS), start); end > start {
			cs.queueWait += end - start
			start = end
		}
		finish := start + v.Service
		s.freeAt[v.MDS] = finish
		cs.visitIdx++
		if cs.visitIdx < len(cs.visits) {
			s.schedule(finish+s.cfg.Params.RTT, ev.client)
		} else if s.cfg.DataPath != nil && s.cfg.DataPath.Applies(cs.op.Type) {
			cs.inData = true
			dataDone := s.cfg.DataPath.Serve(finish, cs.op.Type)
			s.schedule(dataDone, ev.client)
		} else {
			s.schedule(finish, ev.client)
			cs.visitIdx++ // sentinel: next event completes
		}
		return
	}
	s.completeOp(ev.client)
}

func (s *Sim) completeOp(client int) {
	cs := &s.clients[client]
	rct := s.clock - cs.opStart
	s.done++
	s.epochOps++
	s.latencies = append(s.latencies, rct.Seconds())
	simReg.Histogram("sim.op.latency_ns").Record(rct.Nanoseconds())
	s.rpcTotal += int64(len(cs.visits))
	s.fwdTotal += int64(len(cs.visits) - 1)
	s.coll.Record(cs.op, &cs.res)
	if s.openLoop {
		s.freeFlows = append(s.freeFlows, client)
		return
	}
	s.issueNext(client)
}

// endEpoch snapshots the collector, lets the strategy rebalance, applies
// its decisions, and charges migration costs.
func (s *Sim) endEpoch() {
	es := s.coll.Snapshot(s.epochIdx, s.exec.Tree, s.exec.PM)
	em := EpochMetrics{
		Epoch:   s.epochIdx,
		Start:   s.epochStart,
		Ops:     s.epochOps,
		RPCs:    es.RPCs,
		Inodes:  es.Inodes,
		Service: es.Service,
	}
	dur := s.clock - s.epochStart
	if dur <= 0 {
		dur = s.cfg.Epoch
	}
	em.QPS = make([]float64, s.cfg.NumMDS)
	em.BusyFrac = make([]float64, s.cfg.NumMDS)
	qpsF := make([]float64, s.cfg.NumMDS)
	rpcF := make([]float64, s.cfg.NumMDS)
	inoF := make([]float64, s.cfg.NumMDS)
	busyF := make([]float64, s.cfg.NumMDS)
	for i := 0; i < s.cfg.NumMDS; i++ {
		em.QPS[i] = float64(es.QPS[i]) / dur.Seconds()
		em.BusyFrac[i] = float64(es.Service[i]) / float64(dur)
		qpsF[i] = float64(es.QPS[i])
		rpcF[i] = float64(es.RPCs[i])
		inoF[i] = float64(es.Inodes[i])
		busyF[i] = float64(es.Service[i])
	}
	em.ImbalanceQPS = stats.ImbalanceFactor(qpsF)
	em.ImbalanceRPC = stats.ImbalanceFactor(rpcF)
	em.ImbalanceInodes = stats.ImbalanceFactor(inoF)
	em.ImbalanceBusy = stats.ImbalanceFactor(busyF)

	decisions := s.strategy.Rebalance(es, s.exec.Tree, s.exec.PM)
	for _, d := range decisions {
		// A migration needs both participants alive; with either side in
		// an outage the coordinator runs a degraded epoch and rejects the
		// decision (mirroring server.Coordinator's reachability filter).
		if s.outageEnd(int(d.From), s.clock) > s.clock ||
			s.outageEnd(int(d.To), s.clock) > s.clock {
			em.DecisionsSkip++
			continue
		}
		cost, err := s.migrator.Apply(s.exec.Tree, s.exec.PM, d)
		if err != nil {
			em.DecisionsSkip++
			continue
		}
		em.Migrations++
		em.MigratedInos += cost.Inodes
		s.migrations++
		am := AppliedMigration{Epoch: s.epochIdx, Decision: d, Inodes: cost.Inodes}
		if ds := es.Dir(d.Subtree); ds != nil {
			am.Depth = ds.Depth
			if total := ds.SubtreeReads + ds.SubtreeWrites; total > 0 {
				am.WriteFraction = float64(ds.SubtreeWrites) / float64(total)
			}
		}
		s.applied = append(s.applied, am)
		// Both participants stall their queues for the copy.
		if s.freeAt[d.From] < s.clock {
			s.freeAt[d.From] = s.clock
		}
		if s.freeAt[d.To] < s.clock {
			s.freeAt[d.To] = s.clock
		}
		s.freeAt[d.From] += cost.SrcService
		s.freeAt[d.To] += cost.DstService
	}
	simReg.Counter("sim.epoch.runs").Inc()
	simReg.Counter("sim.migration.applied").Add(int64(em.Migrations))
	simReg.Counter("sim.migration.skipped").Add(int64(em.DecisionsSkip))
	simReg.Counter("sim.migration.inodes").Add(int64(em.MigratedInos))
	simReg.Gauge("sim.balance.imbalance_qps").Set(em.ImbalanceQPS)
	s.metrics = append(s.metrics, em)
	s.coll.Reset()
	s.epochIdx++
	s.epochStart = s.clock
	s.epochOps = 0
}

// Run executes the simulation to completion and returns its metrics.
func (s *Sim) Run() (*Result, error) {
	if s.openLoop {
		s.schedule(0, arrivalEvent)
	} else {
		for c := range s.clients {
			if !s.issueNext(c) {
				break
			}
		}
	}
	nextEpoch := s.cfg.Epoch
	for s.events.Len() > 0 {
		ev := s.events[0]
		if ev.at >= nextEpoch {
			s.clock = nextEpoch
			s.endEpoch()
			nextEpoch += s.cfg.Epoch
			continue
		}
		heap.Pop(&s.events)
		s.step(ev)
		if s.cfg.MaxVirtual > 0 && s.clock >= s.cfg.MaxVirtual {
			break
		}
	}
	if s.epochOps > 0 {
		s.endEpoch()
	}
	elapsed := s.clock
	if elapsed == 0 {
		elapsed = time.Nanosecond
	}
	res := &Result{
		Strategy:   s.strategy.Name(),
		Ops:        s.done,
		Elapsed:    elapsed,
		Throughput: float64(s.done) / elapsed.Seconds(),
		Epochs:     s.metrics,
		Migrations: s.migrations,
		Applied:    s.applied,
		FailedOps:  s.failed,
	}
	if s.done > 0 {
		res.RPCPerRequest = float64(s.rpcTotal) / float64(s.done)
		res.ForwardedFraction = float64(s.fwdTotal) / float64(s.rpcTotal)
		res.MeanLatency = time.Duration(stats.Mean(s.latencies) * float64(time.Second))
		res.P50Latency = time.Duration(stats.Percentile(s.latencies, 50) * float64(time.Second))
		res.P99Latency = time.Duration(stats.Percentile(s.latencies, 99) * float64(time.Second))
	}
	// Steady state: the second half of the epochs.
	if n := len(s.metrics); n > 0 {
		var ops int64
		var dur time.Duration
		for _, em := range s.metrics[n/2:] {
			ops += em.Ops
		}
		start := s.metrics[n/2].Start
		dur = elapsed - start
		if dur > 0 {
			res.SteadyThroughput = float64(ops) / dur.Seconds()
		} else {
			res.SteadyThroughput = res.Throughput
		}
	}
	return res, nil
}

// Run is the convenience one-call entry: build and run.
func Run(cfg Config, tr *trace.Trace, strategy cluster.Strategy) (*Result, error) {
	s, err := New(cfg, tr, strategy)
	if err != nil {
		return nil, err
	}
	return s.Run()
}
