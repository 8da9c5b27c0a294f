package server

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"origami/internal/cluster"
	"origami/internal/costmodel"
	"origami/internal/mds"
	"origami/internal/metaopt"
	"origami/internal/namespace"
	"origami/internal/rpc"
	"origami/internal/stats"
	"origami/internal/telemetry"
)

// Coordinator is the networked Metadata Balancer (§4.2): it runs on (or
// beside) MDS 0, collects dumps, plans migrations, executes them, and
// publishes the partition map. By default it plans with Meta-OPT
// directly; any cluster.Strategy (e.g. a model-driven balancer.Origami
// loaded from origami-train's output) can be plugged in instead.
//
// The coordinator fails open: an epoch plans over whatever subset of the
// cluster answers its probes, migrations run as prepare/commit pairs
// with rollback, and MDSs that miss a map publish are reconciled when
// they come back (RunEpoch's opening GetMap sweep).
type Coordinator struct {
	cluster *Cluster
	pins    map[namespace.Ino]int
	version uint64
	// CacheDepth mirrors the client cache configuration for the benefit
	// model's crossing-overhead pricing.
	CacheDepth int
	// MaxMigrations bounds decisions per epoch.
	MaxMigrations int
	// Health tracks per-MDS liveness from heartbeats and RPC outcomes.
	Health *HealthTracker
	// PublishRetries is how many attempts each map publish gets per MDS
	// before the MDS is left stale for later reconciliation.
	PublishRetries int
	// PublishBackoff separates publish attempts.
	PublishBackoff time.Duration

	// mu serialises the coordinator's control-plane operations (RunEpoch,
	// Migrate, Reconcile, Failover) against each other — the auto-failover
	// loop runs concurrently with the epoch ticker.
	mu sync.Mutex

	// strategy, when non-nil, replaces the built-in Meta-OPT planner.
	// All assignment goes through SetStrategy so strategyReady is
	// re-armed: a swapped-in strategy must get its Setup call, and the
	// swap must serialise against a concurrently ticking epoch loop.
	strategy      cluster.Strategy
	strategyReady bool
	staleMaps     map[int]bool // MDSs that missed a publish
	failedOver    map[int]bool // primaries already failed over this outage

	// pending holds the last epoch's applied migrations' predicted
	// benefits, as fractions of that epoch's JCT (prevJCT), until the
	// next dump realizes them.
	pending []float64
	prevJCT time.Duration

	// reg holds the balancer's telemetry: epoch durations, migration
	// outcome counters, and per-MDS health-state gauges
	// (coordinator.health.mds_<i>: 0 = up, 1 = degraded, 2 = down).
	reg *telemetry.Registry
	log *telemetry.Logger
	// tracer records the coordinator's own spans (migration 2PC phases);
	// nil when the cluster was started with tracing disabled.
	tracer *telemetry.Tracer
}

// EpochResult is what one balancing round actually did — including the
// parts that failed. A degraded result is still a successful epoch.
type EpochResult struct {
	// Applied are the migrations that committed.
	Applied []cluster.Decision
	// Rejected are planned migrations that did not happen: the source
	// refused the prepare (e.g. the subtree moved meanwhile), a phase
	// failed, or a participant was down. Callers doing experiment
	// accounting must not count these as applied.
	Rejected []cluster.Decision
	// SkippedMDS lists shards excluded from this epoch (down or their
	// dump failed); their load was invisible to the planner.
	SkippedMDS []int
	// StaleMDS lists shards that missed the map publish and will be
	// reconciled once reachable.
	StaleMDS []int
	// Reconciled lists shards whose lagging maps were caught up at the
	// start of the epoch.
	Reconciled []int
	// MapVersion is the coordinator's partition-map version after the
	// epoch.
	MapVersion uint64
}

// Degraded reports whether the epoch worked around any failure.
func (r *EpochResult) Degraded() bool {
	return len(r.SkippedMDS) > 0 || len(r.StaleMDS) > 0
}

// NewCoordinator attaches a coordinator to a running cluster, seeding its
// partition view from the map authority (MDS 0) so a restarted
// coordinator resumes where the last one stopped.
func NewCoordinator(c *Cluster) *Coordinator {
	co := &Coordinator{
		cluster:        c,
		pins:           make(map[namespace.Ino]int),
		CacheDepth:     3,
		MaxMigrations:  8,
		Health:         NewHealthTracker(c),
		PublishRetries: 3,
		PublishBackoff: 10 * time.Millisecond,
		staleMaps:      make(map[int]bool),
		failedOver:     make(map[int]bool),
		reg:            telemetry.NewRegistry(),
		log:            telemetry.L("coordinator"),
	}
	co.tracer = c.newTracer("coordinator", co.reg)
	if body, err := c.Conn(0).Call(mds.MethodGetMap, nil); err == nil {
		if version, pins, derr := mds.DecodeMap(body); derr == nil {
			co.version = version
			for _, p := range pins {
				co.pins[p.Ino] = p.MDS
			}
		}
	}
	return co
}

// Registry exposes the coordinator's telemetry registry (admin
// endpoint, tests).
func (co *Coordinator) Registry() *telemetry.Registry { return co.reg }

// Tracer exposes the coordinator's span tracer (nil when the cluster
// was started with tracing disabled).
func (co *Coordinator) Tracer() *telemetry.Tracer { return co.tracer }

// ClusterSnapshot is the coordinator's merged observability view: the
// telemetry registry of every reachable MDS (plus its replication
// registry when replication is on) and the coordinator's own, keyed by
// node name. It is the scrape behind MethodClusterMetrics and
// `origami-cli top`.
type ClusterSnapshot struct {
	MapVersion uint64                        `json:"map_version"`
	Live       []int                         `json:"live"`
	Down       []int                         `json:"down,omitempty"`
	Nodes      map[string]telemetry.Snapshot `json:"nodes"`
}

// ClusterMetrics scrapes MethodMetrics from every MDS and merges the
// results with the coordinator's own registry. Shards that fail the
// scrape land in Down instead of failing the snapshot — the
// observability plane must keep working through partial outages.
func (co *Coordinator) ClusterMetrics() *ClusterSnapshot {
	snap := &ClusterSnapshot{Nodes: make(map[string]telemetry.Snapshot)}
	for i := range co.cluster.Addrs {
		body, err := co.cluster.Conn(i).Call(mds.MethodMetrics, nil)
		if err != nil {
			co.reportOutcome(i, err)
			snap.Down = append(snap.Down, i)
			continue
		}
		var s telemetry.Snapshot
		if err := json.Unmarshal(body, &s); err != nil {
			snap.Down = append(snap.Down, i)
			continue
		}
		co.Health.ReportSuccess(i)
		snap.Live = append(snap.Live, i)
		snap.Nodes[fmt.Sprintf("mds%d", i)] = s
		if reg := co.cluster.ReplRegistry(i); reg != nil {
			snap.Nodes[fmt.Sprintf("mds%d.replication", i)] = reg.Snapshot()
		}
	}
	snap.Nodes["coordinator"] = co.reg.Snapshot()
	co.mu.Lock()
	snap.MapVersion = co.version
	co.mu.Unlock()
	return snap
}

// SetStrategy installs (or, with nil, removes) the pluggable planning
// strategy and re-arms its lazy Setup: the next epoch calls the new
// strategy's Setup with the current partition map before planning with
// it. Safe to call while an auto-balance loop is running — the swap
// serialises against RunEpoch on co.mu, so no epoch ever sees a
// half-installed strategy or skips Setup on a swapped-in one.
func (co *Coordinator) SetStrategy(s cluster.Strategy) {
	co.mu.Lock()
	defer co.mu.Unlock()
	co.strategy = s
	co.strategyReady = false
}

// StrategyInUse returns the installed strategy (nil = built-in
// Meta-OPT planner).
func (co *Coordinator) StrategyInUse() cluster.Strategy {
	co.mu.Lock()
	defer co.mu.Unlock()
	return co.strategy
}

// StartAutoBalance launches the background balance loop: every interval
// it runs one epoch (collect → plan → migrate → publish), logging
// outcomes and pressing on after degraded rounds. It mirrors
// StartAutoFailover and composes with it — both loops serialise on the
// coordinator's control-plane lock. Returns a stop func.
func (co *Coordinator) StartAutoBalance(interval time.Duration) (stop func()) {
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
			res, err := co.RunEpoch()
			if err != nil {
				co.log.Warn("auto-balance epoch failed", "err", err)
				continue
			}
			for _, d := range res.Applied {
				co.log.Info("auto-balance applied", "decision", d.String())
			}
			if res.Degraded() {
				co.log.Warn("auto-balance degraded epoch",
					"skipped", fmt.Sprint(res.SkippedMDS), "stale", fmt.Sprint(res.StaleMDS))
			}
		}
	}()
	return func() { close(done); wg.Wait() }
}

// recordHealthGauges mirrors the health tracker into per-MDS gauges
// (0 = up, 1 = degraded, 2 = down).
func (co *Coordinator) recordHealthGauges() {
	for i := range co.cluster.Addrs {
		co.reg.Gauge(fmt.Sprintf("coordinator.health.mds_%d", i)).Set(float64(co.Health.State(i)))
	}
}

// Pins returns a snapshot of the coordinator's partition map.
func (co *Coordinator) Pins() map[namespace.Ino]int {
	co.mu.Lock()
	defer co.mu.Unlock()
	out := make(map[namespace.Ino]int, len(co.pins))
	for k, v := range co.pins {
		out[k] = v
	}
	return out
}

// MapVersion returns the coordinator's current partition-map version.
func (co *Coordinator) MapVersion() uint64 {
	co.mu.Lock()
	defer co.mu.Unlock()
	return co.version
}

// collect pulls one epoch dump from every reachable MDS. Shards whose
// dump fails are skipped (and demoted in the health tracker) instead of
// failing the round; their slots stay zero so index positions hold.
func (co *Coordinator) collect() (stats []mds.StatsSnapshot, rows [][]mds.DumpRow, skipped []int) {
	n := len(co.cluster.Addrs)
	stats = make([]mds.StatsSnapshot, n)
	rows = make([][]mds.DumpRow, n)
	for i := 0; i < n; i++ {
		if co.Health.State(i) == Down {
			skipped = append(skipped, i)
			continue
		}
		body, err := co.cluster.Conn(i).Call(mds.MethodDump, nil)
		if err != nil {
			co.Health.ReportFailure(i, err)
			co.log.Warn("dump failed, skipping shard this epoch", "mds", i, "err", err)
			skipped = append(skipped, i)
			continue
		}
		st, r, err := mds.DecodeDump(body)
		if err != nil {
			co.Health.ReportFailure(i, err)
			skipped = append(skipped, i)
			continue
		}
		co.Health.ReportSuccess(i)
		stats[i] = st
		rows[i] = r
	}
	return stats, rows, skipped
}

// merge builds a cluster.EpochStats from the per-shard dumps, computing
// depths, owners, and subtree aggregates from the parent links.
func (co *Coordinator) merge(epoch int, stats []mds.StatsSnapshot, shardRows [][]mds.DumpRow) *cluster.EpochStats {
	type rec struct {
		row   mds.DumpRow
		shard int
	}
	byIno := make(map[namespace.Ino]*rec)
	for shard, rows := range shardRows {
		for _, row := range rows {
			r := row
			byIno[row.Ino] = &rec{row: r, shard: shard}
		}
	}
	inos := make([]namespace.Ino, 0, len(byIno))
	for ino := range byIno {
		inos = append(inos, ino)
	}
	sort.Slice(inos, func(i, j int) bool { return inos[i] < inos[j] })

	es := &cluster.EpochStats{
		Epoch:    epoch,
		Dirs:     make([]cluster.DirStat, len(inos)),
		Index:    make(map[namespace.Ino]int, len(inos)),
		Service:  make([]time.Duration, len(stats)),
		RCT:      make([]time.Duration, len(stats)),
		QPS:      make([]int64, len(stats)),
		RPCs:     make([]int64, len(stats)),
		Forwards: make([]int64, len(stats)),
		Inodes:   make([]int, len(stats)),
	}
	for i, st := range stats {
		es.Service[i] = time.Duration(st.ServiceNS)
		es.QPS[i] = st.Ops
		es.RPCs[i] = st.RPCs
		es.Inodes[i] = int(st.Inodes)
		es.Ops += st.Ops
	}
	for i, ino := range inos {
		es.Index[ino] = i
	}
	// Owners: nearest pinned ancestor via parent links; default MDS 0.
	var ownerOf func(ino namespace.Ino, hops int) cluster.MDSID
	ownerOf = func(ino namespace.Ino, hops int) cluster.MDSID {
		if hops > 64 {
			return 0
		}
		if m, ok := co.pins[ino]; ok {
			return cluster.MDSID(m)
		}
		if ino == namespace.RootIno {
			return 0
		}
		r, ok := byIno[ino]
		if !ok {
			return 0
		}
		return ownerOf(r.row.Parent, hops+1)
	}
	var depthOf func(ino namespace.Ino, hops int) int
	depthOf = func(ino namespace.Ino, hops int) int {
		if ino == namespace.RootIno || hops > 64 {
			return 0
		}
		r, ok := byIno[ino]
		if !ok {
			return 1
		}
		return depthOf(r.row.Parent, hops+1) + 1
	}
	// Children lists for subtree aggregation.
	children := make(map[namespace.Ino][]namespace.Ino)
	for _, ino := range inos {
		r := byIno[ino]
		if ino != namespace.RootIno {
			children[r.row.Parent] = append(children[r.row.Parent], ino)
		}
	}
	type agg struct {
		files, dirs   int
		reads, writes int64
		service       int64
		owned         int64
		ownedInodes   int
	}
	memo := make(map[namespace.Ino]agg)
	var walk func(ino namespace.Ino) agg
	walk = func(ino namespace.Ino) agg {
		if a, ok := memo[ino]; ok {
			return a
		}
		r := byIno[ino]
		a := agg{
			files:       int(r.row.ChildFiles),
			reads:       r.row.Reads,
			writes:      r.row.Writes,
			service:     r.row.ServiceNS,
			owned:       r.row.ServiceNS,
			ownedInodes: 1 + int(r.row.ChildFiles),
		}
		owner := ownerOf(ino, 0)
		for _, ch := range children[ino] {
			ca := walk(ch)
			a.files += ca.files
			a.dirs += ca.dirs + 1
			a.reads += ca.reads
			a.writes += ca.writes
			a.service += ca.service
			if ownerOf(ch, 0) == owner {
				a.owned += ca.owned
				a.ownedInodes += ca.ownedInodes
			}
		}
		memo[ino] = a
		return a
	}
	for i, ino := range inos {
		r := byIno[ino]
		a := walk(ino)
		es.Dirs[i] = cluster.DirStat{
			Ino:            ino,
			Parent:         r.row.Parent,
			Depth:          depthOf(ino, 0),
			SubFiles:       a.files,
			SubDirs:        a.dirs,
			SubtreeReads:   a.reads,
			SubtreeWrites:  a.writes,
			OwnReads:       r.row.Reads,
			OwnWrites:      r.row.Writes,
			SubtreeService: time.Duration(a.service),
			OwnedService:   time.Duration(a.owned),
			OwnedInodes:    a.ownedInodes,
			Through:        r.row.Lookups,
			Owner:          ownerOf(ino, 0),
		}
	}
	return es
}

// migrate2PC runs one migration as prepare → commit, rolling back with
// an abort if the commit fails. The partition pin moves only after a
// successful commit. Each migration gets its own trace: a root
// coordinator.migrate span with one child per 2PC phase, the trace ID
// propagated over the wire so source-MDS dispatch spans join the tree.
func (co *Coordinator) migrate2PC(subtree namespace.Ino, from, to int) error {
	ctx, _ := telemetry.EnsureTraceID(context.Background())
	ctx, root := co.tracer.StartSpan(ctx, "coordinator.migrate")
	root.Annotate("subtree", fmt.Sprintf("%d", subtree))
	root.Annotate("from", fmt.Sprintf("%d", from))
	root.Annotate("to", fmt.Sprintf("%d", to))
	err := co.migrate2PCTraced(ctx, subtree, from, to)
	root.Finish(err)
	return err
}

func (co *Coordinator) migrate2PCTraced(ctx context.Context, subtree namespace.Ino, from, to int) error {
	var w rpc.Wire
	w.U64(uint64(subtree)).U32(uint32(to))
	conn := co.cluster.Conn(from)
	pctx, prep := co.tracer.StartSpan(ctx, "coordinator.migrate.prepare")
	_, err := conn.CallCtx(pctx, mds.MethodMigratePrepare, w.Bytes())
	prep.Finish(err)
	if err != nil {
		co.reportOutcome(from, err)
		co.log.Warn("migration prepare failed", "subtree", uint64(subtree), "from", from, "to", to, "err", err)
		return fmt.Errorf("server: prepare migrate %d from MDS %d: %w", subtree, from, err)
	}
	var cw rpc.Wire
	cw.U64(uint64(subtree))
	cctx, commit := co.tracer.StartSpan(ctx, "coordinator.migrate.commit")
	_, err = conn.CallCtx(cctx, mds.MethodMigrateCommit, cw.Bytes())
	commit.Finish(err)
	if err != nil {
		co.reportOutcome(from, err)
		co.log.Warn("migration commit failed, aborting", "subtree", uint64(subtree), "from", from, "to", to, "err", err)
		// Roll back: lift the freeze and evict the destination copy. If
		// the source is unreachable its PrepareTimeout auto-abort fires.
		var aw rpc.Wire
		aw.U64(uint64(subtree))
		actx, abort := co.tracer.StartSpan(ctx, "coordinator.migrate.abort")
		_, aerr := conn.CallCtx(actx, mds.MethodMigrateAbort, aw.Bytes()) //nolint:errcheck // best-effort
		abort.Finish(aerr)
		return fmt.Errorf("server: commit migrate %d from MDS %d: %w", subtree, from, err)
	}
	co.Health.ReportSuccess(from)
	co.log.Info("migration committed", "subtree", uint64(subtree), "from", from, "to", to)
	return nil
}

// reportOutcome feeds a migration RPC failure into the health tracker,
// but only for transport-level failures — a RemoteError means the shard
// is alive and answering.
func (co *Coordinator) reportOutcome(id int, err error) {
	if rpc.IsRetryable(err) {
		co.Health.ReportFailure(id, err)
	}
}

// RunEpoch performs one balancing round: reconcile lagging maps, collect
// dumps, plan, migrate (two-phase), publish. A partially failed cluster
// degrades the round instead of aborting it: unreachable shards are
// skipped and reported in the result, which callers should inspect for
// Rejected decisions before crediting migrations to an experiment. An
// error is returned only when no shard at all can be collected.
func (co *Coordinator) RunEpoch() (*EpochResult, error) {
	co.mu.Lock()
	defer co.mu.Unlock()
	res := &EpochResult{}
	start := time.Now()
	defer func() {
		co.reg.Counter("coordinator.epoch.runs").Inc()
		co.reg.Histogram("coordinator.epoch.duration_ns").Record(time.Since(start).Nanoseconds())
		co.reg.Counter("coordinator.epoch.applied").Add(int64(len(res.Applied)))
		co.reg.Counter("coordinator.epoch.rejected").Add(int64(len(res.Rejected)))
		co.reg.Counter("coordinator.epoch.skipped_mds").Add(int64(len(res.SkippedMDS)))
		co.reg.Counter("coordinator.epoch.stale_mds").Add(int64(len(res.StaleMDS)))
		co.reg.Counter("coordinator.epoch.reconciled").Add(int64(len(res.Reconciled)))
		co.recordHealthGauges()
		co.log.Info("epoch done",
			"applied", len(res.Applied), "rejected", len(res.Rejected),
			"skipped", len(res.SkippedMDS), "stale", len(res.StaleMDS),
			"reconciled", len(res.Reconciled), "map_version", res.MapVersion,
			"ns", time.Since(start).Nanoseconds())
	}()
	co.Health.CheckAll()
	res.Reconciled = co.reconcileLocked()
	stats, rows, skipped := co.collect()
	res.SkippedMDS = skipped
	if len(skipped) == len(co.cluster.Addrs) {
		res.MapVersion = co.version
		return res, fmt.Errorf("server: no reachable MDS (all %d dumps failed)", len(skipped))
	}
	reachable := make(map[int]bool, len(co.cluster.Addrs))
	for i := range co.cluster.Addrs {
		reachable[i] = true
	}
	for _, i := range skipped {
		reachable[i] = false
	}
	es := co.merge(0, stats, rows)
	pm := cluster.NewPartitionMap(len(co.cluster.Addrs))
	for ino, m := range co.pins {
		if err := pm.Pin(ino, cluster.MDSID(m)); err != nil {
			return res, err
		}
	}
	var plan []cluster.Decision
	if co.strategy != nil {
		if !co.strategyReady {
			if err := co.strategy.Setup(nil, pm); err != nil {
				// Leave strategyReady unarmed: the next epoch retries
				// Setup (or a SetStrategy swap replaces the broken one).
				co.reg.Counter("coordinator.strategy.setup_errors").Inc()
				return res, fmt.Errorf("server: strategy %s setup: %w", co.strategy.Name(), err)
			}
			co.strategyReady = true
		}
		plan = co.strategy.Rebalance(es, nil, pm)
	} else {
		plan = metaopt.Plan(es, pm, metaopt.Config{
			CacheDepth:   co.CacheDepth,
			MaxDecisions: co.MaxMigrations,
		})
	}
	for _, d := range plan {
		// A down shard can neither source nor absorb a migration; the
		// planner saw zeroed stats for it, so drop those decisions.
		if !reachable[int(d.From)] || !reachable[int(d.To)] {
			res.Rejected = append(res.Rejected, d)
			continue
		}
		if err := co.migrate2PC(d.Subtree, int(d.From), int(d.To)); err != nil {
			res.Rejected = append(res.Rejected, d)
			continue
		}
		co.pins[d.Subtree] = int(d.To)
		res.Applied = append(res.Applied, d)
	}
	if len(res.Applied) > 0 {
		res.StaleMDS = co.publish()
	}
	res.MapVersion = co.version
	co.recordBenefit(es, res.Applied)
	return res, nil
}

// recordBenefit scores the last epoch's applied migrations against this
// epoch's dump, whatever strategy planned them: the JCT delta between
// the two dumps, clamped to ±1, is split across those migrations by
// predicted share. Negative realized benefits (the epoch got worse) are
// counted in realized_negative. Then it arms this epoch's migrations.
func (co *Coordinator) recordBenefit(es *cluster.EpochStats, applied []cluster.Decision) {
	jct := costmodel.JCT(es.Service)
	if len(co.pending) > 0 && co.prevJCT > 0 && jct > 0 {
		realized := math.Max(-1, math.Min(1, float64(co.prevJCT-jct)/float64(co.prevJCT)))
		var sumPred float64
		for _, p := range co.pending {
			sumPred += p
		}
		for _, p := range co.pending {
			share := realized / float64(len(co.pending))
			if sumPred > 0 {
				share = realized * (p / sumPred)
			}
			recordBenefitBP(co.reg, "coordinator.benefit.predicted_bp", p)
			recordBenefitBP(co.reg, "coordinator.benefit.realized_bp", share)
			if share < 0 {
				co.reg.Counter("coordinator.benefit.realized_negative").Inc()
			}
		}
	}
	co.pending = co.pending[:0]
	if jct > 0 {
		for _, d := range applied {
			co.pending = append(co.pending, float64(d.PredictedBenefit)/float64(jct))
		}
	}
	co.prevJCT = jct
	loads := make([]float64, len(es.Service))
	for i, s := range es.Service {
		loads[i] = float64(s)
	}
	co.reg.Gauge("coordinator.balance.imbalance").Set(stats.ImbalanceFactor(loads))
}

// recordBenefitBP records a benefit fraction as basis points in a
// histogram (log2 buckets hold non-negative ints; negative benefits are
// tracked by the realized_negative counter instead).
func recordBenefitBP(reg *telemetry.Registry, name string, frac float64) {
	reg.Histogram(name).Record(int64(math.Max(frac, 0) * 1e4))
}

// Migrate executes one explicit migration (the pluggable Migrator
// interface for external algorithms) as a prepare/commit pair. Shards
// that miss the resulting map publish are left for reconciliation; the
// migration itself succeeding is what decides the return value.
func (co *Coordinator) Migrate(subtree namespace.Ino, from, to int) error {
	co.mu.Lock()
	defer co.mu.Unlock()
	if err := co.migrate2PC(subtree, from, to); err != nil {
		return err
	}
	co.pins[subtree] = to
	if stale := co.publish(); len(stale) > 0 {
		return fmt.Errorf("server: map publish incomplete (stale MDSs %v), reconciliation pending", stale)
	}
	return nil
}

// publish pushes the current partition map to every MDS, retrying each
// with backoff and returning the ids that still missed it (recorded for
// reconciliation) rather than failing the epoch.
func (co *Coordinator) publish() (stale []int) {
	co.version++
	pins := make([]mds.PinEntry, 0, len(co.pins))
	for ino, m := range co.pins {
		pins = append(pins, mds.PinEntry{Ino: ino, MDS: m})
	}
	body := mds.EncodeMap(co.version, pins)
	for i := range co.cluster.Addrs {
		if err := co.publishOne(i, body); err != nil {
			co.log.Warn("map publish missed", "mds", i, "version", co.version, "err", err)
			co.staleMaps[i] = true
			stale = append(stale, i)
		} else {
			delete(co.staleMaps, i)
		}
	}
	return stale
}

func (co *Coordinator) publishOne(id int, body []byte) error {
	var err error
	for attempt := 0; attempt < co.PublishRetries; attempt++ {
		if attempt > 0 {
			time.Sleep(co.PublishBackoff * time.Duration(attempt))
		}
		_, err = co.cluster.Conn(id).Call(mds.MethodSetMap, body)
		if err == nil {
			co.Health.ReportSuccess(id)
			return nil
		}
		co.reportOutcome(id, err)
		if !rpc.IsRetryable(err) {
			break // the shard answered; retrying the same push is futile
		}
	}
	return fmt.Errorf("server: publish map to MDS %d: %w", id, err)
}

// Reconcile compares every MDS's served map version against the
// coordinator's (MethodGetMap) and re-pushes the current map to the ones
// that lag — the catch-up path for shards that were down during a
// publish. It returns the ids that were brought up to date.
func (co *Coordinator) Reconcile() []int {
	co.mu.Lock()
	defer co.mu.Unlock()
	return co.reconcileLocked()
}

func (co *Coordinator) reconcileLocked() []int {
	if co.version == 0 {
		return nil
	}
	pins := make([]mds.PinEntry, 0, len(co.pins))
	for ino, m := range co.pins {
		pins = append(pins, mds.PinEntry{Ino: ino, MDS: m})
	}
	body := mds.EncodeMap(co.version, pins)
	var updated []int
	for i := range co.cluster.Addrs {
		vbody, err := co.cluster.Conn(i).Call(mds.MethodGetMap, nil)
		if err != nil {
			co.reportOutcome(i, err)
			continue
		}
		co.Health.ReportSuccess(i)
		served, _, derr := mds.DecodeMap(vbody)
		if derr != nil {
			continue
		}
		if served >= co.version {
			delete(co.staleMaps, i)
			continue
		}
		if _, err := co.cluster.Conn(i).Call(mds.MethodSetMap, body); err != nil {
			co.reportOutcome(i, err)
			continue
		}
		delete(co.staleMaps, i)
		updated = append(updated, i)
		co.log.Info("reconciled lagging map", "mds", i, "version", co.version)
	}
	return updated
}
