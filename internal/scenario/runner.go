package scenario

import (
	"fmt"
	"io"
	"math/rand"
	"os"
	"sort"
	"time"

	"origami/internal/balancer"
	"origami/internal/replication"
	"origami/internal/server"
	"origami/internal/telemetry"
)

// Options tune one scenario run.
type Options struct {
	// Seed overrides the scenario's seed (0 keeps it). The whole run —
	// jitter draws, drop RNG, workload keys — derives from this one
	// value, so the same seed replays the same event log bit for bit.
	Seed int64
	// BaseDir hosts the shard directories ("" = a fresh temp dir,
	// removed after the run).
	BaseDir string
	// Log receives progress lines as the timeline plays (nil = quiet).
	Log io.Writer
	// Inspect, when non-nil, runs after the assertions with the cluster
	// still up. The ported chaos tests use it for checks the assertion
	// vocabulary does not cover (shipper topology, role strings). Ignored
	// by stress runs, which have no real cluster.
	Inspect func(cl *server.Cluster, co *server.Coordinator)
}

// ScheduledEvent is one resolved timeline entry: the declared event plus
// its seeded fire time. The resolution happens before the cluster
// starts, from the seed alone, which is what makes event logs replay
// bit-identically.
type ScheduledEvent struct {
	Seq int
	At  time.Duration
	Event
}

// Line renders the deterministic event-log form of the entry. Only
// seeded/scheduled data appears here — anything measured at runtime
// (latencies, applied counts, promotion targets) belongs in the report,
// where run-to-run variance is expected.
func (se ScheduledEvent) Line() string {
	s := fmt.Sprintf("t=%s seq=%d %s", se.At.Round(time.Millisecond), se.Seq, se.Action)
	if se.Target != "" {
		s += " target=" + se.Target
	}
	if se.Groups != "" {
		s += fmt.Sprintf(" groups=%q", se.Groups)
	}
	if se.Pct > 0 {
		s += fmt.Sprintf(" pct=%s", trimFloat(se.Pct))
	}
	if se.Delay > 0 {
		s += fmt.Sprintf(" delay=%s", se.Delay)
	}
	if se.Path != "" {
		s += " path=" + se.Path
	}
	if se.For > 0 {
		s += fmt.Sprintf(" for=%s", se.For)
	}
	if se.Count > 0 {
		s += fmt.Sprintf(" count=%d", se.Count)
	}
	return s
}

// Schedule resolves the scenario's timeline: events sorted by At with
// jitter drawn from a per-event RNG derived from (seed, index). Pure —
// no cluster needed — so tests can assert determinism cheaply.
func Schedule(sc *Scenario, seed int64) []ScheduledEvent {
	out := make([]ScheduledEvent, 0, len(sc.Events))
	for i, e := range sc.Events {
		at := e.At
		if e.Jitter > 0 {
			r := rand.New(rand.NewSource(seed<<8 + int64(i)))
			at += time.Duration(r.Int63n(int64(e.Jitter)))
		}
		out = append(out, ScheduledEvent{Seq: i, At: at, Event: e})
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].At < out[j].At })
	return out
}

// AssertionResult is one evaluated assertion.
type AssertionResult struct {
	Kind   string `json:"kind"`
	Passed bool   `json:"passed"`
	Detail string `json:"detail"`
}

// WorkloadStats summarises the offered load of a run.
type WorkloadStats struct {
	Attempted int64         `json:"attempted"`
	Ops       int64         `json:"ops"`
	Errors    int64         `json:"errors"`
	Acked     int           `json:"acked_creates"`
	Lost      int           `json:"acked_lost"` // filled by loss assertions
	P50       time.Duration `json:"p50_ns"`
	P95       time.Duration `json:"p95_ns"`
	P99       time.Duration `json:"p99_ns"`
}

// RunResult is everything a run produced: the deterministic event log,
// the measured stats, the assertion verdicts, and telemetry snapshots.
type RunResult struct {
	Name       string            `json:"name"`
	Seed       int64             `json:"seed"`
	Stress     bool              `json:"stress"`
	EventLog   []string          `json:"event_log"`
	Workload   WorkloadStats     `json:"workload"`
	Failovers  int64             `json:"failovers"`
	Migrations int64             `json:"migrations_applied"`
	MapVersion uint64            `json:"map_version"`
	Assertions []AssertionResult `json:"assertions"`
	Elapsed    time.Duration     `json:"elapsed_ns"`

	// Coordinator / client telemetry snapshots (real-cluster runs).
	CoordinatorMetrics *telemetry.Snapshot `json:"coordinator_metrics,omitempty"`
	ClientMetrics      *telemetry.Snapshot `json:"client_metrics,omitempty"`

	// Observability artifacts (real-cluster runs): the merged slow-op
	// log of every node and a sample distributed trace — the spans of
	// the run's last SDK operation, gathered from all nodes.
	SlowOps    []telemetry.SlowOp `json:"slow_ops,omitempty"`
	TraceID    string             `json:"trace_id,omitempty"`
	TraceSpans []telemetry.Span   `json:"trace_spans,omitempty"`
}

// Passed reports whether every assertion held.
func (r *RunResult) Passed() bool {
	for _, a := range r.Assertions {
		if !a.Passed {
			return false
		}
	}
	return true
}

// RunFile parses and runs one scenario file.
func RunFile(path string, opts Options) (*RunResult, error) {
	sc, err := ParseFile(path)
	if err != nil {
		return nil, err
	}
	return Run(sc, opts)
}

// Run executes one scenario end to end and returns its result. The
// returned error covers harness failures (cluster would not start);
// assertion failures are reported in the result, not as errors.
func Run(sc *Scenario, opts Options) (*RunResult, error) {
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	seed := sc.Seed
	if opts.Seed != 0 {
		seed = opts.Seed
	}
	logf := func(format string, args ...interface{}) {
		if opts.Log != nil {
			fmt.Fprintf(opts.Log, format+"\n", args...)
		}
	}
	if sc.Stress != nil {
		return runStress(sc, seed, logf)
	}
	return runCluster(sc, seed, opts, logf)
}

func runCluster(sc *Scenario, seed int64, opts Options, logf func(string, ...interface{})) (*RunResult, error) {
	start := time.Now()
	baseDir := opts.BaseDir
	if baseDir == "" {
		dir, err := os.MkdirTemp("", "origami-sim-*")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
		baseDir = dir
	}

	cl, err := server.StartClusterConfig(sc.Fleet.MDS, baseDir, server.ClusterConfig{
		CallTimeout: sc.Fleet.CallTimeout,
		FaultSeed:   seed,
		// "replication: sync" with no commit-mode means sync-repl.
		CommitMode:   commitModeName(sc),
		CommitWindow: sc.Fleet.CommitWindow,
	})
	if err != nil {
		return nil, fmt.Errorf("scenario %s: start cluster: %w", sc.Name, err)
	}
	defer cl.Close()

	if sc.Fleet.Replication != "off" {
		err := cl.EnableReplication(func(o *replication.Options) {
			o.RetryBackoff = 5 * time.Millisecond
			if sc.Fleet.Backlog > 0 {
				o.MaxBacklog = sc.Fleet.Backlog
			}
			if sc.Fleet.Window > 0 {
				o.Window = sc.Fleet.Window
			}
		})
		if err != nil {
			return nil, fmt.Errorf("scenario %s: %w", sc.Name, err)
		}
	}

	co := server.NewCoordinator(cl)
	if sc.Fleet.Heartbeat > 0 {
		stop := co.StartAutoFailover(sc.Fleet.Heartbeat)
		defer stop()
	}
	if sc.Fleet.BalanceEvery > 0 {
		// The balancer origami-mds -cluster runs: self-training Origami.
		co.SetStrategy(&balancer.Origami{})
		stop := co.StartAutoBalance(sc.Fleet.BalanceEvery)
		defer stop()
	}

	drv, err := newDriver(sc, cl, seed)
	if err != nil {
		return nil, fmt.Errorf("scenario %s: workload: %w", sc.Name, err)
	}
	defer drv.close()

	if p := sc.Workload.Pin; p != "" {
		id, err := parseMDSTarget(p, sc.Fleet.MDS)
		if err != nil {
			return nil, fmt.Errorf("scenario %s: %v", sc.Name, err)
		}
		if id != 0 {
			if err := co.Migrate(drv.rootIno, 0, id); err != nil {
				return nil, fmt.Errorf("scenario %s: pin %s to %s: %w", sc.Name, sc.Workload.Root, p, err)
			}
			if err := drv.sdk.RefreshMap(); err != nil {
				return nil, fmt.Errorf("scenario %s: refresh map after pin: %w", sc.Name, err)
			}
		}
	}

	// Pre-create every directory the timeline will need (flash-crowd hot
	// dirs, migration-storm subtrees) while the cluster is healthy.
	eng := &engine{sc: sc, cl: cl, co: co, drv: drv, logf: logf}
	if err := eng.prepare(); err != nil {
		return nil, fmt.Errorf("scenario %s: prepare: %w", sc.Name, err)
	}

	schedule := Schedule(sc, seed)
	res := &RunResult{Name: sc.Name, Seed: seed}
	for _, se := range schedule {
		res.EventLog = append(res.EventLog, se.Line())
	}

	drv.start()
	t0 := time.Now()
	for _, se := range schedule {
		if d := se.At - time.Since(t0); d > 0 {
			time.Sleep(d)
		}
		logf("  %s", se.Line())
		eng.apply(se)
	}
	if d := sc.Duration - time.Since(t0); d > 0 {
		time.Sleep(d)
	}
	drv.stop()
	res.Workload = drv.stats()

	evaluateAssertions(sc, res, cl, co, drv)
	if opts.Inspect != nil {
		opts.Inspect(cl, co)
	}

	coSnap := co.Registry().Snapshot()
	res.CoordinatorMetrics = &coSnap
	clSnap := drv.registry().Snapshot()
	res.ClientMetrics = &clSnap
	res.Failovers = coSnap.Counters["coordinator.failover.completed"]
	res.Migrations = coSnap.Counters["coordinator.epoch.applied"] + eng.stormApplied.Load()
	res.MapVersion = co.MapVersion()

	// Observability artifacts: the slow-op log of every node plus one
	// sample distributed trace (the run's last SDK operation).
	for i := 0; i < sc.Fleet.MDS; i++ {
		if tr := cl.Tracer(i); tr != nil {
			res.SlowOps = append(res.SlowOps, tr.SlowOps()...)
		}
	}
	if tr := co.Tracer(); tr != nil {
		res.SlowOps = append(res.SlowOps, tr.SlowOps()...)
	}
	if tr := drv.sdk.Tracer(); tr != nil {
		res.SlowOps = append(res.SlowOps, tr.SlowOps()...)
	}
	if id := drv.sdk.LastTraceID(); id != 0 {
		res.TraceID = telemetry.FormatTraceID(id)
		if spans, err := drv.sdk.GatherTrace(id); err == nil {
			res.TraceSpans = spans
		}
	}
	res.Elapsed = time.Since(start)
	return res, nil
}
