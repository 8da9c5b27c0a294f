package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"origami/internal/balancer"
	"origami/internal/client"
	"origami/internal/server"
	"origami/internal/telemetry"
)

// env is one live cluster under test with its SDK handles.
type env struct {
	wl   workload
	dir  string
	cl   *server.Cluster
	co   *server.Coordinator
	root *client.Client
	sdk  [numWorkers]*client.Client
	// forks holds every virtual client ever made: RPC frames are summed
	// once over root + forks (batch frames ride the root's transports).
	forks []*client.Client

	epochs epochLog
	closed bool
	rec    *spanRecorder // bench-side spans; nil when tracing is off
}

// setup boots a cluster in dir, preloads the workload's namespace and
// runs one untimed warm-up round (about 5% of a measured run).
// A non-nil rec turns tracing on everywhere (cluster, SDK, bench spans).
func setup(wl workload, dir string, rec *spanRecorder) (*env, error) {
	rate := -1.0 // tracing off: end-to-end numbers never pay for spans
	if rec != nil {
		rate = 0 // record everything
	}
	cfg := wl.config()
	cfg.TraceSampleRate = rate
	cl, err := server.StartClusterConfig(wl.numMDS(), dir, cfg)
	if err != nil {
		return nil, fmt.Errorf("start cluster: %w", err)
	}
	e := &env{wl: wl, dir: dir, cl: cl, rec: rec}
	e.root, err = client.Dial(client.Config{
		Addrs:           cl.Addrs,
		BatchWindow:     wl.batchWindow(),
		TraceSampleRate: rate,
	})
	if err != nil {
		cl.Close()
		return nil, fmt.Errorf("dial: %w", err)
	}
	if wl.balanced() {
		e.co = server.NewCoordinator(cl)
		e.co.SetStrategy(&balancer.Origami{})
	}
	if err := wl.preload(e.root, cl.Addrs); err != nil {
		e.close()
		return nil, fmt.Errorf("preload: %w", err)
	}
	for w := range e.sdk {
		e.sdk[w] = e.root.Fork()
		e.forks = append(e.forks, e.sdk[w])
	}
	if _, err := e.runRound(nil); err != nil {
		e.close()
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	return e, nil
}

// close tears the cluster down and removes its data; closing twice is
// harmless.
func (e *env) close() {
	if e.closed {
		return
	}
	e.closed = true
	e.root.Close()
	e.cl.Close()
	os.RemoveAll(e.dir)
}

// rpcFrames is the number of wire frames the SDK sent so far.
func (e *env) rpcFrames() int64 {
	n := e.root.Stats().RPCs
	for _, f := range e.forks {
		n += f.Stats().RPCs
	}
	return n
}

// mdsOps returns each shard's served-op count: the sum of its
// mds.op.<op>.latency_ns histogram counts.
func (e *env) mdsOps() []float64 {
	out := make([]float64, len(e.cl.Services))
	for i, svc := range e.cl.Services {
		for name, h := range svc.Registry().Snapshot().Histograms {
			if strings.HasPrefix(name, "mds.op.") {
				out[i] += float64(h.Count)
			}
		}
	}
	return out
}

// roundStat is what one round contributes to the end-to-end metrics.
type roundStat struct {
	ops  int
	wall time.Duration
	cpu  time.Duration // process user+sys time spent during the round
	mds  []float64     // cumulative per-shard op counts at round end
}

// phase accumulates one measured phase.
type phase struct {
	rounds   []roundStat
	read     []time.Duration // per-op latency, arrival order
	write    []time.Duration
	kindTime [len(kindNames)]time.Duration // summed call time per op kind
	kindOps  [len(kindNames)]int
	ops      int
	writes   int
	failed   int
	failures []string // first few, for the result file
}

func (p *phase) fail(msg string) {
	p.failed++
	if len(p.failures) < 8 {
		p.failures = append(p.failures, msg)
	}
}

// runRound generates and runs one round on every worker, closed loop,
// and returns false when the seeded input is exhausted. A nil phase
// discards the measurements (warm-up) but still fails on errors.
func (e *env) runRound(p *phase) (bool, error) {
	var ops [numWorkers][]op
	for w := range ops {
		if ops[w] = e.wl.round(w); ops[w] == nil {
			return false, nil
		}
	}
	var (
		res   [numWorkers][]opResult
		lats  [numWorkers][]time.Duration
		fresh [numWorkers][]*client.Client // forks made inside the round
		wg    sync.WaitGroup
	)
	roundSpan := e.rec.begin("bench.round", 0)
	cpu0 := cpuTime()
	start := time.Now()
	if e.co != nil && p != nil {
		e.epochs.run(e, roundSpan)
	}
	for w := range ops {
		res[w] = make([]opResult, len(ops[w]))
		lats[w] = make([]time.Duration, len(ops[w]))
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sdk := e.sdk[w]
			for i := range ops[w] {
				o := &ops[w][i]
				if o.refork {
					sdk = e.root.Fork()
					e.sdk[w] = sdk
					fresh[w] = append(fresh[w], sdk)
				}
				t0 := time.Now()
				res[w][i] = exec(sdk, o)
				d := time.Since(t0)
				lats[w][i] = d
				e.rec.add(w, o.kind, t0, d, roundSpan)
			}
		}(w)
	}
	wg.Wait()
	wall := time.Since(start)
	cpu := cpuTime() - cpu0
	e.rec.end(roundSpan)
	for w := range fresh {
		e.forks = append(e.forks, fresh[w]...)
	}
	var firstErr error
	n := 0
	for w := range ops {
		for i := range ops[w] {
			o, r := &ops[w][i], res[w][i]
			n++
			if !o.right(r) {
				msg := fmt.Sprintf("%s %s: got ino=%d n=%d err=%v", o.kind, o.path, r.ino, r.n, r.err)
				if firstErr == nil {
					firstErr = fmt.Errorf("%s", msg)
				}
				if p != nil {
					p.fail(msg)
				}
			}
			if p == nil {
				continue
			}
			if o.kind.isWrite() {
				p.write = append(p.write, lats[w][i])
				p.writes++
			} else {
				p.read = append(p.read, lats[w][i])
			}
			p.kindTime[o.kind] += lats[w][i]
			p.kindOps[o.kind]++
		}
	}
	if p == nil {
		return true, firstErr
	}
	p.ops += n
	rs := roundStat{ops: n, wall: wall, cpu: cpu}
	if e.wl.numMDS() > 1 {
		rs.mds = e.mdsOps()
	}
	p.rounds = append(p.rounds, rs)
	return true, nil
}

// minRounds keeps the medians meaningful when a round is slower than
// planned.
const minRounds = 3

// measured is one measured phase with the whole-process cost deltas over
// it (the deltas describe the phase only when nothing ran beside it).
type measured struct {
	*phase
	beside *phase // the reference cluster's rounds, when one took turns
	cost   procSample
	frames int64 // wire frames the SDK sent
	wall   time.Duration
}

// measure runs rounds for at least d. With a second cluster beside e the
// two take turns round by round, so that a slow stretch of the host
// falls on both alike.
func (e *env) measure(d time.Duration, beside *env) (*measured, error) {
	m := &measured{phase: &phase{}}
	envs, phases := []*env{e}, []*phase{m.phase}
	if beside != nil {
		m.beside = &phase{}
		envs, phases = append(envs, beside), append(phases, m.beside)
	}
	before, rpc0 := sampleProc(), e.rpcFrames()
	start := time.Now()
loop:
	for len(m.rounds) < minRounds || time.Since(start) < d {
		for i := range envs {
			if more, _ := envs[i].runRound(phases[i]); !more {
				break loop
			}
		}
	}
	m.wall = time.Since(start)
	after := sampleProc()
	m.frames = e.rpcFrames() - rpc0
	m.cost = procSample{mallocs: after.mallocs - before.mallocs, writeBytes: -1}
	if before.writeBytes >= 0 && after.writeBytes >= 0 {
		m.cost.writeBytes = after.writeBytes - before.writeBytes
	}
	if len(m.rounds) == 0 {
		return nil, fmt.Errorf("seeded input exhausted before the first round")
	}
	return m, nil
}

// epochLog keeps what the balancing epochs of a coordinated workload
// did.
type epochLog struct {
	wallMS  []float64
	applied int
	reject  int
	inodes  int
	errs    int
}

// run executes one balancing epoch while the workers wait at the round
// barrier; its wall time is part of the round (the job pays for it).
//
// The issue asked for epochs concurrent with the traffic. On the seed
// code that loses acknowledged renames while the first migration moves a
// hot build directory (see README, "Known findings"), and the driver
// contract wants workloads on which no operation fails, so the epoch is
// quiesced: dumps, features, GBDT, Meta-OPT, 2PC migration, lease
// revocation and the clients' redirect recovery all still run.
func (l *epochLog) run(e *env, parent uint64) {
	before := storeCounts(e.cl)
	span := e.rec.begin("bench.epoch", parent)
	t0 := time.Now()
	res, err := e.co.RunEpoch()
	l.wallMS = append(l.wallMS, float64(time.Since(t0))/float64(time.Millisecond))
	e.rec.end(span)
	if err != nil {
		l.errs++
	}
	if res == nil {
		return
	}
	l.applied += len(res.Applied)
	l.reject += len(res.Rejected)
	if len(res.Applied) > 0 {
		// Shards that gained inodes received the migrated subtrees.
		after := storeCounts(e.cl)
		for i := range after {
			if d := after[i] - before[i]; d > 0 {
				l.inodes += d
			}
		}
	}
}

func storeCounts(cl *server.Cluster) []int {
	out := make([]int, len(cl.Services))
	for i, svc := range cl.Services {
		if svc != nil {
			out[i] = svc.Store().Count()
		}
	}
	return out
}

// restartAll crash-restarts every shard in place and returns the total
// recovery wall time.
func restartAll(cl *server.Cluster) (time.Duration, error) {
	var total time.Duration
	for i := range cl.Services {
		if err := cl.StopMDS(i); err != nil {
			return 0, fmt.Errorf("stop MDS %d: %w", i, err)
		}
		t0 := time.Now()
		if err := cl.RestartMDS(i); err != nil {
			return 0, fmt.Errorf("restart MDS %d: %w", i, err)
		}
		total += time.Since(t0)
	}
	return total, nil
}

// checkDurable is the post-run correctness pass: the namespace must
// match the model through a worker-independent client, and again after
// every shard was stopped and restarted and a fresh client mounted —
// what is missing then was acknowledged and lost.
func (e *env) checkDurable() (bad, lost, checked int, recovery time.Duration, err error) {
	bad, checked, err = e.wl.verify(e.root)
	if err != nil {
		return 0, 0, 0, 0, fmt.Errorf("verify: %w", err)
	}
	e.root.Close()
	if recovery, err = restartAll(e.cl); err != nil {
		return 0, 0, 0, 0, err
	}
	fresh, err := client.Dial(client.Config{Addrs: e.cl.Addrs, TraceSampleRate: -1})
	if err != nil {
		return 0, 0, 0, 0, fmt.Errorf("dial after restart: %w", err)
	}
	e.root = fresh // closed with the env
	if err := fresh.RefreshMap(); err != nil {
		return 0, 0, 0, 0, fmt.Errorf("refresh map after restart: %w", err)
	}
	lost, _, err = e.wl.verify(fresh)
	if err != nil {
		return 0, 0, 0, 0, fmt.Errorf("verify after restart: %w", err)
	}
	return bad, lost, checked, recovery, nil
}

// guard fails the run when the workload is not measuring what it
// declares — a silently wrong configuration must not produce numbers.
// It runs after the warm-up (rpcPerOp < 0: nothing measured yet) and
// again after the measured phase.
func (e *env) guard(rpcPerOp float64) error {
	if e.wl.config().CommitMode == "sync-fsync" {
		var syncs int64
		for _, svc := range e.cl.Services {
			syncs += svc.StoreStats().WALSyncs
		}
		if syncs == 0 {
			return fmt.Errorf("guard: no WAL fsync on a sync-fsync workload (SyncWAL off?)")
		}
	}
	if e.wl.batchWindow() > 1 && e.root.Stats().BatchFrames == 0 {
		return fmt.Errorf("guard: no MethodBatch frame although the SDK batches")
	}
	if rpcPerOp < 0 {
		return nil
	}
	if floor := e.wl.minRPCPerOp(); rpcPerOp < floor {
		return fmt.Errorf("guard: rpc_per_op %.3f < %.1f: the lease cache is absorbing the workload", rpcPerOp, floor)
	}
	if e.co != nil && e.epochs.applied == 0 {
		return fmt.Errorf("guard: a balanced workload applied no migration")
	}
	return nil
}

// setupRepeats is how many times an end-to-end run sets up: setup_s is
// the median, the last cluster is the one measured.
const setupRepeats = 3

// runEndToEnd is the untraced run behind every end_to_end metric.
func runEndToEnd(info *workloadInfo, seed int64, seconds float64, base string) (*result, error) {
	telemetry.SetLogLevel(telemetry.LevelError)
	var (
		e      *env
		setups []float64
	)
	for i := 0; i < setupRepeats; i++ {
		if e != nil {
			e.close()
		}
		t0 := time.Now()
		var err error
		if e, err = setup(info.New(seed), filepath.Join(base, fmt.Sprintf("e2e%d", i)), nil); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer e.close()
	if err := e.guard(-1); err != nil {
		return nil, err
	}
	p, err := e.measure(time.Duration(seconds*float64(time.Second)), nil)
	if err != nil {
		return nil, err
	}
	cost, wall := p.cost, p.wall
	ops := float64(p.ops)
	rpcPerOp := float64(p.frames) / ops
	if err := e.guard(rpcPerOp); err != nil {
		return nil, err
	}
	bad, lost, checked, _, err := e.checkDurable()
	if err != nil {
		return nil, err
	}

	var perRoundOps, perRoundWall, perRoundCPU []float64
	for _, r := range p.rounds {
		perRoundCPU = append(perRoundCPU, float64(r.cpu)/1e3/float64(r.ops))
		perRoundOps = append(perRoundOps, float64(r.ops)/r.wall.Seconds())
		perRoundWall = append(perRoundWall, r.wall.Seconds())
	}
	vals := map[string]float64{
		"setup_s":          median(setups),
		"ops_per_s":        median(perRoundOps),
		"job_s":            median(perRoundWall),
		"read_p50_us":      chunkedPercentile(p.read, 50) / 1e3,
		"read_p95_us":      chunkedPercentile(p.read, 95) / 1e3,
		"write_p50_us":     chunkedPercentile(p.write, 50) / 1e3,
		"write_p95_us":     chunkedPercentile(p.write, 95) / 1e3,
		"ok_share":         1 - float64(p.failed)/ops,
		"rpc_per_op":       rpcPerOp,
		"allocs_per_op":    float64(cost.mallocs) / ops,
		"cpu_us_per_op":    median(perRoundCPU),
		"peak_rss_mb":      peakRSSMB(),
		"max_mds_share":    lastQuarterShare(p.rounds),
		"acked_kept_share": 1 - float64(lost)/float64(max(checked, 1)),
	}
	if cost.writeBytes >= 0 && p.writes > 0 {
		vals["disk_bytes_per_op"] = float64(cost.writeBytes) / float64(p.writes)
	}
	res := &result{
		Workload:  info.Name,
		Seed:      seed,
		Seconds:   seconds,
		Correct:   bad == 0 && lost == 0,
		Attempted: p.ops,
		Failed:    p.failed,
		Metrics:   render(endToEnd, vals),
		Env:       collectEnv(base),
		Notes: map[string]any{
			"tables_per_level": e.cl.Services[0].StoreStats().TablesPerLevel,
			"rounds":           len(p.rounds),
			"round_ops_per_s":  perRoundOps,
			"measured_wall_s":  wall.Seconds(),
			"read_samples":     len(p.read),
			"write_samples":    len(p.write),
			"read_tail":        highestPercentile(len(p.read)),
			"write_tail":       highestPercentile(len(p.write)),
			"setup_s_each":     setups,
			"verify_bad":       bad,
			"verify_checked":   checked,
			"lost_acked":       lost,
			"epochs":           len(e.epochs.wallMS),
			"migrations":       e.epochs.applied,
			"failures":         p.failures,
		},
	}
	return res, nil
}

// lastQuarterShare is the busiest shard's share of the ops served during
// the last quarter of the rounds (1 on a single shard).
func lastQuarterShare(rounds []roundStat) float64 {
	last := rounds[len(rounds)-1].mds
	if len(last) < 2 {
		return 1
	}
	loads := lastQuarterLoads(rounds)
	var sum, top float64
	for _, l := range loads {
		sum += l
		top = max(top, l)
	}
	if sum == 0 {
		return 1
	}
	return top / sum
}

// lastQuarterLoads returns each shard's op count over the last quarter
// of the rounds.
func lastQuarterLoads(rounds []roundStat) []float64 {
	last := rounds[len(rounds)-1].mds
	from := len(rounds) - 1 - max(len(rounds)/4, 1)
	loads := append([]float64(nil), last...)
	if from >= 0 {
		for i, v := range rounds[from].mds {
			loads[i] -= v
		}
	}
	return loads
}
