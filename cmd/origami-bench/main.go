// Command origami-bench regenerates the paper's tables and figures as
// text reports:
//
//	origami-bench -exp fig5a            # one experiment
//	origami-bench -exp all              # everything (slow)
//	origami-bench -exp fig9 -full       # near paper-scale run lengths
//
// Experiments: fig2, fig5a, fig5b, fig6, table1, table2, fig7, fig8,
// fig9, headline, ablation-cache, ablation-cost, ablation-migcap.
//
// With -tcp the command instead benchmarks a live loopback TCP cluster
// with a closed-loop multi-worker load generator:
//
//	origami-bench -tcp                            # 1 MDS, 1/8/32 workers
//	origami-bench -tcp -workers 4,16 -duration 5s
//	origami-bench -tcp -commit-mode all -mds 3
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"origami/internal/balancer"
	"origami/internal/experiments"
	"origami/internal/kvstore"
	"origami/internal/loadgen"
	"origami/internal/server"
	"origami/internal/sim"
	"origami/internal/trace"
)

// tcpBenchPoint is one (cache, commit mode, worker count) measurement in
// the machine-readable BENCH_tcp.json report.
type tcpBenchPoint struct {
	Cache       string  `json:"cache"`
	CommitMode  string  `json:"commit_mode"`
	Workers     int     `json:"workers"`
	OpsPerSec   float64 `json:"ops_per_sec"`
	Ops         int64   `json:"ops"`
	Errors      int64   `json:"errors"`
	RPCPerOp    float64 `json:"rpc_per_op"`
	BatchFrames int64   `json:"batch_frames,omitempty"`
	BatchedOps  int64   `json:"batched_ops,omitempty"`
	P50Ns       int64   `json:"p50_ns"`
	P95Ns       int64   `json:"p95_ns"`
	P99Ns       int64   `json:"p99_ns"`
}

// tcpBenchReport is the whole BENCH_tcp.json document.
type tcpBenchReport struct {
	MDS         int             `json:"mds"`
	SyncWAL     bool            `json:"syncwal"`
	WritePct    int             `json:"writepct"`
	ReadPct     int             `json:"readpct"`
	Clients     int             `json:"clients"`
	BatchWindow int             `json:"batch_window"`
	Duration    string          `json:"duration_per_point"`
	TraceSample float64         `json:"trace_sample"`
	Points      []tcpBenchPoint `json:"points"`
}

// runTCPBench starts a fresh loopback cluster per (cache, commit-mode)
// combination and drives it with the closed-loop load generator at each
// worker count, printing an ops/sec matrix plus the cache and
// commit-mode speedups. Alongside the text report it writes
// BENCH_tcp.json (jsonOut) with the per-point throughput and exact
// p50/p95/p99 latencies.
func runTCPBench(numMDS int, workerCounts []int, dur time.Duration, syncWAL bool, writePct, readPct int, cacheMode string, commitMode string, batchWindow int, batchDelay time.Duration, clients int, traceSample float64, jsonOut string) error {
	cacheModes := []string{cacheMode}
	if cacheMode == "both" {
		cacheModes = []string{"off", "leases"}
	}
	commitModes := []string{commitMode}
	if commitMode == "all" {
		commitModes = []string{"sync-fsync", "sync-repl", "async"}
	}
	if readPct > 0 {
		writePct = 100 - min(readPct, 100)
	}
	report := tcpBenchReport{
		MDS: numMDS, SyncWAL: syncWAL, WritePct: writePct, ReadPct: readPct, Clients: clients,
		BatchWindow: batchWindow, Duration: dur.String(), TraceSample: traceSample,
	}
	thr := make(map[string]map[int]float64)
	for _, cache := range cacheModes {
		for _, cm := range commitModes {
			key := cache + "/" + cm
			thr[key] = make(map[int]float64)
			// sync-repl needs a backup to ack to; a single-node run
			// would silently degrade to the local fsync. async is
			// meaningful either way: with replication the background
			// durability wait is the backup ack, without it the local
			// group-commit fsync.
			n := numMDS
			if cm == "sync-repl" && n < 2 {
				n = 2
			}
			dir, err := os.MkdirTemp("", "origami-tcpbench-")
			if err != nil {
				return err
			}
			cluster, err := server.StartClusterConfig(n, dir, server.ClusterConfig{
				KvOpts:          kvstore.Options{SyncWAL: syncWAL},
				TraceSampleRate: traceSample,
				CommitMode:      cm,
			})
			if err != nil {
				os.RemoveAll(dir)
				return err
			}
			if cm != "sync-fsync" && n >= 2 {
				if err := cluster.EnableReplication(nil); err != nil {
					cluster.Close()
					os.RemoveAll(dir)
					return err
				}
			}
			fmt.Printf("## cache=%s commit=%s (%d MDS, %v per point, syncwal=%v, writepct=%d, clients=%d, batch=%d)\n",
				cache, cm, n, dur, syncWAL, writePct, clients, batchWindow)
			var lastPuts, lastSyncs int64
			for _, w := range workerCounts {
				res, err := loadgen.Run(loadgen.Config{
					Addrs:           cluster.Addrs,
					Workers:         w,
					Clients:         clients,
					Duration:        dur,
					Root:            fmt.Sprintf("bench-%s-%s-w%d", cache, cm, w),
					Cache:           cache,
					WritePct:        writePct,
					ReadPct:         readPct,
					Seed:            1,
					TraceSampleRate: traceSample,
					BatchWindow:     batchWindow,
					BatchDelay:      batchDelay,
				})
				if err != nil {
					cluster.Close()
					os.RemoveAll(dir)
					return err
				}
				thr[key][w] = res.Throughput()
				var puts, syncs int64
				for _, svc := range cluster.Services {
					st := svc.StoreStats()
					puts += st.Puts + st.Deletes
					syncs += st.WALSyncs
				}
				batch := "n/a"
				if d := syncs - lastSyncs; d > 0 {
					batch = fmt.Sprintf("%.1f", float64(puts-lastPuts)/float64(d))
				}
				lastPuts, lastSyncs = puts, syncs
				frames := ""
				if res.BatchFrames > 0 {
					frames = fmt.Sprintf(", %.1f ops/frame", float64(res.BatchedOps)/float64(res.BatchFrames))
				}
				fmt.Printf("  workers=%-3d  %9.0f ops/s  (%d ops, %d errors, %.3f rpc/op%s, %v, wal batch %s, p50 %v p95 %v p99 %v)\n",
					w, res.Throughput(), res.Ops, res.Errors, res.RPCPerOp(), frames, res.Elapsed.Round(time.Millisecond), batch,
					res.P50.Round(time.Microsecond), res.P95.Round(time.Microsecond), res.P99.Round(time.Microsecond))
				report.Points = append(report.Points, tcpBenchPoint{
					Cache: cache, CommitMode: cm, Workers: w,
					OpsPerSec: res.Throughput(), Ops: res.Ops, Errors: res.Errors, RPCPerOp: res.RPCPerOp(),
					BatchFrames: res.BatchFrames, BatchedOps: res.BatchedOps,
					P50Ns: res.P50.Nanoseconds(), P95Ns: res.P95.Nanoseconds(), P99Ns: res.P99.Nanoseconds(),
				})
			}
			cluster.Close()
			os.RemoveAll(dir)
		}
	}
	if cacheMode == "both" {
		fmt.Println("## cache speedup (leases / off)")
		for _, cm := range commitModes {
			for _, w := range workerCounts {
				if s := thr["off/"+cm][w]; s > 0 {
					fmt.Printf("  commit=%-10s workers=%-3d  %.2fx\n", cm, w, thr["leases/"+cm][w]/s)
				}
			}
		}
	}
	if commitMode == "all" {
		fmt.Println("## commit-mode speedup (vs sync-fsync)")
		for _, cache := range cacheModes {
			for _, w := range workerCounts {
				base := thr[cache+"/sync-fsync"][w]
				if base <= 0 {
					continue
				}
				for _, cm := range []string{"sync-repl", "async"} {
					fmt.Printf("  cache=%-6s commit=%-10s workers=%-3d  %.2fx\n",
						cache, cm, w, thr[cache+"/"+cm][w]/base)
				}
			}
		}
	}
	if jsonOut != "" {
		buf, err := json.MarshalIndent(&report, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(jsonOut, append(buf, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("machine-readable report written to %s\n", jsonOut)
	}
	return nil
}

func parseWorkerCounts(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n < 1 {
			return nil, fmt.Errorf("bad worker count %q", part)
		}
		out = append(out, n)
	}
	return out, nil
}

// writeMetrics dumps the simulator's telemetry registry (virtual-clock
// op latency histograms, epoch/migration counters) as JSON next to the
// experiment results.
func writeMetrics(path string) {
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "origami-bench: metrics out: %v\n", err)
		os.Exit(1)
	}
	defer f.Close()
	if err := sim.Metrics().WriteJSON(f); err != nil {
		fmt.Fprintf(os.Stderr, "origami-bench: write metrics: %v\n", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "metrics snapshot written to %s\n", path)
}

// replayTrace runs one strategy over an external trace file and prints
// the run metrics — `origami-bench -exp replay -trace t.bin -strategy origami`.
func replayTrace(path, strategyName string, numMDS int) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	tr, err := trace.ReadBinary(f)
	if err != nil {
		if _, serr := f.Seek(0, 0); serr == nil {
			tr, err = trace.ReadText(f)
		}
	}
	f.Close()
	if err != nil {
		return fmt.Errorf("parse trace %s: %w", path, err)
	}
	st, err := balancer.ByName(strategyName)
	if err != nil {
		return err
	}
	if st.Name() == "Single" {
		numMDS = 1
	}
	res, err := sim.Run(sim.Config{
		NumMDS: numMDS, Clients: 50, CacheDepth: 3, Epoch: time.Second,
	}, tr, st)
	if err != nil {
		return err
	}
	fmt.Printf("trace %s (%d ops) under %s on %d MDS(s):\n", tr.Name, tr.Len(), res.Strategy, numMDS)
	fmt.Printf("  throughput %.0f ops/s (steady %.0f)\n", res.Throughput, res.SteadyThroughput)
	fmt.Printf("  mean latency %v, p99 %v\n", res.MeanLatency.Round(time.Microsecond), res.P99Latency.Round(time.Microsecond))
	fmt.Printf("  %.3f rpc/request, %d migrations, %d failed ops\n",
		res.RPCPerRequest, res.Migrations, res.FailedOps)
	return nil
}

func main() {
	var (
		exp        = flag.String("exp", "headline", "experiment to run (or 'all')")
		full       = flag.Bool("full", false, "run at near paper-scale lengths")
		seed       = flag.Int64("seed", 1, "workload seed")
		traceFile  = flag.String("trace", "", "trace file for -exp replay")
		strategy   = flag.String("strategy", "origami", "strategy for -exp replay")
		numMDS     = flag.Int("mds", 5, "cluster size for -exp replay")
		metricsOut = flag.String("metrics-out", "", "write the simulator telemetry snapshot (JSON) to this file after the run")
		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
		tcp        = flag.Bool("tcp", false, "benchmark a live loopback TCP cluster instead of running simulator experiments")
		workers    = flag.String("workers", "1,8,32", "comma-separated closed-loop worker counts for -tcp")
		duration   = flag.Duration("duration", 2*time.Second, "measurement time per -tcp point")
		syncWAL    = flag.Bool("syncwal", true, "make MDS writes durable before acknowledgement (-tcp; group commit)")
		writePct   = flag.Int("writepct", 100, "percentage of mutating ops in the -tcp workload (default is an mdtest-style create storm)")
		readPct    = flag.Int("readpct", 0, "specify the -tcp mix from the read side instead: 100 is a pure stat/readdir storm (overrides -writepct)")
		cacheMode  = flag.String("cache", "leases", "SDK cache mode for -tcp: leases, off, or both (A/B comparison)")
		commitMode = flag.String("commit-mode", "sync-fsync", "durability policy for -tcp: sync-fsync, sync-repl, async, or all (matrix; replicated modes force >= 2 MDSs)")
		batchFlag  = flag.Int("batch", 0, "SDK pipelined-submission window for -tcp (sub-ops per MethodBatch frame; 0 = one frame per op)")
		batchDelay = flag.Duration("batch-delay", 0, "linger before a partial batch frame flushes (0 = SDK default)")
		clients    = flag.Int("clients", 0, "simulated SDK clients for -tcp (virtual clients sharing transports; 0 = one shared client)")
		jsonOut    = flag.String("json-out", "BENCH_tcp.json", "write the -tcp results as JSON to this file (empty disables)")
		traceRate  = flag.Float64("trace-sample", 0.01, "span head-sampling rate for the -tcp cluster and SDK (negative disables tracing)")
	)
	flag.Parse()
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "origami-bench: cpuprofile: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "origami-bench: cpuprofile: %v\n", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	if *tcp {
		// The simulator experiments default -mds to 5; the TCP benchmark
		// is sharpest on one MDS unless asked otherwise.
		tcpMDS := 1
		flag.Visit(func(f *flag.Flag) {
			if f.Name == "mds" {
				tcpMDS = *numMDS
			}
		})
		wc, err := parseWorkerCounts(*workers)
		if err != nil {
			fmt.Fprintf(os.Stderr, "origami-bench: %v\n", err)
			os.Exit(1)
		}
		if *cacheMode != "both" && *cacheMode != "off" && *cacheMode != "leases" {
			fmt.Fprintf(os.Stderr, "origami-bench: bad -cache %q\n", *cacheMode)
			os.Exit(1)
		}
		switch *commitMode {
		case "all", "sync-fsync", "sync-repl", "async":
		default:
			fmt.Fprintf(os.Stderr, "origami-bench: bad -commit-mode %q\n", *commitMode)
			os.Exit(1)
		}
		if err := runTCPBench(tcpMDS, wc, *duration, *syncWAL, *writePct, *readPct, *cacheMode, *commitMode, *batchFlag, *batchDelay, *clients, *traceRate, *jsonOut); err != nil {
			fmt.Fprintf(os.Stderr, "origami-bench: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if *exp == "replay" {
		if *traceFile == "" {
			fmt.Fprintln(os.Stderr, "origami-bench: -exp replay needs -trace <file>")
			os.Exit(1)
		}
		if err := replayTrace(*traceFile, *strategy, *numMDS); err != nil {
			fmt.Fprintf(os.Stderr, "origami-bench: %v\n", err)
			os.Exit(1)
		}
		if *metricsOut != "" {
			writeMetrics(*metricsOut)
		}
		return
	}
	scale := experiments.DefaultScale()
	if *full {
		scale = experiments.FullScale()
	}
	scale.Seed = *seed

	runOne := func(name string) error {
		start := time.Now()
		fmt.Printf("### %s\n", name)
		var err error
		switch name {
		case "fig2":
			var r *experiments.Fig2Result
			if r, err = experiments.Fig2(scale); err == nil {
				r.Render(os.Stdout)
			}
		case "fig5a":
			var r *experiments.Fig5aResult
			if r, err = experiments.Fig5a(scale); err == nil {
				r.Render(os.Stdout)
			}
		case "fig5b":
			var r *experiments.Fig5bResult
			if r, err = experiments.Fig5b(scale); err == nil {
				r.Render(os.Stdout)
			}
		case "fig6":
			var r *experiments.Fig6Result
			if r, err = experiments.Fig6(scale); err == nil {
				r.Render(os.Stdout)
			}
		case "table1":
			var r *experiments.Table1Result
			if r, err = experiments.Table1(scale, true); err == nil {
				r.Render(os.Stdout)
			}
		case "table2":
			seeds := 3
			if !*full {
				seeds = 2
			}
			var r *experiments.Table2Result
			if r, err = experiments.Table2(scale, seeds); err == nil {
				r.Render(os.Stdout)
			}
		case "fig7":
			var r *experiments.Fig7Result
			if r, err = experiments.Fig7(scale); err == nil {
				r.Render(os.Stdout)
			}
		case "fig8":
			var r *experiments.Fig8Result
			if r, err = experiments.Fig8(scale); err == nil {
				r.Render(os.Stdout)
			}
		case "fig9":
			var r *experiments.Fig9Result
			if r, err = experiments.Fig9(scale); err == nil {
				r.Render(os.Stdout)
			}
		case "headline":
			var r *experiments.HeadlineResult
			if r, err = experiments.Headline(scale); err == nil {
				r.Render(os.Stdout)
			}
		case "ablation-cache":
			var r *experiments.CacheDepthResult
			if r, err = experiments.AblationCacheDepth(scale); err == nil {
				r.Render(os.Stdout)
			}
		case "ablation-cost":
			var r *experiments.CostParamResult
			if r, err = experiments.AblationCostParams(scale); err == nil {
				r.Render(os.Stdout)
			}
		case "ablation-migcap":
			var r *experiments.MigrationCapResult
			if r, err = experiments.AblationMigrationCap(scale); err == nil {
				r.Render(os.Stdout)
			}
		case "ablation-load":
			var r *experiments.LoadLatencyResult
			if r, err = experiments.AblationLoadLatency(scale); err == nil {
				r.Render(os.Stdout)
			}
		case "decisions":
			var r *experiments.DecisionAnalysisResult
			if r, err = experiments.DecisionAnalysis(scale); err == nil {
				r.Render(os.Stdout)
			}
		case "extended":
			var r *experiments.ExtendedResult
			if r, err = experiments.Extended(scale); err == nil {
				r.Render(os.Stdout)
			}
		default:
			err = fmt.Errorf("unknown experiment %q", name)
		}
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		fmt.Printf("(%s done in %v)\n\n", name, time.Since(start).Round(time.Millisecond))
		return nil
	}

	names := []string{*exp}
	if *exp == "all" {
		names = []string{
			"fig2", "fig5a", "fig5b", "fig6", "table1", "table2",
			"fig7", "fig8", "fig9", "headline",
			"ablation-cache", "ablation-cost", "ablation-migcap", "ablation-load",
			"decisions", "extended",
		}
	}
	for _, name := range names {
		if err := runOne(name); err != nil {
			fmt.Fprintf(os.Stderr, "origami-bench: %v\n", err)
			os.Exit(1)
		}
	}
	if *metricsOut != "" {
		writeMetrics(*metricsOut)
	}
}
