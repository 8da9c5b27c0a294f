// Command origami-bench regenerates the paper's tables and figures as
// text reports from the simulator:
//
//	origami-bench -exp fig5a            # one experiment
//	origami-bench -exp all              # everything (slow)
//	origami-bench -exp fig9 -full       # near paper-scale run lengths
//	origami-bench -exp replay -trace t.bin -strategy origami -mds 5
//
// Experiments: fig2, fig5a, fig5b, fig6, table1, table2, fig7, fig8,
// fig9, headline, ablation-cache, ablation-cost, ablation-migcap,
// ablation-load, decisions, extended; all runs every one of them, and
// replay runs one strategy over an external trace file.
//
// The live TCP cluster is measured elsewhere: `bash bench/run.sh` runs
// the repository benchmark's workloads, and `go test -bench
// DurableCreate ./internal/server` times the durable create path at 1
// to 128 closed-loop workers.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime/pprof"
	"time"

	"origami/internal/balancer"
	"origami/internal/experiments"
	"origami/internal/sim"
	"origami/internal/trace"
)

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
