// Command bench is the repository's benchmark: four workloads against
// real in-process OrigamiFS clusters on loopback TCP, fifteen end-to-end
// metrics per workload, and an outside-in ladder of per-layer metrics.
// It touches nothing outside bench/ and reaches every layer only through
// its public API, registries and direct timed calls. See README.md.
//
//	bash bench/run.sh --workload create-storm --seed 1 --seconds 10 --trace 0
//	bash bench/run.sh compare a.jsonl b.jsonl
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// result is one run: the last line of standard output carries the four
// driver keys, the result file everything.
type result struct {
	Workload  string                 `json:"workload"`
	Seed      int64                  `json:"seed"`
	Seconds   float64                `json:"seconds"`
	Trace     int                    `json:"trace"`
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
	Env       envInfo                `json:"env"`
	Notes     map[string]any         `json:"notes,omitempty"`
	Spans     []benchSpan            `json:"spans,omitempty"`
}

// runDeadline aborts a run that hangs: the driver allows 180 s.
const runDeadline = 170 * time.Second

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	var (
		name    = flag.String("workload", "", "workload name (see BENCHMARK.json)")
		seed    = flag.Int64("seed", 1, "input seed: the same seed gives the same ops")
		seconds = flag.Float64("seconds", 20, "measured seconds")
		trace   = flag.Int("trace", 0, "1 = traced run reporting the per-layer metrics")
		outDir  = flag.String("out", filepath.Join("bench", "out"), "directory for result files")
		set     = flag.String("set", "", "also append the result as one JSON line to this run-set file (input of compare)")
		tmp     = flag.String("tmp", ".bench_build", "directory for cluster data (removed afterwards)")
	)
	flag.Parse()
	info := findWorkload(*name)
	if info == nil {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q; have:", *name)
		for _, w := range workloads {
			fmt.Fprintf(os.Stderr, " %s", w.Name)
		}
		fmt.Fprintln(os.Stderr)
		os.Exit(2)
	}
	if err := os.MkdirAll(*tmp, 0o755); err != nil {
		fatal(err)
	}
	base, err := os.MkdirTemp(*tmp, "run-")
	if err != nil {
		fatal(err)
	}
	time.AfterFunc(runDeadline, func() {
		fmt.Fprintln(os.Stderr, "bench: run exceeded", runDeadline)
		os.RemoveAll(base)
		os.Exit(3)
	})
	var res *result
	if *trace != 0 {
		res, err = runTraced(info, *seed, *seconds, base)
	} else {
		res, err = runEndToEnd(info, *seed, *seconds, base)
	}
	os.RemoveAll(base)
	if err != nil {
		fatal(err)
	}
	res.Trace = *trace
	if err := writeResult(res, *outDir, *set); err != nil {
		fatal(err)
	}
	line, err := json.Marshal(map[string]any{
		"correct":   res.Correct,
		"attempted": res.Attempted,
		"failed":    res.Failed,
		"metrics":   res.Metrics,
	})
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}

// writeResult stores the full result under outDir and, when set names a
// file, appends it there without its spans.
func writeResult(res *result, outDir, set string) error {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	body, err := json.MarshalIndent(res, "", " ")
	if err != nil {
		return err
	}
	name := fmt.Sprintf("%s.seed%d.trace%d.json", res.Workload, res.Seed, res.Trace)
	if err := os.WriteFile(filepath.Join(outDir, name), body, 0o644); err != nil {
		return err
	}
	if set == "" {
		return nil
	}
	slim := *res
	slim.Spans = nil
	line, err := json.Marshal(&slim)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(set, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
