// origami-sim runs declarative chaos scenarios against real in-process
// OrigamiFS clusters. A scenario file declares the fleet, the offered
// workload, a fault timeline (kills, partitions, lossy links, slow
// disks, flash crowds, migration storms), and machine-checkable
// assertions; a fixed seed replays the whole run — event log included —
// bit for bit.
//
//	origami-sim run scenarios/cascading-failover.yaml
//	origami-sim run -seed 42 -report out.json scenarios/*.yaml
//	origami-sim list scenarios
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"origami/internal/scenario"
	"origami/internal/telemetry"
)

func main() {
	// Chaos runs are full of expected connection losses and publish
	// misses; the scenario narration is the signal. -logs restores the
	// component logs for debugging.
	telemetry.SetLogLevel(telemetry.LevelError)
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "run":
		err = cmdRun(os.Args[2:])
	case "list":
		err = cmdList(os.Args[2:])
	case "-h", "--help", "help":
		usage()
		return
	default:
		fmt.Fprintf(os.Stderr, "origami-sim: unknown command %q\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "origami-sim:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintf(os.Stderr, `usage:
  origami-sim run [-seed N] [-report file.json] [-q] <scenario.yaml>...
  origami-sim list [dir]
`)
}

func cmdRun(args []string) error {
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	seed := fs.Int64("seed", 0, "override every scenario's seed (0 = keep)")
	report := fs.String("report", "", "write a JSON report of all runs to this file")
	quiet := fs.Bool("q", false, "suppress per-event progress lines")
	logs := fs.Bool("logs", false, "show component logs (down to info)")
	fs.Parse(args)
	if *logs {
		telemetry.SetLogLevel(telemetry.LevelInfo)
	}
	if fs.NArg() == 0 {
		return fmt.Errorf("run: no scenario files given")
	}
	opts := scenario.Options{Seed: *seed}
	if !*quiet {
		opts.Log = os.Stdout
	}
	var results []*scenario.RunResult
	failed := 0
	for _, path := range fs.Args() {
		fmt.Printf("== %s\n", filepath.Base(path))
		res, err := scenario.RunFile(path, opts)
		if err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		fmt.Print(res.Text())
		results = append(results, res)
		if !res.Passed() {
			failed++
		}
	}
	if *report != "" {
		f, err := os.Create(*report)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := writeReport(f, results); err != nil {
			return err
		}
		fmt.Printf("report: %s\n", *report)
	}
	fmt.Printf("%d/%d scenarios passed\n", len(results)-failed, len(results))
	if failed > 0 {
		return fmt.Errorf("%d scenario(s) failed", failed)
	}
	return nil
}

func writeReport(f *os.File, results []*scenario.RunResult) error {
	fmt.Fprintln(f, "[")
	for i, r := range results {
		if err := r.WriteJSON(f); err != nil {
			return err
		}
		if i < len(results)-1 {
			fmt.Fprintln(f, ",")
		}
	}
	fmt.Fprintln(f, "]")
	return nil
}

func cmdList(args []string) error {
	dir := "scenarios"
	if len(args) > 0 {
		dir = args[0]
	}
	paths, err := filepath.Glob(filepath.Join(dir, "*.yaml"))
	if err != nil {
		return err
	}
	if len(paths) == 0 {
		return fmt.Errorf("no scenario files under %s", dir)
	}
	sort.Strings(paths)
	for _, path := range paths {
		sc, err := scenario.ParseFile(path)
		if err != nil {
			fmt.Printf("%-28s INVALID: %v\n", filepath.Base(path), err)
			continue
		}
		fmt.Printf("%-28s %s\n", filepath.Base(path), sc.Description)
	}
	return nil
}
