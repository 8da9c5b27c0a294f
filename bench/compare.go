package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// benchmarkFile is BENCHMARK.json, read for the bounds.
type benchmarkFile struct {
	EndToEnd []struct {
		Name  string  `json:"name"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
}

// verdict of one workload x metric pairing of two run sets.
type verdict string

const (
	vOK         verdict = "ok"
	vWorse      verdict = "worse"
	vUnresolved verdict = "unresolved" // a set's spread exceeds the bound: neither "same" nor "worse" can be said
)

type comparison struct {
	Workload, Metric string
	MedA, MedB       float64
	Delta            float64 // (B-A)/A, signed so that positive is worse
	SpreadA, SpreadB float64
	Bound            float64
	Verdict          verdict
}

// compareSets judges run set b against run set a, per workload and
// end-to-end metric: b is worse when its median is worse than a's by
// more than the metric's bound, and the pairing is unresolved when
// either set's own spread is wider than the bound.
func compareSets(a, b []result, bounds map[string]float64) []comparison {
	group := func(rs []result) map[string]map[string][]float64 {
		g := map[string]map[string][]float64{}
		for _, r := range rs {
			if r.Trace != 0 {
				continue
			}
			if g[r.Workload] == nil {
				g[r.Workload] = map[string][]float64{}
			}
			for name, v := range r.Metrics {
				g[r.Workload][name] = append(g[r.Workload][name], v.Value)
			}
		}
		return g
	}
	ga, gb := group(a), group(b)
	var out []comparison
	for _, w := range workloads {
		for _, m := range endToEnd {
			xa, xb := ga[w.Name][m.Name], gb[w.Name][m.Name]
			if len(xa) == 0 || len(xb) == 0 {
				continue
			}
			c := comparison{
				Workload: w.Name, Metric: m.Name,
				MedA: median(xa), MedB: median(xb),
				SpreadA: spreadShare(xa), SpreadB: spreadShare(xb),
				Bound: bounds[m.Name],
			}
			if c.MedA != 0 {
				c.Delta = (c.MedB - c.MedA) / c.MedA
				if m.Better == "higher" {
					c.Delta = -c.Delta
				}
			}
			switch {
			case c.Delta > c.Bound:
				c.Verdict = vWorse
			case c.SpreadA > c.Bound || c.SpreadB > c.Bound:
				c.Verdict = vUnresolved
			default:
				c.Verdict = vOK
			}
			out = append(out, c)
		}
	}
	return out
}

// readSet reads a run-set file: one result per line (what -set appends),
// or a single result file as -out writes it.
func readSet(path string) ([]result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []result
	dec := json.NewDecoder(f)
	for {
		var r result
		if err := dec.Decode(&r); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, r)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s: no results", path)
	}
	return out, nil
}

func readBounds(path string) (map[string]float64, error) {
	body, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(body, &bf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	bounds := map[string]float64{}
	for _, m := range bf.EndToEnd {
		bounds[m.Name] = m.Bound
	}
	return bounds, nil
}

// compareMain implements `bench compare <a> <b>`: a table of medians,
// delta, bound and verdict; exit status 1 when any pairing is worse.
func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: bench compare <a.jsonl> <b.jsonl>   (run from the repository root)")
		return 2
	}
	bounds, err := readBounds("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench compare:", err)
		return 2
	}
	var sets [2][]result
	for i, path := range args {
		if sets[i], err = readSet(path); err != nil {
			fmt.Fprintln(os.Stderr, "bench compare:", err)
			return 2
		}
	}
	cs := compareSets(sets[0], sets[1], bounds)
	fmt.Printf("%-17s %-18s %13s %13s %8s %8s %8s %6s  %s\n",
		"workload", "metric", "median a", "median b", "delta", "spread a", "spread b", "bound", "verdict")
	worse := 0
	for _, c := range cs {
		fmt.Printf("%-17s %-18s %13.4f %13.4f %+7.1f%% %7.1f%% %7.1f%% %5.0f%%  %s\n",
			c.Workload, c.Metric, c.MedA, c.MedB, 100*c.Delta, 100*c.SpreadA, 100*c.SpreadB, 100*c.Bound, c.Verdict)
		if c.Verdict == vWorse {
			worse++
		}
	}
	if worse > 0 {
		fmt.Printf("%d pairing(s) worse than the bound\n", worse)
		return 1
	}
	return 0
}
