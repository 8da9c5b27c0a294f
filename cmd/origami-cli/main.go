// Command origami-cli is an interactive shell (and one-shot runner) for a
// running OrigamiFS cluster:
//
//	origami-cli -mds 127.0.0.1:7201,127.0.0.1:7202 mkdir /a
//	origami-cli -mds 127.0.0.1:7201,127.0.0.1:7202        # interactive
//
// Commands: mkdir, create (touch), stat, ls, rm, mv, setattr, metrics,
// help, quit.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"

	"origami/internal/client"
	"origami/internal/telemetry"
)

func main() {
	var (
		mdsList   = flag.String("mds", "127.0.0.1:7201", "comma-separated MDS addresses in id order")
		cacheMode = flag.String("cache", "leases", "client metadata cache mode: leases or off")
	)
	flag.Parse()
	sdk, err := client.Dial(client.Config{
		Addrs: strings.Split(*mdsList, ","),
		Cache: *cacheMode,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "connect: %v\n", err)
		os.Exit(1)
	}
	defer sdk.Close()
	if err := sdk.RefreshMap(); err != nil {
		fmt.Fprintf(os.Stderr, "warning: fetch partition map: %v\n", err)
	}
	if args := flag.Args(); len(args) > 0 {
		if err := runCommand(sdk, args); err != nil {
			fmt.Fprintf(os.Stderr, "%v\n", err)
			os.Exit(1)
		}
		return
	}
	sc := bufio.NewScanner(os.Stdin)
	fmt.Print("origami> ")
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) > 0 {
			if fields[0] == "quit" || fields[0] == "exit" {
				return
			}
			if err := runCommand(sdk, fields); err != nil {
				fmt.Fprintf(os.Stderr, "%v\n", err)
			}
		}
		fmt.Print("origami> ")
	}
}

func runCommand(sdk *client.Client, args []string) error {
	cmd := args[0]
	need := func(n int) error {
		if len(args) < n+1 {
			return fmt.Errorf("%s: need %d argument(s)", cmd, n)
		}
		return nil
	}
	switch cmd {
	case "help":
		fmt.Println("commands: mkdir <p> | create <p> | stat <p> | ls <p> | rm <p> | mv <src> <dst> | setattr <p> <size> | metrics [mds|all] | trace <id|last> | top | epoch | model | leases | quit")
		return nil
	case "mkdir":
		if err := need(1); err != nil {
			return err
		}
		in, err := sdk.Mkdir(args[1])
		if err != nil {
			return err
		}
		fmt.Printf("mkdir %s -> ino %d\n", args[1], in.Ino)
		return nil
	case "create", "touch":
		if err := need(1); err != nil {
			return err
		}
		in, err := sdk.Create(args[1])
		if err != nil {
			return err
		}
		fmt.Printf("create %s -> ino %d\n", args[1], in.Ino)
		return nil
	case "stat":
		if err := need(1); err != nil {
			return err
		}
		in, err := sdk.Stat(args[1])
		if err != nil {
			return err
		}
		fmt.Printf("%s: ino=%d type=%s mode=%o size=%d nlink=%d\n",
			args[1], in.Ino, in.Type, in.Mode, in.Size, in.Nlink)
		return nil
	case "ls":
		if err := need(1); err != nil {
			return err
		}
		ents, err := sdk.Readdir(args[1])
		if err != nil {
			return err
		}
		for _, in := range ents {
			fmt.Printf("%-6s %10d  %s\n", in.Type, in.Size, in.Name)
		}
		return nil
	case "rm":
		if err := need(1); err != nil {
			return err
		}
		return sdk.Remove(args[1])
	case "mv":
		if err := need(2); err != nil {
			return err
		}
		return sdk.Rename(args[1], args[2])
	case "setattr":
		if err := need(2); err != nil {
			return err
		}
		size, err := strconv.ParseInt(args[2], 10, 64)
		if err != nil {
			return fmt.Errorf("setattr: bad size %q", args[2])
		}
		_, err = sdk.Setattr(args[1], size, 0o644)
		return err
	case "metrics":
		// "metrics" shows the client-side view; "metrics all" or
		// "metrics <id>" additionally pulls per-MDS registries over the
		// MethodMetrics RPC.
		if len(args) < 2 {
			printClientMetrics(sdk)
			return nil
		}
		if args[1] == "all" {
			printClientMetrics(sdk)
			for i := 0; i < sdk.NumMDS(); i++ {
				printMDSMetrics(sdk, i)
			}
			return nil
		}
		id, err := strconv.Atoi(args[1])
		if err != nil {
			return fmt.Errorf("metrics: bad MDS id %q", args[1])
		}
		printMDSMetrics(sdk, id)
		return nil
	case "trace":
		// Assemble one distributed trace: spans are gathered from the
		// local SDK tracer and every MDS's span store, stitched into a
		// tree, and rendered with per-span latency and origin node.
		// "trace last" shows the CLI's own most recent operation.
		if err := need(1); err != nil {
			return err
		}
		var traceID uint64
		if args[1] == "last" {
			traceID = sdk.LastTraceID()
			if traceID == 0 {
				return fmt.Errorf("trace: no operation ran yet")
			}
		} else {
			id, err := strconv.ParseUint(strings.TrimPrefix(args[1], "0x"), 16, 64)
			if err != nil {
				return fmt.Errorf("trace: bad trace id %q (hex expected)", args[1])
			}
			traceID = id
		}
		spans, err := sdk.GatherTrace(traceID)
		if err != nil {
			return fmt.Errorf("trace: %w", err)
		}
		if len(spans) == 0 {
			return fmt.Errorf("trace %s: no spans found (sampled out, expired, or unknown)", telemetry.FormatTraceID(traceID))
		}
		roots := telemetry.AssembleTrace(spans)
		fmt.Printf("trace %s: %d span(s), components: %s\n",
			telemetry.FormatTraceID(traceID), len(spans),
			strings.Join(telemetry.Components(roots), ", "))
		telemetry.RenderTraceTree(os.Stdout, roots)
		return nil
	case "top":
		// Cluster-wide overview from the coordinator's merged snapshot.
		body, err := sdk.FetchClusterMetrics()
		if err != nil {
			return fmt.Errorf("top: %w", err)
		}
		return printTop(body)
	case "epoch":
		// Ask the coordinator (beside MDS 0) for one balancing round.
		body, err := sdk.TriggerEpoch()
		if err != nil {
			return fmt.Errorf("epoch: %w", err)
		}
		printJSON(body)
		return nil
	case "model":
		// The coordinator's learning-loop status: model version, dataset
		// size, retrain counters — or the frozen strategy in use.
		body, err := sdk.ModelInfo()
		if err != nil {
			return fmt.Errorf("model: %w", err)
		}
		printJSON(body)
		return nil
	case "leases":
		// The lease plane: per-MDS grant/bump/expiry counters and live
		// table size from the coordinator scrape, plus the local SDK
		// cache's hit/invalidation counters.
		body, err := sdk.FetchClusterMetrics()
		if err != nil {
			return fmt.Errorf("leases: %w", err)
		}
		var snap struct {
			Nodes map[string]telemetry.Snapshot `json:"nodes"`
		}
		if err := json.Unmarshal(body, &snap); err != nil {
			return fmt.Errorf("leases: bad snapshot payload: %w", err)
		}
		fmt.Printf("%-8s %10s %10s %10s %10s\n", "NODE", "ACTIVE", "GRANTED", "BUMPED", "EXPIRED")
		names := make([]string, 0, len(snap.Nodes))
		for name := range snap.Nodes {
			var id int
			if _, err := fmt.Sscanf(name, "mds%d", &id); err == nil && name == fmt.Sprintf("mds%d", id) {
				names = append(names, name)
			}
		}
		sort.Strings(names)
		for _, name := range names {
			s := snap.Nodes[name]
			fmt.Printf("%-8s %10.0f %10d %10d %10d\n", name,
				s.Gauges["lease.table.active"],
				s.Counters["mds.lease.granted"],
				s.Counters["mds.lease.bumped"],
				s.Counters["mds.lease.expired"])
		}
		reg := sdk.Registry().Snapshot()
		fmt.Printf("client cache: hits=%d negative_hits=%d misses=%d invalidations=%d entries=%.0f\n",
			reg.Counters["client.cache.hits"],
			reg.Counters["client.cache.negative_hits"],
			reg.Counters["client.cache.misses"],
			reg.Counters["client.cache.invalidations"],
			reg.Gauges["cache.entries.active"])
		return nil
	default:
		return fmt.Errorf("unknown command %q (try help)", cmd)
	}
}

// printJSON pretty-prints a JSON RPC response as sorted key = value
// lines (falling back to the raw payload if it does not parse).
func printJSON(body []byte) {
	var doc map[string]interface{}
	if err := json.Unmarshal(body, &doc); err != nil {
		fmt.Println(string(body))
		return
	}
	keys := make([]string, 0, len(doc))
	for k := range doc {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		v, err := json.Marshal(doc[k])
		if err != nil {
			continue
		}
		fmt.Printf("%s = %s\n", k, v)
	}
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

func printClientMetrics(sdk *client.Client) {
	st := sdk.Stats()
	fmt.Printf("client: ops=%d rpcs=%d (%.3f rpc/op) retries=%d exhausted=%d\n",
		st.Ops, st.RPCs,
		float64(st.RPCs)/float64(max64(1, st.Ops)),
		st.Retries, st.RetriesExhausted)
	printSnapshot("  ", sdk.Registry().Snapshot())
}

func printMDSMetrics(sdk *client.Client, id int) {
	body, err := sdk.FetchMetrics(id)
	if err != nil {
		fmt.Printf("mds %d: DOWN (%v)\n", id, err)
		return
	}
	var snap telemetry.Snapshot
	if err := json.Unmarshal(body, &snap); err != nil {
		fmt.Printf("mds %d: bad metrics payload: %v\n", id, err)
		return
	}
	fmt.Printf("mds %d: up%s\n", id, buildInfoLine(sdk, id))
	printSnapshot("  ", snap)
}

// buildInfoLine summarises one MDS's MethodBuildInfo document for the
// metrics header ("" when the RPC fails — metrics stay readable against
// older servers).
func buildInfoLine(sdk *client.Client, id int) string {
	body, err := sdk.FetchBuildInfo(id)
	if err != nil {
		return ""
	}
	var bi telemetry.BuildInfo
	if err := json.Unmarshal(body, &bi); err != nil {
		return ""
	}
	s := fmt.Sprintf("  v%s %s uptime=%.0fs", bi.Version, bi.GoVersion, bi.UptimeSeconds)
	if len(bi.Features) > 0 {
		s += " features=" + strings.Join(bi.Features, ",")
	}
	return s
}

// printTop renders the coordinator's merged cluster snapshot as one row
// per node: operation volume, errors, inode count, the slowest p95 among
// the node's latency histograms, and the kvstore read path's efficiency
// (SSTables probed per get, share of probes the bloom filter answered).
func printTop(body []byte) error {
	var snap struct {
		MapVersion uint64                        `json:"map_version"`
		Live       []int                         `json:"live"`
		Down       []int                         `json:"down"`
		Nodes      map[string]telemetry.Snapshot `json:"nodes"`
	}
	if err := json.Unmarshal(body, &snap); err != nil {
		return fmt.Errorf("top: bad snapshot payload: %w", err)
	}
	fmt.Printf("cluster: map_version=%d live=%v", snap.MapVersion, snap.Live)
	if len(snap.Down) > 0 {
		fmt.Printf(" down=%v", snap.Down)
	}
	fmt.Println()
	names := make([]string, 0, len(snap.Nodes))
	for name := range snap.Nodes {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Printf("%-20s %10s %8s %8s %10s %10s %7s\n", "NODE", "CALLS", "ERRORS", "INODES", "P95(ms)", "PROBES/GET", "BLOOM%")
	for _, name := range names {
		s := snap.Nodes[name]
		var calls, errs int64
		for cname, v := range s.Counters {
			// Server-side per-method counters end ".requests", client-side
			// ones ".calls"; both mean "operations handled".
			if strings.HasSuffix(cname, ".requests") || strings.HasSuffix(cname, ".calls") {
				calls += v
			}
			if strings.HasSuffix(cname, ".errors") {
				errs += v
			}
		}
		var p95 int64
		for hname, h := range s.Histograms {
			if strings.HasSuffix(hname, ".latency_ns") && h.P95 > p95 {
				p95 = h.P95
			}
		}
		// 0/0 on nodes without a store (coordinator, replication) prints 0.
		ratio := func(num, den string) float64 {
			if s.Gauges[den] == 0 {
				return 0
			}
			return s.Gauges[num] / s.Gauges[den]
		}
		fmt.Printf("%-20s %10d %8d %8.0f %10.3f %10.2f %7.1f\n",
			name, calls, errs, s.Gauges["mds.store.inodes"], float64(p95)/1e6,
			ratio("kvstore.table.probes", "kvstore.get.calls"),
			100*ratio("kvstore.bloom.skips", "kvstore.table.probes"))
	}
	return nil
}

// printSnapshot renders a registry snapshot: counters and gauges one per
// line, histograms as count plus percentile milliseconds.
func printSnapshot(indent string, snap telemetry.Snapshot) {
	names := make([]string, 0, len(snap.Counters))
	for name := range snap.Counters {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Printf("%s%s = %d\n", indent, name, snap.Counters[name])
	}
	names = names[:0]
	for name := range snap.Gauges {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Printf("%s%s = %g\n", indent, name, snap.Gauges[name])
	}
	names = names[:0]
	for name := range snap.Histograms {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		h := snap.Histograms[name]
		fmt.Printf("%s%s: n=%d p50=%.3fms p95=%.3fms p99=%.3fms max=%.3fms\n",
			indent, name, h.Count,
			float64(h.P50)/1e6, float64(h.P95)/1e6, float64(h.P99)/1e6, float64(h.Max)/1e6)
	}
}
