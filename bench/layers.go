package main

import (
	"fmt"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"origami/internal/client"
	"origami/internal/kvstore"
	"origami/internal/stats"
	"origami/internal/telemetry"
)

// liveSnap is one reading of everything the cluster and the SDK publish
// about themselves; per-layer live metrics are differences of two.
type liveSnap struct {
	mds    []telemetry.Snapshot // Service.Registry(), one per shard
	stores []kvstore.Stats      // Service.StoreStats()
	client telemetry.Snapshot   // Client.Registry(), shared by root and forks
	stats  client.Stats
}

func (e *env) snap() liveSnap {
	s := liveSnap{client: e.root.Registry().Snapshot(), stats: e.root.Stats()}
	for _, svc := range e.cl.Services {
		s.mds = append(s.mds, svc.Registry().Snapshot())
		s.stores = append(s.stores, svc.StoreStats())
	}
	return s
}

// liveDelta answers "how much of X happened between two snaps", summed
// over the shards.
type liveDelta struct{ a, b liveSnap }

func (d liveDelta) mdsCounter(name string) float64 {
	var n int64
	for i := range d.b.mds {
		n += d.b.mds[i].Counters[name] - d.a.mds[i].Counters[name]
	}
	return float64(n)
}

// mdsHist returns the count and the summed value of a histogram's new
// observations, per shard.
func (d liveDelta) mdsHist(name string) (count, sum []float64) {
	for i := range d.b.mds {
		hb, ha := d.b.mds[i].Histograms[name], d.a.mds[i].Histograms[name]
		count = append(count, float64(hb.Count-ha.Count))
		sum = append(sum, float64(hb.Sum-ha.Sum))
	}
	return count, sum
}

// mdsHistNames lists the histograms of any shard whose name starts with
// prefix.
func (d liveDelta) mdsHistNames(prefix string) []string {
	seen := map[string]bool{}
	var names []string
	for i := range d.b.mds {
		for name := range d.b.mds[i].Histograms {
			if strings.HasPrefix(name, prefix) && !seen[name] {
				seen[name] = true
				names = append(names, name)
			}
		}
	}
	return names
}

func (d liveDelta) mdsHistMeanUS(name string) float64 {
	count, sum := d.mdsHist(name)
	c, s := total(count), total(sum)
	if c == 0 {
		return 0
	}
	return s / c / 1e3
}

func (d liveDelta) clientCounter(name string) float64 {
	return float64(d.b.client.Counters[name] - d.a.client.Counters[name])
}

func (d liveDelta) store(get func(kvstore.Stats) int64) float64 {
	var n int64
	for i := range d.b.stores {
		n += get(d.b.stores[i]) - get(d.a.stores[i])
	}
	return float64(n)
}

func total(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// watchInflight polls every shard's commit pipeline while a phase runs
// and returns the largest acknowledged-but-not-durable set it saw.
func (e *env) watchInflight() (stop func() int) {
	quit := make(chan struct{})
	var (
		wg   sync.WaitGroup
		high int
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-quit:
				return
			case <-tick.C:
				for i := range e.cl.Services {
					if p := e.cl.PipelineOf(i); p != nil {
						high = max(high, p.Inflight())
					}
				}
			}
		}
	}()
	return func() int {
		close(quit)
		wg.Wait()
		return high
	}
}

// ringSpans pulls the spans the program recorded from every ring.
func (e *env) ringSpans() []telemetry.Span {
	spans := e.root.Tracer().RecentSpans(0)
	for i := range e.cl.Services {
		spans = append(spans, e.cl.Tracer(i).RecentSpans(0)...)
	}
	return spans
}

// runTraced is the run behind every per_layer metric: a traced cluster
// and an untraced reference take turns for the measured time, with the
// traced cluster's registries and StoreStats read before and after and
// its span rings pulled at the end; then the direct-call probes run once
// on an idle process.
func runTraced(info *workloadInfo, seed int64, seconds float64, base string) (*result, error) {
	telemetry.SetLogLevel(telemetry.LevelError)
	rec := &spanRecorder{}
	vals := map[string]float64{}
	if err := hostProbes(rec, base, vals); err != nil {
		return nil, err
	}

	// Reference: the same workload on a second, untraced cluster, taking
	// turns with the traced one round by round.
	ref, err := setup(info.New(seed), filepath.Join(base, "ref"), nil)
	if err != nil {
		return nil, err
	}
	defer ref.close()
	wl := info.New(seed)
	e, err := setup(wl, filepath.Join(base, "traced"), rec)
	if err != nil {
		return nil, err
	}
	defer e.close()
	before := e.snap()
	stopWatch := e.watchInflight()
	p, err := e.measure(time.Duration(seconds*float64(time.Second)), ref)
	inflightMax := stopWatch()
	if err != nil {
		return nil, err
	}
	d := liveDelta{before, e.snap()}
	spans := e.ringSpans() // before the restart check mints fresh tracers
	var l0, tables int
	for _, st := range d.b.stores {
		for lvl, n := range st.TablesPerLevel {
			if lvl == 0 {
				l0 += n
			}
			tables += n
		}
	}
	bad, lost, checked, recovery, err := e.checkDurable()
	if err != nil {
		return nil, err
	}
	// The probes below time single calls: nothing else may run.
	e.close()
	ref.close()

	ops := float64(p.ops)
	// client
	hits := d.clientCounter("client.cache.hits") + d.clientCounter("client.cache.negative_hits")
	vals["client.cache_hit_share"] = ratio(hits, hits+d.clientCounter("client.cache.misses"))
	vals["client.cache_invalidations_per_kop"] = 1e3 * d.clientCounter("client.cache.invalidations") / ops
	vals["client.retries_per_kop"] = 1e3 * (d.clientCounter("client.op.retries") + d.clientCounter("client.retry.attempts")) / ops
	vals["client.batch_ops_per_frame"] = ratio(float64(d.b.stats.BatchedOps-d.a.stats.BatchedOps),
		float64(d.b.stats.BatchFrames-d.a.stats.BatchFrames))
	vals["client.read_p99_us"] = chunkedPercentile(p.read, 99) / 1e3
	vals["client.write_p99_us"] = chunkedPercentile(p.write, 99) / 1e3
	vals["client.write_p999_us"] = chunkedPercentile(p.write, 99.9) / 1e3

	// rpc + mds, per method
	var served float64
	for _, name := range d.mdsHistNames("rpc.server.") {
		c, _ := d.mdsHist(name)
		served += total(c)
	}
	vals["rpc.server_requests_per_op"] = served / ops
	for _, m := range opMethods {
		vals["rpc.server_mean_us."+m] = d.mdsHistMeanUS("rpc.server." + m + ".latency_ns")
		vals["mds.op_mean_us."+m] = d.mdsHistMeanUS("mds.op." + m + ".latency_ns")
	}
	vals["mds.lease_grants_per_op"] = d.mdsCounter("mds.lease.granted") / ops
	vals["mds.lease_bumps_per_op"] = d.mdsCounter("mds.lease.bumped") / ops
	busy := make([]float64, len(d.b.mds))
	for _, name := range d.mdsHistNames("mds.op.") {
		_, sum := d.mdsHist(name)
		for i := range busy {
			busy[i] += sum[i] / 1e6
		}
	}
	for _, b := range busy {
		vals["mds.busy_ms_max"] = max(vals["mds.busy_ms_max"], b)
		vals["mds.busy_ms_sum"] += b
	}
	_, prep := d.mdsHist("mds.migration.prepare_ns")
	_, comm := d.mdsHist("mds.migration.commit_ns")
	vals["mds.migrate_inodes_per_s"] = ratio(float64(e.epochs.inodes), (total(prep)+total(comm))/1e9)

	// kvstore and commit, live
	writes := d.store(func(s kvstore.Stats) int64 { return s.Puts + s.Deletes })
	syncs := d.store(func(s kvstore.Stats) int64 { return s.WALSyncs })
	vals["kvstore.wal_syncs_per_write"] = ratio(syncs, writes)
	vals["kvstore.gets_per_op"] = d.store(func(s kvstore.Stats) int64 { return s.Gets }) / ops
	vals["kvstore.flushes"] = d.store(func(s kvstore.Stats) int64 { return s.Flushes })
	vals["kvstore.compactions"] = d.store(func(s kvstore.Stats) int64 { return s.Compactions })
	vals["kvstore.bytes_flushed_per_write"] = ratio(d.store(func(s kvstore.Stats) int64 { return s.BytesFlushed }), writes)
	vals["kvstore.bytes_compacted_per_write"] = ratio(d.store(func(s kvstore.Stats) int64 { return s.BytesCompacted }), writes)
	vals["kvstore.tables_l0"] = float64(l0)
	vals["kvstore.tables_total"] = float64(tables)
	vals["kvstore.recover_ms"] = float64(recovery) / 1e6
	vals["commit.records_per_fsync"] = ratio(d.mdsCounter("commit.ops.durable"), syncs)
	vals["commit.inflight_max"] = float64(inflightMax)

	// coordinator
	if n := len(e.epochs.wallMS); n > 0 {
		vals["server.epoch_ms.p50"] = median(e.epochs.wallMS)
		for _, ms := range e.epochs.wallMS {
			vals["server.epoch_ms.max"] = max(vals["server.epoch_ms.max"], ms)
		}
	}
	vals["server.migrations_applied"] = float64(e.epochs.applied)
	vals["server.migrations_rejected"] = float64(e.epochs.reject)
	vals["server.inodes_migrated"] = float64(e.epochs.inodes)
	if wl.numMDS() > 1 {
		vals["server.imbalance"] = stats.ImbalanceFactor(lastQuarterLoads(p.rounds))
	}

	// the span-derived ladder, then the probes it is checked against
	ladder, complete := spanLadder(spans)
	for _, op := range spanOps {
		for _, c := range spanComponents {
			vals["span.self_us."+c+"."+op] = ladder[op][c]
		}
	}
	if err := runProbes(rec, base, wl.config(), vals); err != nil {
		return nil, err
	}
	// SDK self time: what a call costs on average beyond the server's
	// handler and a bare round trip (means on both sides, so the two
	// subtract). Only meaningful where the op goes to the wire; where
	// the lease cache absorbs it the average call is cheaper than one
	// round trip and the difference is clamped to 0.
	for kind, server := range map[opKind]string{kCreate: "create", kStat: "resolve_path", kReaddir: "readdir"} {
		srvUS := vals["rpc.server_mean_us."+server]
		if kind == kCreate && srvUS == 0 {
			srvUS = vals["rpc.server_mean_us.batch"] // batched SDK: creates ride MethodBatch
		}
		self := ratio(float64(p.kindTime[kind]), float64(p.kindOps[kind]))/1e3 - srvUS - vals["rpc.echo_rtt_us"]
		vals["client.self_us."+kind.String()] = max(self, 0)
	}
	vals["telemetry.trace_overhead_pct"] = 100 * (1 - ratio(medianRoundRate(p.phase), medianRoundRate(p.beside)))

	return &result{
		Workload:  info.Name,
		Seed:      seed,
		Seconds:   seconds,
		Correct:   bad == 0 && lost == 0,
		Attempted: p.ops,
		Failed:    p.failed,
		Metrics:   render(perLayer, vals),
		Env:       collectEnv(base),
		Notes: map[string]any{
			"rounds":          len(p.rounds),
			"ref_rounds":      len(p.beside.rounds),
			"measured_wall_s": p.wall.Seconds(),
			"rpc_per_op":      float64(p.frames) / ops,
			"complete_traces": complete,
			"ring_spans":      len(spans),
			"verify_bad":      bad,
			"verify_checked":  checked,
			"lost_acked":      lost,
			"failures":        p.failures,
		},
		Spans: capSpans(rec.all()),
	}, nil
}

func medianRoundRate(p *phase) float64 {
	rates := make([]float64, len(p.rounds))
	for i, r := range p.rounds {
		rates[i] = float64(r.ops) / r.wall.Seconds()
	}
	return median(rates)
}

// maxSpansWritten bounds the result file: the probe and round spans and
// the first op spans are kept, the rest only counted.
const maxSpansWritten = 20000

func capSpans(spans []benchSpan) []benchSpan {
	if len(spans) <= maxSpansWritten {
		return spans
	}
	kept := spans[:maxSpansWritten:maxSpansWritten]
	return append(kept, benchSpan{Name: fmt.Sprintf("bench.truncated.%d_more", len(spans)-maxSpansWritten)})
}
