package main

import (
	"math"
	"sort"
	"time"

	"origami/internal/loadgen"
	"origami/internal/stats"
)

// metricDef is one named metric of the benchmark contract. The lists
// below are the single source of the names: BENCHMARK.json, the result
// files and the compare table all use them verbatim (bench_test.go
// checks BENCHMARK.json against them).
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" | "higher"
}

// endToEnd are the metrics a user of the file system sees, measured with
// tracing off. Every workload reports every one of them (the driver
// contract), which is why each workload carries a thin stream of the op
// class it does not stress (see workloads.go) and why the three
// "must be zero" quantities are reported as shares that are never 0:
// ok_share = 1 - fail_share, acked_kept_share = 1 - lost_acked/acked,
// max_mds_share = busiest shard's share of the last quarter's ops (1 on
// a single shard; the multi-shard imbalance factor is the per-layer
// server.imbalance). The gated tail is p95: on the shared 2-core
// reference host p99 moves by a third between runs of one commit, so
// p99 and p99.9 are reported per layer (client.*_p99_us), unbounded.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"ops_per_s", "1/s", "higher"},
	{"job_s", "s", "lower"},
	{"read_p50_us", "us", "lower"},
	{"read_p95_us", "us", "lower"},
	{"write_p50_us", "us", "lower"},
	{"write_p95_us", "us", "lower"},
	{"ok_share", "share", "higher"},
	{"rpc_per_op", "count", "lower"},
	{"allocs_per_op", "count", "lower"},
	{"cpu_us_per_op", "us", "lower"},
	{"disk_bytes_per_op", "bytes", "lower"},
	{"peak_rss_mb", "MB", "lower"},
	{"max_mds_share", "share", "lower"},
	{"acked_kept_share", "share", "higher"},
}

// opMethods are the server methods whose per-call cost the ladder
// attributes (rpc.server_mean_us.* and mds.op_mean_us.*).
var opMethods = []string{"create", "remove", "resolve_path", "getattr", "readdir", "batch", "rename", "setattr"}

// spanComponents / spanOps name the span-derived cross-check
// (span.self_us.<component>.<op>).
var (
	spanComponents = []string{"client", "rpc", "mds", "kvstore"}
	spanOps        = []string{"create", "stat"}
)

// perLayer lists the single-layer metrics of the traced run, module name
// first. They are measured from outside each layer: live registry and
// StoreStats deltas, spans pulled from the rings, and direct timed calls
// (probes.go).
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	defs := []metricDef{
		// client SDK: live Registry()/Stats() deltas.
		{"client.cache_hit_share", "share", "higher"},
		{"client.cache_invalidations_per_kop", "count", "lower"},
		{"client.retries_per_kop", "count", "lower"},
		{"client.batch_ops_per_frame", "count", "higher"},
		// client SDK self time: mean call - (server mean + echo RTT).
		{"client.self_us.create", "us", "lower"},
		{"client.self_us.stat", "us", "lower"},
		{"client.self_us.readdir", "us", "lower"},
		{"client.read_p99_us", "us", "lower"},
		{"client.write_p99_us", "us", "lower"},
		{"client.write_p999_us", "us", "lower"},
		// rpc: own no-op server, direct Call.
		{"rpc.echo_rtt_us", "us", "lower"},
		{"rpc.echo_rtt_us_4k", "us", "lower"},
		{"rpc.echo_allocs_per_call", "count", "lower"},
		{"rpc.echo_bytes_per_call", "bytes", "lower"},
		{"rpc.batch_codec_ns_per_op", "ns", "lower"},
		{"rpc.server_requests_per_op", "count", "lower"},
	}
	for _, m := range opMethods {
		defs = append(defs, metricDef{"rpc.server_mean_us." + m, "us", "lower"})
	}
	for _, m := range opMethods {
		defs = append(defs, metricDef{"mds.op_mean_us." + m, "us", "lower"})
	}
	defs = append(defs,
		// mds store without the network: direct calls on a scratch store.
		metricDef{"mds.store_us.create_entry", "us", "lower"},
		metricDef{"mds.store_us.remove_entry", "us", "lower"},
		metricDef{"mds.store_us.lookup", "us", "lower"},
		metricDef{"mds.store_us.readdir", "us", "lower"},
		metricDef{"mds.batch1_call_us", "us", "lower"},
		// mds live counters.
		metricDef{"mds.lease_grants_per_op", "count", "lower"},
		metricDef{"mds.lease_bumps_per_op", "count", "lower"},
		metricDef{"mds.busy_ms_max", "ms", "lower"},
		metricDef{"mds.busy_ms_sum", "ms", "lower"},
		metricDef{"mds.migrate_inodes_per_s", "1/s", "higher"},
		// kvstore write path: direct Put/ApplyBatch.
		metricDef{"kvstore.put_us.sync", "us", "lower"},
		metricDef{"kvstore.put_us.nosync", "us", "lower"},
		metricDef{"kvstore.fsync_us", "us", "lower"},
		metricDef{"kvstore.batch64_us", "us", "lower"},
		metricDef{"kvstore.allocs_per_put", "count", "lower"},
		// kvstore read path: direct Get/Scan.
		metricDef{"kvstore.get_us.mem", "us", "lower"},
		metricDef{"kvstore.get_us.sst", "us", "lower"},
		metricDef{"kvstore.scan_us.100", "us", "lower"},
		metricDef{"kvstore.allocs_per_get", "count", "lower"},
		// kvstore live StoreStats deltas.
		metricDef{"kvstore.wal_syncs_per_write", "count", "lower"},
		metricDef{"kvstore.gets_per_op", "count", "lower"},
		metricDef{"kvstore.flushes", "count", "lower"},
		metricDef{"kvstore.compactions", "count", "lower"},
		metricDef{"kvstore.bytes_flushed_per_write", "bytes", "lower"},
		metricDef{"kvstore.bytes_compacted_per_write", "bytes", "lower"},
		metricDef{"kvstore.tables_l0", "count", "lower"},
		metricDef{"kvstore.tables_total", "count", "lower"},
		metricDef{"kvstore.recover_ms", "ms", "lower"},
		// commit pipeline.
		metricDef{"commit.overhead_ns.sync_fsync", "ns", "lower"},
		metricDef{"commit.overhead_ns.async", "ns", "lower"},
		metricDef{"commit.records_per_fsync", "count", "higher"},
		metricDef{"commit.inflight_max", "count", "lower"},
		// lease table and client cache: direct calls.
		metricDef{"lease.cache_lookup_ns.hit", "ns", "lower"},
		metricDef{"lease.cache_lookup_ns.miss", "ns", "lower"},
		metricDef{"lease.cache_put_ns", "ns", "lower"},
		metricDef{"lease.table_grant_ns", "ns", "lower"},
		metricDef{"lease.table_bump_ns", "ns", "lower"},
		// coordinator and model.
		metricDef{"server.epoch_ms.p50", "ms", "lower"},
		metricDef{"server.epoch_ms.max", "ms", "lower"},
		metricDef{"server.migrations_applied", "count", "higher"},
		metricDef{"server.migrations_rejected", "count", "lower"},
		metricDef{"server.inodes_migrated", "count", "lower"},
		metricDef{"server.imbalance", "share", "lower"},
		metricDef{"ml.train_ms", "ms", "lower"},
		metricDef{"ml.predict_ns", "ns", "lower"},
	)
	for _, op := range spanOps {
		for _, c := range spanComponents {
			defs = append(defs, metricDef{"span.self_us." + c + "." + op, "us", "lower"})
		}
	}
	defs = append(defs,
		metricDef{"telemetry.trace_overhead_pct", "%", "lower"},
		metricDef{"host.fsync_us", "us", "lower"},
		metricDef{"host.spin_mops", "1/us", "higher"},
	)
	return defs
}

// metricValue is one reported number, in the shape the driver reads.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// render pairs measured values with their declared units. A metric the
// run did not produce is reported as 0 — only per-layer metrics may be
// (a layer a workload never enters did no work there).
func render(defs []metricDef, vals map[string]float64) map[string]metricValue {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		out[d.Name] = metricValue{Value: vals[d.Name], Unit: d.Unit}
	}
	return out
}

// median of xs (0 when empty); xs is not modified.
func median(xs []float64) float64 { return stats.Percentile(xs, 50) }

// quartiles returns Q1 and Q3 the way Python's
// statistics.quantiles(xs, n=4) does (exclusive method), which is what
// the acceptance spread is defined on. It needs at least two values.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	at := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4 // 1-based rank
		lo := int(math.Floor(pos))
		frac := pos - float64(lo)
		if lo < 1 {
			return s[0]
		}
		if lo >= n {
			return s[n-1]
		}
		return s[lo-1] + frac*(s[lo]-s[lo-1])
	}
	return at(1), at(3)
}

// spreadShare is the run-to-run spread of xs as a share of their median:
// the interquartile distance with four or more values, the full range
// with fewer.
func spreadShare(xs []float64) float64 {
	m := median(xs)
	if len(xs) < 2 || m == 0 {
		return 0
	}
	if len(xs) < 4 {
		s := append([]float64(nil), xs...)
		sort.Float64s(s)
		return (s[len(s)-1] - s[0]) / math.Abs(m)
	}
	q1, q3 := quartiles(xs)
	return (q3 - q1) / math.Abs(m)
}

// tailPercentiles are the candidates of highestPercentile, highest first.
var tailPercentiles = []float64{99.99, 99.9, 99, 95, 90, 75, 50}

// highestPercentile picks the highest percentile of n samples that still
// has at least ten samples beyond it — past that a "percentile" is one
// or two outliers. With fewer than 20 samples only the median is left.
func highestPercentile(n int) float64 {
	for _, p := range tailPercentiles {
		if float64(n)*(100-p)/100 >= 10-1e-9 {
			return p
		}
	}
	return 50
}

// chunkedPercentile estimates the pth percentile of a latency stream as
// the median over consecutive chunks of the per-chunk percentile. A
// chunk is as small as still leaves ten samples beyond p, so one stall
// (a flush, a noisy neighbour) moves one chunk's value, not the metric.
// samples is in arrival order and is left untouched; the result is in ns.
// Each chunk's percentile is loadgen's nearest-rank one.
func chunkedPercentile(samples []time.Duration, p float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	size := int(math.Ceil(10 / (1 - p/100)))
	if size < 200 {
		size = 200
	}
	chunks := len(samples) / size
	if chunks < 1 {
		chunks = 1
	}
	size = len(samples) / chunks
	vals := make([]float64, 0, chunks)
	buf := make([]time.Duration, 0, size+chunks)
	for c := 0; c < chunks; c++ {
		lo, hi := c*size, (c+1)*size
		if c == chunks-1 {
			hi = len(samples)
		}
		buf = append(buf[:0], samples[lo:hi]...)
		sort.Slice(buf, func(i, j int) bool { return buf[i] < buf[j] })
		vals = append(vals, float64(loadgen.Percentile(buf, p)))
	}
	return median(vals)
}
