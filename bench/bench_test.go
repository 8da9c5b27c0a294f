package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"regexp"
	"testing"
	"time"

	"origami/internal/costmodel"
	"origami/internal/telemetry"
	"origami/internal/trace"
	tracegen "origami/internal/workload"
)

func smallTrace(seed int64) [][][]trace.Op {
	cfg := tracegen.DefaultRW()
	cfg.Seed, cfg.NumOps, cfg.Modules, cfg.Files = seed, 3000, 6, 8
	return dealUnits(tracegen.TraceRW(cfg).Ops, numWorkers)
}

func TestDealUnitsKeepsOrderAndIsSeeded(t *testing.T) {
	a, b := smallTrace(5), smallTrace(5)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("equal seeds dealt different units")
	}
	if reflect.DeepEqual(a, smallTrace(6)) {
		t.Fatal("different seeds dealt identical units")
	}
	if len(a) != numWorkers || len(a[0]) == 0 || len(a[0])-len(a[1]) > 1 || len(a[0]) < len(a[1]) {
		t.Fatalf("uneven deal: %d and %d units", len(a[0]), len(a[1]))
	}
	for w := range a {
		for u, unit := range a[w] {
			// A whole unit in generation order: lsdir first, then the
			// object file created, written and renamed into place.
			if unit[0].Type != costmodel.OpLsdir {
				t.Fatalf("worker %d unit %d starts with %v", w, u, unit[0].Type)
			}
			var tail []costmodel.OpType
			for _, o := range unit[len(unit)-4:] {
				tail = append(tail, o.Type)
			}
			want := []costmodel.OpType{costmodel.OpCreate, costmodel.OpSetattr, costmodel.OpRename, costmodel.OpStat}
			if !reflect.DeepEqual(tail, want) {
				t.Fatalf("worker %d unit %d ends with %v", w, u, tail)
			}
			if unit[len(unit)-2].Dst != unit[len(unit)-1].Path {
				t.Fatalf("worker %d unit %d: stat does not follow its rename", w, u)
			}
		}
	}
}

func TestHighestPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{5, 50}, {19, 50}, {20, 50}, {40, 75}, {100, 90}, {200, 95}, {999, 95}, {1000, 99}, {10000, 99.9}, {100000, 99.99}} {
		if got := highestPercentile(c.n); got != c.want {
			t.Errorf("highestPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
		if p := highestPercentile(c.n); p > 50 && float64(c.n)*(100-p)/100 < 10-1e-9 {
			t.Errorf("n=%d: p%v has fewer than ten samples beyond it", c.n, p)
		}
	}
}

func TestChunkedPercentileIgnoresOneStall(t *testing.T) {
	samples := make([]time.Duration, 10000)
	for i := range samples {
		samples[i] = 100 + time.Duration(i%7)
	}
	clean := chunkedPercentile(samples, 99)
	for i := 3000; i < 3300; i++ { // one stall: 3% of the run is 50x slower
		samples[i] = 5000
	}
	if got := chunkedPercentile(samples, 99); got != clean {
		t.Fatalf("p99 moved from %v to %v on a single stall", clean, got)
	}
	if got := chunkedPercentile(nil, 99); got != 0 {
		t.Fatalf("empty stream: %v", got)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1,2,4,7,11,16,22,29,37,46], n=4) == [3.5, 13.5, 31.0]
	q1, q3 := quartiles([]float64{46, 1, 2, 4, 7, 11, 16, 22, 29, 37})
	if q1 != 3.5 || q3 != 31 {
		t.Fatalf("quartiles = %v, %v", q1, q3)
	}
	if s := spreadShare([]float64{46, 1, 2, 4, 7, 11, 16, 22, 29, 37}); math.Abs(s-27.5/13.5) > 1e-12 {
		t.Fatalf("spreadShare = %v", s)
	}
}

func TestSelfTimeOnSyntheticTree(t *testing.T) {
	span := func(id, parent uint64, name string, start, dur int64) telemetry.Span {
		return telemetry.Span{TraceID: 1, SpanID: id, ParentID: parent, Name: name, StartUnixNano: start, DurationNS: dur}
	}
	// client 0..1000 > rpc 100..900 > mds 200..800 > two overlapping
	// kvstore spans 300..500 and 400..700 (covering 300..700 together).
	spans := []telemetry.Span{
		span(1, 0, "client.op.create", 0, 1000),
		span(2, 1, "rpc.server.create", 100, 800),
		span(3, 2, "mds.op.create", 200, 600),
		span(4, 3, "kvstore.commit", 300, 200),
		span(5, 3, "kvstore.commit", 400, 300),
	}
	got := map[string]int64{}
	selfTimes(telemetry.AssembleTrace(spans), func(n *telemetry.TraceNode, self int64) {
		got[n.Name] += self
	})
	want := map[string]int64{"client.op.create": 200, "rpc.server.create": 200, "mds.op.create": 200, "kvstore.commit": 500}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("self times %v, want %v", got, want)
	}
	hit := span(9, 0, "client.op.stat", 0, 5) // a cache hit: no children, not a complete trace
	hit.TraceID = 2
	ladder, complete := spanLadder(append(spans, hit))
	if complete != 1 || ladder["create"]["mds"] != 0.2 || ladder["create"]["kvstore"] != 0.5 || ladder["stat"] != nil {
		t.Fatalf("ladder %v over %d complete traces", ladder, complete)
	}
}

func TestCompareVerdicts(t *testing.T) {
	set := func(opsPerS ...float64) []result {
		var rs []result
		for _, v := range opsPerS {
			rs = append(rs, result{Workload: "stat-cold", Metrics: map[string]metricValue{
				"ops_per_s": {Value: v}, "job_s": {Value: 1 / v}}})
		}
		return rs
	}
	bounds := map[string]float64{"ops_per_s": 0.1, "job_s": 0.1}
	verdictOf := func(a, b []result, metric string) verdict {
		for _, c := range compareSets(a, b, bounds) {
			if c.Metric == metric {
				return c.Verdict
			}
		}
		return ""
	}
	base := set(100, 101, 99, 100)
	if v := verdictOf(base, set(95, 96, 94, 95), "ops_per_s"); v != vOK {
		t.Errorf("5%% slower under a 10%% bound: %s", v)
	}
	if v := verdictOf(base, set(80, 81, 79, 80), "ops_per_s"); v != vWorse {
		t.Errorf("20%% slower under a 10%% bound: %s", v)
	}
	if v := verdictOf(base, set(80, 81, 79, 80), "job_s"); v != vWorse {
		t.Errorf("lower-is-better twin: %s", v)
	}
	if v := verdictOf(base, set(130, 131, 129, 130), "ops_per_s"); v != vOK {
		t.Errorf("a gain is not worse: %s", v)
	}
	if v := verdictOf(base, set(70, 130, 100, 101), "ops_per_s"); v != vUnresolved {
		t.Errorf("a spread wider than the bound: %s", v)
	}
}

// TestNamesMatchBenchmarkJSON: every name is well formed and the sets the
// code emits are exactly the sets BENCHMARK.json declares.
func TestNamesMatchBenchmarkJSON(t *testing.T) {
	body, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf struct {
		Workloads []struct{ Name, Why string } `json:"workloads"`
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(body, &bf); err != nil {
		t.Fatal(err)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	var gotW, wantW [][2]string
	for _, w := range bf.Workloads {
		gotW = append(gotW, [2]string{w.Name, w.Why})
	}
	for _, w := range workloads {
		wantW = append(wantW, [2]string{w.Name, w.Why})
		if !nameRE.MatchString(w.Name) || len(w.Why) > 200 {
			t.Errorf("workload %q: bad name or why longer than 200", w.Name)
		}
	}
	if !reflect.DeepEqual(gotW, wantW) {
		t.Errorf("workloads differ:\n json %v\n code %v", gotW, wantW)
	}
	var gotE, gotL []metricDef
	for _, m := range bf.EndToEnd {
		gotE = append(gotE, metricDef{m.Name, m.Unit, m.Better})
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	for _, m := range bf.PerLayer {
		gotL = append(gotL, metricDef{m.Name, m.Unit, m.Better})
	}
	if !reflect.DeepEqual(gotE, endToEnd) {
		t.Errorf("end_to_end differs:\n json %v\n code %v", gotE, endToEnd)
	}
	if !reflect.DeepEqual(gotL, perLayer) {
		t.Errorf("per_layer differs:\n json %v\n code %v", gotL, perLayer)
	}
	seen := map[string]bool{}
	for _, m := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		if !nameRE.MatchString(m.Name) || !unitRE.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("malformed metric %+v", m)
		}
		if seen[m.Name] {
			t.Errorf("metric %s listed twice", m.Name)
		}
		seen[m.Name] = true
	}
	if len(endToEnd) > 16 || len(perLayer) > 128 {
		t.Errorf("%d end-to-end and %d per-layer metrics exceed the contract", len(endToEnd), len(perLayer))
	}
}
