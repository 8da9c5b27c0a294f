package telemetry

// Observability-plane edge tests: Prometheus exposition validity,
// histogram bucket boundaries at powers of two, span-ring wraparound,
// slow-op tail capture, and snapshot-vs-record races. The ObsSmoke tests
// are part of `make obs-smoke`.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// parsePrometheus is a strict line parser for the 0.0.4 text exposition:
// it fails on malformed names/labels/values, on samples whose family has
// no preceding TYPE line, on duplicate TYPE lines, and on histogram
// series whose cumulative buckets decrease or whose +Inf bucket
// disagrees with _count. It returns sample values keyed by the full
// series line prefix (name + labels).
func parsePrometheus(t *testing.T, text string) map[string]float64 {
	t.Helper()
	sampleRe := regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^{}]*\})? (-?[0-9.eE+]+)$`)
	typeRe := regexp.MustCompile(`^# TYPE ([a-zA-Z_:][a-zA-Z0-9_:]*) (counter|gauge|histogram|summary|untyped)$`)
	typed := map[string]string{}
	samples := map[string]float64{}
	lastBucket := map[string]float64{} // cumulative-bucket monotonicity per series
	family := func(name string) string {
		for _, suf := range []string{"_bucket", "_sum", "_count"} {
			if f := strings.TrimSuffix(name, suf); f != name && typed[f] == "histogram" {
				return f
			}
		}
		return name
	}
	for i, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		if line == "" {
			t.Fatalf("line %d: empty line in exposition", i+1)
		}
		if strings.HasPrefix(line, "#") {
			m := typeRe.FindStringSubmatch(line)
			if m == nil {
				t.Fatalf("line %d: bad comment line %q", i+1, line)
			}
			if _, dup := typed[m[1]]; dup {
				t.Fatalf("line %d: duplicate TYPE for %s", i+1, m[1])
			}
			typed[m[1]] = m[2]
			continue
		}
		m := sampleRe.FindStringSubmatch(line)
		if m == nil {
			t.Fatalf("line %d: bad sample line %q", i+1, line)
		}
		name, labels := m[1], m[2]
		if _, ok := typed[family(name)]; !ok {
			t.Fatalf("line %d: sample %s before its TYPE line", i+1, name)
		}
		v, err := strconv.ParseFloat(m[3], 64)
		if err != nil {
			t.Fatalf("line %d: bad value %q: %v", i+1, m[3], err)
		}
		key := name + labels
		if _, dup := samples[key]; dup {
			t.Fatalf("line %d: duplicate series %s", i+1, key)
		}
		samples[key] = v
		if strings.HasSuffix(family(name)+"_bucket", name) && strings.Contains(labels, "le=") {
			series := name + labels[:strings.Index(labels, "le=")]
			if v < lastBucket[series] {
				t.Fatalf("line %d: histogram bucket decreased: %s %v < %v", i+1, key, v, lastBucket[series])
			}
			lastBucket[series] = v
		}
	}
	// Every histogram's +Inf bucket must equal its _count.
	for fam, kind := range typed {
		if kind != "histogram" {
			continue
		}
		for key, v := range samples {
			if !strings.HasPrefix(key, fam+"_bucket{") || !strings.Contains(key, `le="+Inf"`) {
				continue
			}
			reg := key[strings.Index(key, `registry="`):]
			reg = reg[:strings.Index(reg, `,`)]
			countKey := fmt.Sprintf("%s_count{%s}", fam, reg)
			if c, ok := samples[countKey]; !ok || c != v {
				t.Fatalf("histogram %s: +Inf bucket %v != _count %v", key, v, samples[countKey])
			}
		}
	}
	return samples
}

func TestObsSmokePrometheusExposition(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("mds.op.create.calls").Add(7)
	reg.Gauge("mds.store.inodes").Set(42)
	h := reg.Histogram("mds.op.create.latency_ns")
	for _, v := range []int64{1, 2, 900, 70_000, 3_000_000} {
		h.Record(v)
	}
	reg2 := NewRegistry()
	reg2.Counter("mds.op.create.calls").Add(3) // same family, second registry

	var buf bytes.Buffer
	WritePrometheus(&buf, map[string]Snapshot{"mds0": reg.Snapshot(), "mds1": reg2.Snapshot()})
	samples := parsePrometheus(t, buf.String())

	if v := samples[`origami_mds_op_create_calls{registry="mds0"}`]; v != 7 {
		t.Errorf("mds0 counter = %v, want 7", v)
	}
	if v := samples[`origami_mds_op_create_calls{registry="mds1"}`]; v != 3 {
		t.Errorf("mds1 counter = %v, want 3", v)
	}
	if v := samples[`origami_mds_store_inodes{registry="mds0"}`]; v != 42 {
		t.Errorf("gauge = %v, want 42", v)
	}
	if v := samples[`origami_mds_op_create_latency_ns_count{registry="mds0"}`]; v != 5 {
		t.Errorf("histogram count = %v, want 5", v)
	}
	if v := samples[`origami_mds_op_create_latency_ns_bucket{registry="mds0",le="+Inf"}`]; v != 5 {
		t.Errorf("+Inf bucket = %v, want 5", v)
	}
}

// TestObsSmokeHistogramBucketBounds pins the log2 bucket boundaries:
// value v lands in the bucket whose upper bound is the next 2^k-1 at or
// above v, so powers of two cross into fresh buckets while 2^k-1 stays.
func TestObsSmokeHistogramBucketBounds(t *testing.T) {
	cases := []struct{ v, le int64 }{
		{0, 0},
		{1, 1},
		{2, 3},
		{3, 3},
		{4, 7},
		{8, 15},
		{15, 15},
		{16, 31},
		{1 << 20, 1<<21 - 1},
	}
	for _, c := range cases {
		reg := NewRegistry()
		reg.Histogram("telemetry.test.latency_ns").Record(c.v)
		snap := reg.Snapshot()
		h := snap.Histograms["telemetry.test.latency_ns"]
		var got []Bucket
		for _, b := range h.Buckets {
			if b.N > 0 {
				got = append(got, b)
			}
		}
		if len(got) != 1 || got[0].Le != c.le || got[0].N != 1 {
			t.Errorf("Record(%d): non-empty buckets = %+v, want one bucket le=%d n=1", c.v, got, c.le)
		}
	}
}

// TestObsSmokeRegistrySnapshotRace exercises concurrent recording vs
// snapshotting; the race detector (make test-race) is the real assertion.
func TestObsSmokeRegistrySnapshotRace(t *testing.T) {
	reg := NewRegistry()
	const workers, iters = 4, 2000
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := reg.Counter("telemetry.race.calls")
			g := reg.Gauge("telemetry.race.depth")
			h := reg.Histogram("telemetry.race.latency_ns")
			for n := 0; n < iters; n++ {
				c.Inc()
				g.Set(float64(n))
				h.Record(int64(n))
			}
		}()
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	for {
		snap := reg.Snapshot()
		if snap.Counters["telemetry.race.calls"] < 0 {
			t.Fatal("negative counter")
		}
		select {
		case <-done:
			final := reg.Snapshot()
			if got := final.Counters["telemetry.race.calls"]; got != workers*iters {
				t.Errorf("counter = %d, want %d", got, workers*iters)
			}
			if h := final.Histograms["telemetry.race.latency_ns"]; h.Count != workers*iters {
				t.Errorf("histogram count = %d, want %d", h.Count, workers*iters)
			}
			return
		default:
		}
	}
}

// TestObsSmokeSpanRingWraparound fills a capacity-8 span store with 20
// spans and asserts only the newest 8 survive, oldest first.
func TestObsSmokeSpanRingWraparound(t *testing.T) {
	tr := NewTracer("node", TracerConfig{Capacity: 8})
	for i := 1; i <= 20; i++ {
		tr.Record(Span{TraceID: 1, SpanID: uint64(i), Name: "telemetry.test.op", StartUnixNano: int64(i)})
	}
	got := tr.RecentSpans(0)
	if len(got) != 8 {
		t.Fatalf("retained %d spans, want 8", len(got))
	}
	for i, s := range got {
		if want := uint64(13 + i); s.SpanID != want {
			t.Errorf("slot %d: span %d, want %d (oldest-first after wrap)", i, s.SpanID, want)
		}
	}
	if all := tr.TraceSpans(1); len(all) != 8 {
		t.Errorf("TraceSpans after wrap = %d, want 8", len(all))
	}
}

// TestObsSmokeSlowOpTailCapture: with sampling fully off, a span beyond
// the slow threshold is still retained and logged as a slow op, while a
// sampled-out fast span vanishes.
func TestObsSmokeSlowOpTailCapture(t *testing.T) {
	tr := NewTracer("node", TracerConfig{SampleRate: -1, SlowThreshold: time.Nanosecond})
	sc := SpanContext{TraceID: 99}
	span := tr.StartSpanFrom(sc, "mds.op.create")
	time.Sleep(time.Millisecond)
	span.Finish(nil)

	if got := tr.TraceSpans(99); len(got) != 1 {
		t.Fatalf("slow span retained = %d, want 1 despite SampleRate -1", len(got))
	}
	slow := tr.SlowOps()
	if len(slow) != 1 || slow[0].TraceID != 99 || slow[0].Name != "mds.op.create" {
		t.Fatalf("slow-op log = %+v, want one mds.op.create entry", slow)
	}

	// Same tracer config but slow capture disabled: the span is dropped.
	tr2 := NewTracer("node", TracerConfig{SampleRate: -1, SlowThreshold: -1})
	span2 := tr2.StartSpanFrom(sc, "mds.op.create")
	span2.Finish(nil)
	if got := tr2.TraceSpans(99); len(got) != 0 {
		t.Errorf("sampled-out span retained: %+v", got)
	}
	if got := tr2.SlowOps(); len(got) != 0 {
		t.Errorf("slow log populated with capture disabled: %+v", got)
	}
}

// TestObsSmokeAdminEndpoints drives /metrics (Prometheus negotiation),
// /traces, and /buildinfo over real HTTP.
func TestObsSmokeAdminEndpoints(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("mds.op.stat.calls").Add(11)
	reg.Histogram("mds.op.stat.latency_ns").Record(1500)
	tr := NewTracer("mds0", TracerConfig{Registry: reg})
	span := tr.StartSpanFrom(SpanContext{TraceID: 0xabcd}, "mds.op.stat")
	span.Finish(nil)

	admin, err := StartAdmin("127.0.0.1:0", AdminConfig{
		Registries: map[string]*Registry{"mds": reg},
		Tracer:     tr,
		BuildInfo:  func() BuildInfo { return CollectBuildInfo("tracing", "cluster", "tracing") },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer admin.Close()
	get := func(path string) (string, string) {
		t.Helper()
		resp, err := http.Get("http://" + admin.Addr() + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(body), resp.Header.Get("Content-Type")
	}

	body, ctype := get("/metrics?format=prometheus")
	if ctype != PrometheusContentType {
		t.Errorf("Content-Type = %q, want %q", ctype, PrometheusContentType)
	}
	samples := parsePrometheus(t, body)
	if v := samples[`origami_mds_op_stat_calls{registry="mds"}`]; v != 11 {
		t.Errorf("scraped counter = %v, want 11", v)
	}
	if v := samples[`origami_telemetry_spans_recorded{registry="mds"}`]; v != 1 {
		t.Errorf("tracer self-metric = %v, want 1", v)
	}

	body, _ = get("/traces?trace=" + FormatTraceID(0xabcd))
	var dump struct {
		Node  string       `json:"node"`
		Spans []Span       `json:"spans"`
		Tree  []*TraceNode `json:"tree"`
	}
	if err := json.Unmarshal([]byte(body), &dump); err != nil {
		t.Fatalf("/traces not JSON: %v", err)
	}
	if dump.Node != "mds0" || len(dump.Spans) != 1 || len(dump.Tree) != 1 {
		t.Errorf("/traces = node %q, %d spans, %d roots; want mds0/1/1", dump.Node, len(dump.Spans), len(dump.Tree))
	}

	body, _ = get("/buildinfo")
	var bi BuildInfo
	if err := json.Unmarshal([]byte(body), &bi); err != nil {
		t.Fatalf("/buildinfo not JSON: %v", err)
	}
	if bi.Version != Version || bi.GoVersion == "" {
		t.Errorf("buildinfo = %+v, want version %s and a go version", bi, Version)
	}
	if want := []string{"cluster", "tracing"}; len(bi.Features) != 2 || bi.Features[0] != want[0] || bi.Features[1] != want[1] {
		t.Errorf("features = %v, want %v (deduped, sorted)", bi.Features, want)
	}
}

// TestObsSmokeSamplingDeterminism: the head-sampling verdict is a pure
// function of the trace ID, identical across tracers (hence nodes), and
// the sampled fraction lands near the configured rate.
func TestObsSmokeSamplingDeterminism(t *testing.T) {
	a := NewTracer("mds0", TracerConfig{SampleRate: 0.25})
	b := NewTracer("client", TracerConfig{SampleRate: 0.25})
	kept := 0
	const n = 20000
	for i := 0; i < n; i++ {
		id := NewTraceID()
		va, vb := a.Sampled(id), b.Sampled(id)
		if va != vb {
			t.Fatalf("trace %x: mds0 says %v, client says %v", id, va, vb)
		}
		if va {
			kept++
		}
	}
	frac := float64(kept) / n
	if frac < 0.22 || frac > 0.28 {
		t.Errorf("sampled fraction = %.3f, want ~0.25", frac)
	}
}
