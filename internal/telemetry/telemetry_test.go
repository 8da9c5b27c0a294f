package telemetry

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
)

func TestTraceIDsNonzeroAndUnique(t *testing.T) {
	seen := make(map[uint64]bool)
	for i := 0; i < 10000; i++ {
		id := NewTraceID()
		if id == 0 {
			t.Fatal("zero trace ID")
		}
		if seen[id] {
			t.Fatalf("duplicate trace ID %016x", id)
		}
		seen[id] = true
	}
}

// TestTraceContext: a span parents on the SpanContext it was started
// from, and Propagate hands children the span's identity when it has one
// and the parent unchanged when it records nothing.
func TestTraceContext(t *testing.T) {
	parent := SpanContext{TraceID: 42, SpanID: 7}
	tr := NewTracer("node", TracerConfig{})
	span := tr.StartSpanFrom(parent, "mds.op.create")
	child := span.Propagate(parent)
	if child.TraceID != 42 || child.SpanID == 0 || child.SpanID != span.ID() {
		t.Fatalf("sampled span propagates %+v, want trace 42 and span %d", child, span.ID())
	}
	span.Finish(nil)
	if got := tr.TraceSpans(42); len(got) != 1 || got[0].ParentID != 7 {
		t.Fatalf("recorded %+v, want one span under parent 7", got)
	}

	// Recording nothing — nil tracer, sampled out, untraced — passes the
	// parent on unchanged.
	var none *Tracer
	if got := none.StartSpanFrom(parent, "x").Propagate(parent); got != parent {
		t.Errorf("nil tracer propagates %+v, want %+v", got, parent)
	}
	off := NewTracer("node", TracerConfig{SampleRate: -1})
	if got := off.StartSpanFrom(parent, "x").Propagate(parent); got != parent {
		t.Errorf("sampled-out span propagates %+v, want %+v", got, parent)
	}
	if tr.StartSpanFrom(SpanContext{}, "x") != nil {
		t.Error("untraced parent opened a span")
	}
}

func TestLoggerFormatAndLevels(t *testing.T) {
	var buf bytes.Buffer
	log := NewLogger(&buf, "rpc", LevelInfo)
	log.Debug("hidden")
	log.Info("connected", "addr", "127.0.0.1:1234", "attempt", 3)
	log.Warn("spaced value", "msg", "two words")
	out := buf.String()
	if strings.Contains(out, "hidden") {
		t.Error("debug record emitted at info level")
	}
	if !strings.Contains(out, "INFO rpc: connected addr=127.0.0.1:1234 attempt=3") {
		t.Errorf("unexpected record: %q", out)
	}
	if !strings.Contains(out, `msg="two words"`) {
		t.Errorf("spaced value not quoted: %q", out)
	}
}

func TestLoggerWithFields(t *testing.T) {
	var buf bytes.Buffer
	base := NewLogger(&buf, "mds", LevelDebug)
	child := base.With("mds", 2)
	child.Debug("span", "op", "create")
	if !strings.Contains(buf.String(), "mds=2 op=create") {
		t.Errorf("inherited fields missing: %q", buf.String())
	}
}

func TestLoggerConcurrent(t *testing.T) {
	var buf bytes.Buffer
	log := NewLogger(&buf, "x", LevelInfo)
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				log.Info("m", "g", i, "j", j)
			}
		}(i)
	}
	wg.Wait()
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 16*50 {
		t.Errorf("line count = %d, want %d", len(lines), 16*50)
	}
	for _, l := range lines {
		if !strings.Contains(l, "INFO x: m g=") {
			t.Fatalf("interleaved/corrupt line: %q", l)
		}
	}
}

func TestAdminServer(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("requests").Add(9)
	reg.Histogram("latency_ns").Record(100)
	admin, err := StartAdmin("127.0.0.1:0", AdminConfig{
		Registries: map[string]*Registry{"mds": reg},
		Health: func() map[string]interface{} {
			return map[string]interface{}{"mds_id": 3}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer admin.Close()

	resp, err := http.Get(fmt.Sprintf("http://%s/metrics", admin.Addr()))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var doc map[string]Snapshot
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatalf("metrics JSON: %v\n%s", err, body)
	}
	if doc["mds"].Counters["requests"] != 9 {
		t.Errorf("requests = %d, want 9", doc["mds"].Counters["requests"])
	}
	if doc["mds"].Histograms["latency_ns"].Count != 1 {
		t.Errorf("latency count = %d", doc["mds"].Histograms["latency_ns"].Count)
	}

	hresp, err := http.Get(fmt.Sprintf("http://%s/healthz", admin.Addr()))
	if err != nil {
		t.Fatal(err)
	}
	hbody, _ := io.ReadAll(hresp.Body)
	hresp.Body.Close()
	if hresp.StatusCode != 200 || !strings.Contains(string(hbody), `"status":"ok"`) {
		t.Errorf("healthz = %d %s", hresp.StatusCode, hbody)
	}
	if !strings.Contains(string(hbody), `"mds_id":3`) {
		t.Errorf("healthz extras missing: %s", hbody)
	}

	// pprof is off by default.
	presp, err := http.Get(fmt.Sprintf("http://%s/debug/pprof/", admin.Addr()))
	if err != nil {
		t.Fatal(err)
	}
	presp.Body.Close()
	if presp.StatusCode != http.StatusNotFound {
		t.Errorf("pprof served without opt-in: %d", presp.StatusCode)
	}
}

func TestAdminPprofOptIn(t *testing.T) {
	admin, err := StartAdmin("127.0.0.1:0", AdminConfig{Pprof: true})
	if err != nil {
		t.Fatal(err)
	}
	defer admin.Close()
	resp, err := http.Get(fmt.Sprintf("http://%s/debug/pprof/", admin.Addr()))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Errorf("pprof index = %d, want 200", resp.StatusCode)
	}
}
