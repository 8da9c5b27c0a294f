package telemetry

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"sort"
	"strconv"
	"strings"
	"time"
)

// AdminConfig configures an admin endpoint.
type AdminConfig struct {
	// Registries maps an export name (e.g. "mds", "coordinator") to the
	// registry served under it in the /metrics document.
	Registries map[string]*Registry
	// Health, when non-nil, contributes extra fields to /healthz.
	Health func() map[string]interface{}
	// Replication, when non-nil, contributes the node's replication
	// document — role, shipped/applied WAL offsets, lag — under the
	// "replication" key of /healthz.
	Replication func() map[string]interface{}
	// Pprof mounts net/http/pprof under /debug/pprof/ (off by default:
	// profiling endpoints on a production port are opt-in).
	Pprof bool
	// Tracer, when non-nil, serves the node's span store and slow-op log
	// under /traces (?trace=<hex id> selects one trace).
	Tracer *Tracer
	// BuildInfo, when non-nil, is the node's /buildinfo document (an
	// MDS serves the same one over MethodBuildInfo); nil serves the bare
	// process build info.
	BuildInfo func() BuildInfo
}

// Admin is a running HTTP admin server exposing /metrics (JSON registry
// snapshots, or Prometheus text exposition with ?format=prometheus),
// /healthz, /buildinfo, /traces, and optionally /debug/pprof/.
type Admin struct {
	ln    net.Listener
	srv   *http.Server
	start time.Time
}

// StartAdmin binds addr (":0" works) and serves the admin API in the
// background, returning the handle with the bound address.
func StartAdmin(addr string, cfg AdminConfig) (*Admin, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("telemetry: admin listen %s: %w", addr, err)
	}
	a := &Admin{ln: ln, start: time.Now()}
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		doc := make(map[string]Snapshot, len(cfg.Registries))
		for name, reg := range cfg.Registries {
			doc[name] = reg.Snapshot()
		}
		format := r.URL.Query().Get("format")
		if format == "prometheus" || (format == "" && strings.Contains(r.Header.Get("Accept"), "text/plain")) {
			w.Header().Set("Content-Type", PrometheusContentType)
			WritePrometheus(w, doc)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(doc) //nolint:errcheck // client went away
	})
	mux.HandleFunc("/traces", func(w http.ResponseWriter, r *http.Request) {
		var traceID uint64
		if q := r.URL.Query().Get("trace"); q != "" {
			id, err := strconv.ParseUint(q, 16, 64)
			if err != nil {
				http.Error(w, "bad trace id (want hex)", http.StatusBadRequest)
				return
			}
			traceID = id
		}
		dump := cfg.Tracer.Dump(traceID)
		doc := struct {
			TraceDump
			Tree []*TraceNode `json:"tree,omitempty"`
		}{TraceDump: dump}
		if traceID != 0 {
			doc.Tree = AssembleTrace(dump.Spans)
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(doc) //nolint:errcheck // client went away
	})
	mux.HandleFunc("/buildinfo", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		bi := CollectBuildInfo()
		if cfg.BuildInfo != nil {
			bi = cfg.BuildInfo()
		}
		enc.Encode(bi) //nolint:errcheck // client went away
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		doc := map[string]interface{}{
			"status":         "ok",
			"uptime_seconds": time.Since(a.start).Seconds(),
		}
		if cfg.Replication != nil {
			if repl := cfg.Replication(); repl != nil {
				doc["replication"] = repl
			}
		}
		if cfg.Health != nil {
			extra := cfg.Health()
			keys := make([]string, 0, len(extra))
			for k := range extra {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			for _, k := range keys {
				doc[k] = extra[k]
			}
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(doc) //nolint:errcheck // client went away
	})
	if cfg.Pprof {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	a.srv = &http.Server{Handler: mux}
	go a.srv.Serve(ln) //nolint:errcheck // closed on shutdown
	return a, nil
}

// Addr returns the bound address.
func (a *Admin) Addr() string { return a.ln.Addr().String() }

// Close stops the admin server.
func (a *Admin) Close() error { return a.srv.Close() }
