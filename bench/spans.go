package main

import (
	"sort"
	"strings"
	"sync"
	"time"

	"origami/internal/telemetry"
)

// benchSpan is a span the benchmark records itself, around each call
// into a layer: every SDK op of a traced run and every direct probe
// call. Spans stay in memory and are written out when the run ends.
type benchSpan struct {
	ID      uint64 `json:"id"`
	Parent  uint64 `json:"parent,omitempty"`
	Name    string `json:"name"`
	OpID    int64  `json:"op_id,omitempty"` // per-worker op sequence
	Worker  int    `json:"worker,omitempty"`
	StartNS int64  `json:"start_ns"` // since the recorder's first span
	EndNS   int64  `json:"end_ns"`
}

// spanRecorder collects benchSpans. A nil recorder records nothing, so
// untraced runs pay one nil check per op.
type spanRecorder struct {
	mu     sync.Mutex
	origin time.Time
	nextID uint64
	open   map[uint64]*benchSpan
	spans  []benchSpan
	perW   [numWorkers][]benchSpan // op spans, appended without the lock
	opSeq  [numWorkers]int64
}

func (r *spanRecorder) since(t time.Time) int64 {
	if r.origin.IsZero() {
		r.origin = t
	}
	return int64(t.Sub(r.origin))
}

// begin opens a span and returns its id (0 on a nil recorder).
func (r *spanRecorder) begin(name string, parent uint64) uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.nextID++
	if r.open == nil {
		r.open = map[uint64]*benchSpan{}
	}
	r.open[r.nextID] = &benchSpan{ID: r.nextID, Parent: parent, Name: name, StartNS: r.since(time.Now())}
	return r.nextID
}

func (r *spanRecorder) end(id uint64) {
	if r == nil || id == 0 {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if s := r.open[id]; s != nil {
		s.EndNS = r.since(time.Now())
		r.spans = append(r.spans, *s)
		delete(r.open, id)
	}
}

// add records one finished SDK op of worker w under parent. Only worker
// w's goroutine calls it for w, so the per-worker slices need no lock;
// ids are assigned when the spans are merged.
func (r *spanRecorder) add(w int, kind opKind, start time.Time, d time.Duration, parent uint64) {
	if r == nil {
		return
	}
	r.opSeq[w]++
	s := int64(start.Sub(r.origin))
	r.perW[w] = append(r.perW[w], benchSpan{
		Parent: parent, Name: "bench.op." + kind.String(), OpID: r.opSeq[w], Worker: w,
		StartNS: s, EndNS: s + int64(d),
	})
}

// timed runs fn inside a probe span.
func (r *spanRecorder) timed(name string, parent uint64, fn func()) time.Duration {
	id := r.begin(name, parent)
	t0 := time.Now()
	fn()
	d := time.Since(t0)
	r.end(id)
	return d
}

// all returns every recorded span, op spans last, ids assigned.
func (r *spanRecorder) all() []benchSpan {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := append([]benchSpan(nil), r.spans...)
	for w := range r.perW {
		for _, s := range r.perW[w] {
			r.nextID++
			s.ID = r.nextID
			out = append(out, s)
		}
	}
	return out
}

// selfTimes walks assembled trace trees and returns, per span, its self
// time: its duration minus the part of its interval that its children
// cover (overlapping children are not counted twice).
func selfTimes(roots []*telemetry.TraceNode, visit func(n *telemetry.TraceNode, selfNS int64)) {
	var walk func(n *telemetry.TraceNode)
	walk = func(n *telemetry.TraceNode) {
		start, end := n.StartUnixNano, n.StartUnixNano+n.DurationNS
		type iv struct{ lo, hi int64 }
		ivs := make([]iv, 0, len(n.Children))
		for _, c := range n.Children {
			lo, hi := max(c.StartUnixNano, start), min(c.StartUnixNano+c.DurationNS, end)
			if hi > lo {
				ivs = append(ivs, iv{lo, hi})
			}
		}
		sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
		var covered, reach int64
		reach = start
		for _, v := range ivs {
			if v.hi <= reach {
				continue
			}
			covered += v.hi - max(v.lo, reach)
			reach = v.hi
		}
		visit(n, n.DurationNS-covered)
		for _, c := range n.Children {
			walk(c)
		}
	}
	for _, r := range roots {
		walk(r)
	}
}

// spanLadder assembles the spans the program already emits
// (client.op.* -> rpc.server.* -> mds.op.* -> kvstore.commit) into
// per-trace trees and returns, for each SDK op name, the mean self time
// per component in µs over the complete traces (those whose root is a
// client.op span with at least one server-side descendant), plus the
// number of complete traces. The client component's self time includes
// the wire: the dispatch span brackets the handler only.
func spanLadder(spans []telemetry.Span) (self map[string]map[string]float64, complete int) {
	byTrace := map[uint64][]telemetry.Span{}
	for _, s := range spans {
		byTrace[s.TraceID] = append(byTrace[s.TraceID], s)
	}
	samples := map[string]map[string][]float64{} // op -> component -> µs
	for _, ts := range byTrace {
		roots := telemetry.AssembleTrace(ts)
		if len(roots) != 1 || !strings.HasPrefix(roots[0].Name, "client.op.") || len(roots[0].Children) == 0 {
			continue
		}
		complete++
		opName := strings.TrimPrefix(roots[0].Name, "client.op.")
		perComp := map[string]int64{}
		selfTimes(roots, func(n *telemetry.TraceNode, selfNS int64) {
			perComp[n.Component()] += selfNS
		})
		if samples[opName] == nil {
			samples[opName] = map[string][]float64{}
		}
		for comp, ns := range perComp {
			samples[opName][comp] = append(samples[opName][comp], float64(ns)/1e3)
		}
	}
	self = map[string]map[string]float64{}
	for opName, comps := range samples {
		self[opName] = map[string]float64{}
		for comp, xs := range comps {
			self[opName][comp] = total(xs) / float64(len(xs))
		}
	}
	return self, complete
}
