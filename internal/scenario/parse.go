package scenario

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"
)

// Strict decoding of parsed YAML into Scenario. Every mapping rejects
// keys it does not know — a typoed "hearbeat:" fails the parse instead
// of silently running a scenario without failover.

// Parse decodes, validates, and canonicalises one scenario document.
func Parse(src string) (*Scenario, error) {
	root, err := parseYAML(src)
	if err != nil {
		return nil, err
	}
	m, ok := root.(*yMap)
	if !ok {
		return nil, fmt.Errorf("line %d: scenario must be a mapping", root.lineNo())
	}
	d := &decoder{}
	sc := &Scenario{}
	d.strict(m, "name", "description", "seed", "duration", "fleet", "workload", "events", "assertions", "stress")
	sc.Name = d.str(m, "name")
	sc.Description = d.str(m, "description")
	sc.Seed = d.i64(m, "seed")
	sc.Duration = d.dur(m, "duration")
	if fm := d.child(m, "fleet"); fm != nil {
		d.strict(fm, "mds", "replication", "heartbeat", "balance-every", "call-timeout", "backlog", "window", "commit-mode", "commit-window")
		sc.Fleet = FleetSpec{
			MDS:          d.num(fm, "mds"),
			Replication:  d.str(fm, "replication"),
			Heartbeat:    d.dur(fm, "heartbeat"),
			BalanceEvery: d.dur(fm, "balance-every"),
			CallTimeout:  d.dur(fm, "call-timeout"),
			Backlog:      d.num(fm, "backlog"),
			Window:       d.num(fm, "window"),
			CommitMode:   d.str(fm, "commit-mode"),
			CommitWindow: d.num(fm, "commit-window"),
		}
	}
	if wm := d.child(m, "workload"); wm != nil {
		d.strict(wm, "kind", "workers", "write-pct", "pre-files", "root", "pin", "ops", "batch")
		sc.Workload = WorkloadSpec{
			Kind:     d.str(wm, "kind"),
			Workers:  d.num(wm, "workers"),
			WritePct: d.num(wm, "write-pct"),
			PreFiles: d.num(wm, "pre-files"),
			Root:     d.str(wm, "root"),
			Pin:      d.str(wm, "pin"),
			Ops:      d.num(wm, "ops"),
			Batch:    d.num(wm, "batch"),
		}
	}
	for _, item := range d.list(m, "events") {
		em, ok := item.(*yMap)
		if !ok {
			d.fail(item.lineNo(), "event must be a mapping")
			break
		}
		d.strict(em, "at", "jitter", "action", "target", "groups", "pct", "delay", "path", "for", "count")
		sc.Events = append(sc.Events, Event{
			At:     d.dur(em, "at"),
			Jitter: d.dur(em, "jitter"),
			Action: d.str(em, "action"),
			Target: d.str(em, "target"),
			Groups: d.str(em, "groups"),
			Pct:    d.f64(em, "pct"),
			Delay:  d.dur(em, "delay"),
			Path:   d.str(em, "path"),
			For:    d.dur(em, "for"),
			Count:  d.num(em, "count"),
		})
	}
	for _, item := range d.list(m, "assertions") {
		am, ok := item.(*yMap)
		if !ok {
			d.fail(item.lineNo(), "assertion must be a mapping")
			break
		}
		d.strict(am, "kind", "value", "dur", "within")
		sc.Assertions = append(sc.Assertions, Assertion{
			Kind:   d.str(am, "kind"),
			Value:  d.f64(am, "value"),
			Dur:    d.dur(am, "dur"),
			Within: d.dur(am, "within"),
		})
	}
	if sm := d.child(m, "stress"); sm != nil {
		d.strict(sm, "fleet", "chaos-rate", "duration", "tick", "mode", "ops-per-tick", "skew")
		sc.Stress = &StressSpec{
			Fleet:      d.num(sm, "fleet"),
			ChaosRate:  d.f64(sm, "chaos-rate"),
			Duration:   d.dur(sm, "duration"),
			Tick:       d.dur(sm, "tick"),
			Mode:       d.str(sm, "mode"),
			OpsPerTick: d.num(sm, "ops-per-tick"),
			Skew:       d.f64(sm, "skew"),
		}
	}
	if d.err != nil {
		return nil, d.err
	}
	sc.SortEvents()
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	return sc, nil
}

// ParseFile reads and parses one scenario file, naming it in errors.
func ParseFile(path string) (*Scenario, error) {
	src, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	sc, err := Parse(string(src))
	if err != nil {
		return nil, fmt.Errorf("%s: %w", filepath.Base(path), err)
	}
	return sc, nil
}

// decoder accumulates the first error across field reads so call sites
// stay flat.
type decoder struct{ err error }

func (d *decoder) fail(line int, format string, args ...interface{}) {
	if d.err == nil {
		d.err = fmt.Errorf("line %d: %s", line, fmt.Sprintf(format, args...))
	}
}

// strict rejects unknown keys in a mapping.
func (d *decoder) strict(m *yMap, allowed ...string) {
	ok := make(map[string]bool, len(allowed))
	for _, k := range allowed {
		ok[k] = true
	}
	for _, k := range m.keys {
		if !ok[k] {
			d.fail(m.vals[k].lineNo(), "unknown key %q (known: %s)", k, strings.Join(allowed, ", "))
			return
		}
	}
}

func (d *decoder) scalar(m *yMap, key string) (string, int, bool) {
	n := m.get(key)
	if n == nil {
		return "", 0, false
	}
	s, ok := n.(yScalar)
	if !ok {
		d.fail(n.lineNo(), "%s: expected a scalar", key)
		return "", 0, false
	}
	return s.val, s.line, true
}

func (d *decoder) str(m *yMap, key string) string {
	v, _, _ := d.scalar(m, key)
	return v
}

func (d *decoder) num(m *yMap, key string) int {
	v, line, ok := d.scalar(m, key)
	if !ok || v == "" {
		return 0
	}
	n, err := strconv.Atoi(v)
	if err != nil {
		d.fail(line, "%s: bad integer %q", key, v)
		return 0
	}
	return n
}

func (d *decoder) i64(m *yMap, key string) int64 {
	v, line, ok := d.scalar(m, key)
	if !ok || v == "" {
		return 0
	}
	n, err := strconv.ParseInt(v, 10, 64)
	if err != nil {
		d.fail(line, "%s: bad integer %q", key, v)
		return 0
	}
	return n
}

func (d *decoder) f64(m *yMap, key string) float64 {
	v, line, ok := d.scalar(m, key)
	if !ok || v == "" {
		return 0
	}
	f, err := strconv.ParseFloat(v, 64)
	if err != nil {
		d.fail(line, "%s: bad number %q", key, v)
		return 0
	}
	return f
}

func (d *decoder) dur(m *yMap, key string) time.Duration {
	v, line, ok := d.scalar(m, key)
	if !ok || v == "" {
		return 0
	}
	dur, err := time.ParseDuration(v)
	if err != nil {
		d.fail(line, "%s: bad duration %q", key, v)
		return 0
	}
	return dur
}

func (d *decoder) child(m *yMap, key string) *yMap {
	n := m.get(key)
	if n == nil {
		return nil
	}
	cm, ok := n.(*yMap)
	if !ok {
		d.fail(n.lineNo(), "%s: expected a mapping", key)
		return nil
	}
	return cm
}

func (d *decoder) list(m *yMap, key string) []yNode {
	n := m.get(key)
	if n == nil {
		return nil
	}
	l, ok := n.(*yList)
	if !ok {
		d.fail(n.lineNo(), "%s: expected a list", key)
		return nil
	}
	return l.items
}
