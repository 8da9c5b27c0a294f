// Package scenario is the declarative chaos harness: it parses scenario
// files (a small YAML subset), runs them end-to-end against real
// in-process clusters — fleet template, workload, fault timeline,
// machine-checkable assertions — and replays bit-identically under a
// fixed seed. Every run drives the real product over loopback TCP; there
// is no emulated fleet. cmd/origami-sim is the CLI front end;
// the repo's chaos tests are thin wrappers over library scenarios, so
// the CLI, the tests, and ad-hoc experiments share one harness.
package scenario

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// Scenario is one parsed scenario file.
type Scenario struct {
	Name        string
	Description string
	// Seed drives every random choice in the run (jitter, drop RNG,
	// workload keys). origami-sim -seed overrides it; 0 means 1.
	Seed int64
	// Duration is how long the workload runs before assertions are
	// evaluated. Events past Duration never fire (validated).
	Duration time.Duration

	Fleet      FleetSpec
	Workload   WorkloadSpec
	Events     []Event
	Assertions []Assertion
}

// FleetSpec is the cluster template.
type FleetSpec struct {
	// MDS is the fleet size (>= 1, >= 2 when replication is on).
	MDS int
	// Replication: "off" (default) or "on" (ring WAL shipping). What an
	// ack waits for is CommitMode's alone.
	Replication string
	// Heartbeat > 0 starts the coordinator's auto-failover loop at that
	// probe interval.
	Heartbeat time.Duration
	// BalanceEvery > 0 starts the auto-balance loop (collect → plan →
	// migrate → publish) at that interval, planning with the
	// self-training Origami balancer.
	BalanceEvery time.Duration
	// CallTimeout bounds every RPC (default server.DefaultCallTimeout;
	// chaos scenarios shrink it so injected failures resolve fast).
	CallTimeout time.Duration
	// Backlog / Window tune the async shipper (0 = library defaults).
	Backlog int
	Window  int
	// CommitMode selects every shard's durability policy — "sync-fsync"
	// (default), "sync-repl", or "async" — the commit pipeline's
	// vocabulary. sync-repl needs replication on.
	CommitMode string
	// CommitWindow bounds async commit's acknowledged-but-not-durable
	// in-flight set (0 = commit.DefaultWindow). Only valid with
	// commit-mode async; it is the budget the loss-window assertion
	// charges against.
	CommitWindow int
}

// WorkloadSpec describes the load offered while the timeline plays.
type WorkloadSpec struct {
	// Kind: "mix" (default; create/stat/readdir mix with tracked acked
	// creates), "trace-rw" / "trace-ro" / "trace-wi" (replay an
	// internal/workload trace), or "none".
	Kind string
	// Workers is the client goroutine count (default 4).
	Workers int
	// WritePct is the mix driver's create share in percent, 0 to 100;
	// 0 is a read-only mix. Parse fills the default 30 when the file
	// names no write-pct.
	WritePct int
	// PreFiles pre-creates this many files before the timeline starts so
	// read-heavy mixes have something to stat (0 = default 50; negative
	// = none, which a stat workload rejects).
	PreFiles int
	// Root is the namespace directory the workload lives under
	// (default "sim").
	Root string
	// Pin migrates Root to this MDS ("mds-1") before the timeline
	// starts — how kill-the-primary scenarios put the workload in the
	// blast radius.
	Pin string
	// Ops sizes a trace (trace-* kinds only; default 2000).
	Ops int
	// Batch, when > 1, turns on the SDK's pipelined submission: the
	// driver's mutations coalesce into multi-op frames carrying per-op
	// IDs, so a mid-frame failover exercises idempotent client replay.
	Batch int
}

// Event is one timeline entry. At is relative to workload start; Jitter
// adds a seeded random extra in [0, Jitter) so reordering bugs surface
// across seeds while any single seed replays exactly.
type Event struct {
	At     time.Duration
	Jitter time.Duration
	// Action is one of the kinds below.
	Action string
	// Target names an MDS ("mds-2") or an undirected link ("1-2"),
	// depending on the action.
	Target string
	// Groups is a partition spec: comma-separated ids, "|" between
	// sides, e.g. "0,1|2,3".
	Groups string
	// Pct is a percentage (packet-drop probability, flash-crowd share).
	Pct float64
	// Delay is an injected latency (packet-drop, link-latency,
	// slow-disk).
	Delay time.Duration
	// Path is the flash-crowd hot directory.
	Path string
	// For bounds a flash-crowd (0 = until the run ends).
	For time.Duration
	// Count sizes a migration-storm (default 8).
	Count int
}

// Event actions.
const (
	ActKill           = "kill"            // stop an MDS in place (crash)
	ActRestart        = "restart"         // revive a stopped MDS
	ActPartition      = "partition"       // split fleet per Groups
	ActHeal           = "heal"            // remove the partition
	ActPacketDrop     = "packet-drop"     // probabilistic loss on Target (stacks with Delay)
	ActLinkLatency    = "link-latency"    // injected latency on Target
	ActSlowDisk       = "slow-disk"       // stall an MDS's write path by Delay
	ActClearFaults    = "clear-faults"    // drop every network+disk fault
	ActFlashCrowd     = "flash-crowd"     // point Pct% of ops at Path for For
	ActMigrationStorm = "migration-storm" // Count rapid subtree migrations
	ActEpoch          = "epoch"           // run one balance epoch now
)

// Assertion is one post-run check. Numeric kinds compare against Value,
// latency kinds against Dur, convergence kinds poll until Within.
type Assertion struct {
	Kind   string
	Value  float64
	Dur    time.Duration
	Within time.Duration
}

// Assertion kinds.
const (
	AssertLossWindow    = "loss-window"    // acked-but-lost creates <= the fleet's durability budget (0 for sync modes; commit window + unshipped tail for async); takes no value
	AssertOpsMin        = "ops-min"        // completed ops >= Value
	AssertErrorsMax     = "errors-max"     // workload errors <= Value
	AssertErrRateLE     = "err-rate-le"    // errors/attempts <= Value (0..1)
	AssertFailoversMin  = "failovers-min"  // coordinator failovers >= Value
	AssertFailoversMax  = "failovers-max"  // coordinator failovers <= Value
	AssertMigrationsMin = "migrations-min" // applied migrations >= Value
	AssertMapConverged  = "map-converged"  // every live MDS reaches the coordinator map version within Within
	AssertReplConverged = "repl-converged" // every live shipper drains (Lag == 0) within Within
	AssertP95LE         = "p95-le"         // workload p95 latency <= Dur
	AssertRPCPerOp      = "rpc-per-op"     // workload RPC frames per completed op <= Value (warm-cache bound)
)

// knownActions / knownAsserts index the vocabulary for validation.
var knownActions = map[string]bool{
	ActKill: true, ActRestart: true, ActPartition: true, ActHeal: true,
	ActPacketDrop: true, ActLinkLatency: true, ActSlowDisk: true,
	ActClearFaults: true, ActFlashCrowd: true, ActMigrationStorm: true,
	ActEpoch: true,
}

var knownAsserts = map[string]bool{
	AssertLossWindow: true, AssertOpsMin: true, AssertErrorsMax: true,
	AssertErrRateLE: true, AssertFailoversMin: true, AssertFailoversMax: true,
	AssertMigrationsMin: true, AssertMapConverged: true,
	AssertReplConverged: true, AssertP95LE: true, AssertRPCPerOp: true,
}

func (f *FleetSpec) withDefaults() {
	if f.Replication == "" {
		f.Replication = "off"
	}
	if f.CommitMode == "" {
		f.CommitMode = "sync-fsync"
	}
}

func (w *WorkloadSpec) withDefaults() {
	if w.Kind == "" {
		w.Kind = "mix"
	}
	if w.Workers <= 0 {
		w.Workers = 4
	}
	if w.PreFiles == 0 {
		w.PreFiles = 50
	}
	if w.Root == "" {
		w.Root = "sim"
	}
	if w.Ops <= 0 {
		w.Ops = 2000
	}
}

// Validate checks the scenario's internal consistency, applying
// defaults in place. Parse calls it, and so does Run; a scenario it
// accepts is a fixed point, so validating twice changes nothing.
func (sc *Scenario) Validate() error {
	if sc.Name == "" {
		return fmt.Errorf("scenario: missing name")
	}
	if sc.Seed == 0 {
		sc.Seed = 1
	}
	sc.Fleet.withDefaults()
	sc.Workload.withDefaults()
	f := &sc.Fleet
	if f.MDS < 1 {
		return fmt.Errorf("scenario %s: fleet needs mds >= 1", sc.Name)
	}
	switch f.Replication {
	case "off", "on":
	default:
		return fmt.Errorf("scenario %s: replication %q (want off|on)", sc.Name, f.Replication)
	}
	if f.Replication == "on" && f.MDS < 2 {
		return fmt.Errorf("scenario %s: replication needs mds >= 2", sc.Name)
	}
	switch f.CommitMode {
	case "sync-fsync", "sync-repl", "async":
	default:
		return fmt.Errorf("scenario %s: commit-mode %q (want sync-fsync|sync-repl|async)", sc.Name, f.CommitMode)
	}
	if f.CommitMode == "sync-repl" && f.Replication == "off" {
		return fmt.Errorf("scenario %s: commit-mode sync-repl needs replication on (its ack rides the backup)", sc.Name)
	}
	if f.CommitWindow != 0 && f.CommitMode != "async" {
		return fmt.Errorf("scenario %s: commit-window only applies to commit-mode async", sc.Name)
	}
	if f.CommitWindow < 0 {
		return fmt.Errorf("scenario %s: commit-window %d", sc.Name, f.CommitWindow)
	}
	switch sc.Workload.Kind {
	case "mix", "stat", "trace-rw", "trace-ro", "trace-wi", "none":
	default:
		return fmt.Errorf("scenario %s: workload kind %q", sc.Name, sc.Workload.Kind)
	}
	if p := sc.Workload.WritePct; p < 0 || p > 100 {
		return fmt.Errorf("scenario %s: write-pct %d outside 0..100", sc.Name, p)
	}
	if sc.Workload.Kind == "stat" && sc.Workload.PreFiles < 0 {
		return fmt.Errorf("scenario %s: a stat workload needs pre-files to stat", sc.Name)
	}
	if sc.Workload.Pin != "" {
		if _, err := parseMDSTarget(sc.Workload.Pin, f.MDS); err != nil {
			return fmt.Errorf("scenario %s: workload pin: %v", sc.Name, err)
		}
	}
	if sc.Duration <= 0 {
		return fmt.Errorf("scenario %s: missing duration", sc.Name)
	}
	for i := range sc.Events {
		if err := sc.Events[i].validate(sc, i); err != nil {
			return err
		}
	}
	if len(sc.Assertions) == 0 {
		return fmt.Errorf("scenario %s: no assertions — a scenario that can't fail checks nothing", sc.Name)
	}
	for _, a := range sc.Assertions {
		if err := a.validate(sc.Name); err != nil {
			return err
		}
		if a.Kind == AssertLossWindow && sc.Workload.Kind != "mix" {
			return fmt.Errorf("scenario %s: %s needs the mix workload (it tracks acked creates)", sc.Name, a.Kind)
		}
	}
	return nil
}

func (e *Event) validate(sc *Scenario, i int) error {
	where := fmt.Sprintf("scenario %s: event %d (%s)", sc.Name, i, e.Action)
	if !knownActions[e.Action] {
		return fmt.Errorf("scenario %s: event %d: unknown action %q", sc.Name, i, e.Action)
	}
	if e.At < 0 || e.Jitter < 0 || e.At > sc.Duration || e.Jitter > sc.Duration-e.At {
		return fmt.Errorf("%s: fires at %v+%v, outside the %v run", where, e.At, e.Jitter, sc.Duration)
	}
	needMDS := func() error {
		id, err := parseMDSTarget(e.Target, sc.Fleet.MDS)
		if err != nil {
			return fmt.Errorf("%s: %v", where, err)
		}
		_ = id
		return nil
	}
	switch e.Action {
	case ActKill, ActRestart, ActSlowDisk:
		if err := needMDS(); err != nil {
			return err
		}
		if e.Action == ActSlowDisk && e.Delay <= 0 {
			return fmt.Errorf("%s: needs delay > 0", where)
		}
	case ActPartition:
		groups, err := ParseGroups(e.Groups, sc.Fleet.MDS)
		if err != nil {
			return fmt.Errorf("%s: %v", where, err)
		}
		if len(groups) < 2 {
			return fmt.Errorf("%s: needs >= 2 groups", where)
		}
	case ActPacketDrop:
		if _, _, err := parseLinkOrMDS(e.Target, sc.Fleet.MDS); err != nil {
			return fmt.Errorf("%s: %v", where, err)
		}
		if e.Pct <= 0 || e.Pct > 100 {
			return fmt.Errorf("%s: pct %v out of (0,100]", where, e.Pct)
		}
	case ActLinkLatency:
		if _, _, err := parseLinkOrMDS(e.Target, sc.Fleet.MDS); err != nil {
			return fmt.Errorf("%s: %v", where, err)
		}
		if e.Delay <= 0 {
			return fmt.Errorf("%s: needs delay > 0", where)
		}
	case ActFlashCrowd:
		if e.Path == "" || strings.Contains(e.Path, "..") {
			return fmt.Errorf("%s: needs a path", where)
		}
		if e.Pct <= 0 || e.Pct > 100 {
			return fmt.Errorf("%s: pct %v out of (0,100]", where, e.Pct)
		}
	case ActMigrationStorm:
		if e.Count == 0 {
			e.Count = 8
		}
		if e.Count < 0 {
			return fmt.Errorf("%s: count %d", where, e.Count)
		}
	}
	return nil
}

func (a Assertion) validate(name string) error {
	if !knownAsserts[a.Kind] {
		return fmt.Errorf("scenario %s: unknown assertion %q", name, a.Kind)
	}
	switch a.Kind {
	case AssertMapConverged, AssertReplConverged:
		if a.Within <= 0 {
			return fmt.Errorf("scenario %s: %s needs within > 0", name, a.Kind)
		}
	case AssertP95LE:
		if a.Dur <= 0 {
			return fmt.Errorf("scenario %s: p95-le needs a duration value", name)
		}
	case AssertLossWindow:
		if a.Value != 0 {
			return fmt.Errorf("scenario %s: loss-window takes no value (its bound is the fleet's own durability budget)", name)
		}
	case AssertErrRateLE:
		if a.Value < 0 || a.Value > 1 {
			return fmt.Errorf("scenario %s: %s value %v out of [0,1]", name, a.Kind, a.Value)
		}
	case AssertRPCPerOp:
		if a.Value <= 0 {
			return fmt.Errorf("scenario %s: rpc-per-op needs value > 0", name)
		}
	}
	return nil
}

// parseMDSTarget parses "mds-3" (fleet range-checked).
func parseMDSTarget(s string, fleet int) (int, error) {
	rest, ok := strings.CutPrefix(s, "mds-")
	if !ok {
		return 0, fmt.Errorf("target %q: want \"mds-N\"", s)
	}
	id, err := atoiStrict(rest)
	if err != nil || id < 0 || id >= fleet {
		return 0, fmt.Errorf("target %q: no such MDS in a fleet of %d", s, fleet)
	}
	return id, nil
}

// parseLinkOrMDS parses "a-b" (a link) or "mds-N" (every link touching
// N, returned as (N, -1)).
func parseLinkOrMDS(s string, fleet int) (int, int, error) {
	if id, err := parseMDSTarget(s, fleet); err == nil {
		return id, -1, nil
	}
	a, b, ok := strings.Cut(s, "-")
	if !ok {
		return 0, 0, fmt.Errorf("target %q: want \"a-b\" or \"mds-N\"", s)
	}
	x, err1 := atoiStrict(a)
	y, err2 := atoiStrict(b)
	if err1 != nil || err2 != nil || x < 0 || y < 0 || x >= fleet || y >= fleet || x == y {
		return 0, 0, fmt.Errorf("target %q: not a valid link in a fleet of %d", s, fleet)
	}
	return x, y, nil
}

// ParseGroups parses a partition spec ("0,1|2,3") into groups, checking
// ranges and rejecting a node named on both sides — catching that at
// parse time beats a runtime error from LinkFaults.Partition mid-run.
func ParseGroups(s string, fleet int) ([][]int, error) {
	if s == "" {
		return nil, fmt.Errorf("empty partition groups")
	}
	var groups [][]int
	seen := map[int]bool{}
	for _, side := range strings.Split(s, "|") {
		var g []int
		for _, tok := range strings.Split(side, ",") {
			tok = strings.TrimSpace(tok)
			if tok == "" {
				continue
			}
			id, err := atoiStrict(tok)
			if err != nil || id < 0 || id >= fleet {
				return nil, fmt.Errorf("groups %q: bad node %q for a fleet of %d", s, tok, fleet)
			}
			if seen[id] {
				return nil, fmt.Errorf("groups %q: node %d appears twice", s, id)
			}
			seen[id] = true
			g = append(g, id)
		}
		if len(g) == 0 {
			return nil, fmt.Errorf("groups %q: empty side", s)
		}
		groups = append(groups, g)
	}
	return groups, nil
}

func atoiStrict(s string) (int, error) {
	if s == "" {
		return 0, fmt.Errorf("empty number")
	}
	n := 0
	for _, r := range s {
		if r < '0' || r > '9' {
			return 0, fmt.Errorf("bad number %q", s)
		}
		n = n*10 + int(r-'0')
		if n > 1<<30 {
			return 0, fmt.Errorf("number %q too large", s)
		}
	}
	return n, nil
}

func trimFloat(f float64) string { return fmt.Sprintf("%g", f) }

// SortEvents orders events by At (stable), which Parse enforces so event
// indices — and therefore jitter draws — are deterministic.
func (sc *Scenario) SortEvents() {
	sort.SliceStable(sc.Events, func(i, j int) bool { return sc.Events[i].At < sc.Events[j].At })
}
