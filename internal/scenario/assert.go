package scenario

import (
	"fmt"
	"time"

	"origami/internal/client"
	"origami/internal/commit"
	"origami/internal/replication"
	"origami/internal/server"
)

// Assertion evaluation. Convergence assertions poll with a bounded wait
// (their "within" is the deadline); everything else reads final state.
// The loss assertion re-reads every acknowledged create through a fresh
// SDK client — cold cache, fresh map — which is the only honest way to
// ask "did the cluster keep what it promised".

func evaluateAssertions(sc *Scenario, res *RunResult, cl *server.Cluster, co *server.Coordinator, drv *driver) {
	for _, a := range sc.Assertions {
		r := AssertionResult{Kind: a.Kind}
		switch a.Kind {
		case AssertLossWindow:
			// The per-mode durability claim, checked against the budget the
			// fleet's own config promises rather than a hand-picked number.
			n := countMissing(cl, drv.ackedPaths())
			res.Workload.Lost = n
			bound := lossWindowBound(sc)
			r.Passed = n <= bound
			r.Detail = fmt.Sprintf("%d acked creates lost (commit-mode %s, replication %s: budget %d)", n, sc.Fleet.CommitMode, sc.Fleet.Replication, bound)
		case AssertOpsMin:
			r.Passed = float64(res.Workload.Ops) >= a.Value
			r.Detail = fmt.Sprintf("%d ops completed (want >= %s)", res.Workload.Ops, trimFloat(a.Value))
		case AssertErrorsMax:
			r.Passed = float64(res.Workload.Errors) <= a.Value
			r.Detail = fmt.Sprintf("%d errors (allow <= %s)", res.Workload.Errors, trimFloat(a.Value))
		case AssertErrRateLE:
			rate := 0.0
			if res.Workload.Attempted > 0 {
				rate = float64(res.Workload.Errors) / float64(res.Workload.Attempted)
			}
			r.Passed = rate <= a.Value
			r.Detail = fmt.Sprintf("error rate %.4f (allow <= %s)", rate, trimFloat(a.Value))
		case AssertFailoversMin, AssertFailoversMax:
			n := co.Registry().Counter("coordinator.failover.completed").Value()
			if a.Kind == AssertFailoversMin {
				r.Passed = float64(n) >= a.Value
			} else {
				r.Passed = float64(n) <= a.Value
			}
			r.Detail = fmt.Sprintf("%d failovers (want %s %s)", n, cmpWord(a.Kind), trimFloat(a.Value))
		case AssertMigrationsMin:
			n := co.Registry().Counter("coordinator.epoch.applied").Value()
			r.Passed = float64(n) >= a.Value
			r.Detail = fmt.Sprintf("%d epoch migrations applied (want >= %s)", n, trimFloat(a.Value))
		case AssertMapConverged:
			r.Passed = WaitUntil(a.Within, func() bool { return mapsConverged(cl, co) })
			r.Detail = fmt.Sprintf("live MDS maps vs coordinator v%d within %s", co.MapVersion(), a.Within)
		case AssertReplConverged:
			r.Passed = WaitUntil(a.Within, func() bool { return replConverged(cl) })
			r.Detail = fmt.Sprintf("all live shippers drained within %s", a.Within)
		case AssertP95LE:
			r.Passed = res.Workload.P95 <= a.Dur
			r.Detail = fmt.Sprintf("p95 %s (ceiling %s)", res.Workload.P95.Round(time.Microsecond), a.Dur)
		case AssertRPCPerOp:
			// Frames the SDK put on the wire per completed op, including the
			// cold setup pass — a warm lease cache amortises that to ~0.
			per := 0.0
			if res.Workload.Ops > 0 {
				per = float64(drv.sdk.Stats().RPCs) / float64(res.Workload.Ops)
			}
			r.Passed = res.Workload.Ops > 0 && per <= a.Value
			r.Detail = fmt.Sprintf("%.4f RPCs per op over %d ops (ceiling %s)", per, res.Workload.Ops, trimFloat(a.Value))
		}
		res.Assertions = append(res.Assertions, r)
	}
}

// lossWindowBound computes the acked-loss budget the fleet's durability
// config promises. Sync commit modes promise zero loss from the ack
// path itself; async commit adds its in-flight window (acked writes the
// crash may catch before they are durable). With replication on, every
// mode but sync-repl adds the shipper's unshipped tail on top — backlog
// plus one ship window — because a failover promotes a backup that
// never saw those records. sync-repl and replication off add nothing:
// sync-repl acks waited for the backup, and with replication off a
// kill/restart revives the primary's own (fsynced or
// torn-tail-recovered) WAL.
//
// The shipper frames whole records, but the budget still holds in ops:
// MaxBacklog and Window both count ops, an in-flight frame stays in the
// buffer until the backup acks it, and the buffer is dropped (for a
// snapshot resync that carries everything) the moment it holds more than
// MaxBacklog ops — so at most MaxBacklog acked ops are ever unshipped,
// however a frame's last record overshoots Window. A backup applies a
// frame whole, so a kill can only lose whole records, never part of one.
func lossWindowBound(sc *Scenario) int {
	bound := 0
	if sc.Fleet.CommitMode == "async" {
		if w := sc.Fleet.CommitWindow; w > 0 {
			bound += w
		} else {
			bound += commit.DefaultWindow
		}
	}
	if sc.Fleet.Replication == "on" && sc.Fleet.CommitMode != "sync-repl" {
		backlog, window := sc.Fleet.Backlog, sc.Fleet.Window
		if backlog <= 0 {
			backlog = replication.DefaultMaxBacklog
		}
		if window <= 0 {
			window = replication.DefaultWindow
		}
		bound += backlog + window
	}
	return bound
}

func cmpWord(kind string) string {
	if kind == AssertFailoversMin {
		return ">="
	}
	return "<="
}

// mapsConverged reports whether every live MDS serves a partition map at
// least as new as the coordinator's.
func mapsConverged(cl *server.Cluster, co *server.Coordinator) bool {
	want := co.MapVersion()
	for _, svc := range cl.Services {
		if svc == nil {
			continue
		}
		if svc.MapVersion() < want {
			return false
		}
	}
	return true
}

// replConverged reports whether every live shipper has drained: not
// snapshotting and zero lag.
func replConverged(cl *server.Cluster) bool {
	if !cl.ReplicationEnabled() {
		return true
	}
	for id := range cl.Services {
		if cl.Services[id] == nil {
			continue
		}
		sh := cl.ShipperOf(id)
		if sh == nil {
			continue
		}
		st := sh.Status()
		if st.Syncing || st.Lag != 0 {
			return false
		}
	}
	return true
}

// countMissing stats every acknowledged path through a fresh client and
// returns how many are gone. The ported chaos tests read it as
// RunResult.Workload.Lost.
func countMissing(cl *server.Cluster, acked []string) int {
	sdk, err := client.Dial(client.Config{
		Addrs: cl.Addrs, Cache: "off",
		RetryBackoff: 5 * time.Millisecond,
		LinkInjector: cl.ClientInjector,
	})
	if err != nil {
		return len(acked)
	}
	defer sdk.Close()
	// Bootstrap the partition map like a real fresh mount. Without it the
	// client follows on-disk redirect stubs, and a revived MDS with a
	// pre-failover store will happily serve stale reads (it never returns
	// NotOwner, so nothing triggers a refresh). The map's pin must win.
	sdk.RefreshMap()
	missing := 0
	for _, p := range acked {
		if _, err := sdk.Stat(p); err != nil {
			missing++
		}
	}
	return missing
}
