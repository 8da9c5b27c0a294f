package rpc

import (
	"errors"
	"math/rand"
	"sync"
	"time"
)

// InjectPoint identifies where in the frame path a fault fires.
type InjectPoint int

const (
	// PointClientSend intercepts a request about to leave the client.
	PointClientSend InjectPoint = iota
	// PointClientRecv intercepts a response arriving at the client.
	PointClientRecv
	// PointServerRecv intercepts a request arriving at the server.
	PointServerRecv
	// PointServerSend intercepts a response about to leave the server.
	PointServerSend
)

// FaultAction is what an injected fault does to the intercepted frame.
type FaultAction int

const (
	// FaultNone lets the frame through untouched.
	FaultNone FaultAction = iota
	// FaultDrop swallows the frame: a dropped request never reaches the
	// handler, a dropped response never reaches the caller. Pair with a
	// client CallTimeout, or the call blocks until the connection dies.
	FaultDrop
	// FaultDelay stalls the frame for Fault.Delay, then lets it through.
	FaultDelay
	// FaultError fails the frame: at a client point the call returns
	// Fault.Err (ErrInjected if nil); at a server point the request is
	// answered with an error response.
	FaultError
	// FaultDisconnect severs the connection the frame travels on.
	FaultDisconnect
)

// Fault is one injected failure.
type Fault struct {
	Action FaultAction
	Delay  time.Duration // for FaultDelay
	Err    error         // for FaultError (defaults to ErrInjected)
}

// ErrInjected is the default error of a FaultError injection.
var ErrInjected = errors.New("rpc: injected fault")

// FaultInjector intercepts frames on their way through a Client or
// Server. Implementations must be safe for concurrent use; returning the
// zero Fault lets the frame through.
type FaultInjector interface {
	Intercept(point InjectPoint, method Method) Fault
}

// MultiInjector is a FaultInjector that can stack several faults on one
// frame — e.g. a delay AND a probabilistic drop, which is how a lossy
// slow link is expressed. The transport consults InterceptAll when the
// injector implements it and applies the faults in order: delays
// accumulate, and the first terminal action (drop / error / disconnect)
// decides the frame's fate. Plain FaultInjectors keep their historical
// single-fault semantics.
type MultiInjector interface {
	FaultInjector
	InterceptAll(point InjectPoint, method Method) []Fault
}

// faultsFor collects the fault stack an injector yields for one frame:
// the full stack from a MultiInjector, or the single non-zero fault from
// a plain FaultInjector.
func faultsFor(fi FaultInjector, point InjectPoint, method Method) []Fault {
	if fi == nil {
		return nil
	}
	if mi, ok := fi.(MultiInjector); ok {
		return mi.InterceptAll(point, method)
	}
	if f := fi.Intercept(point, method); f.Action != FaultNone {
		return []Fault{f}
	}
	return nil
}

// resolveFaults flattens a fault stack into the caller's plan: the total
// delay to sleep (every FaultDelay in the stack accumulates, and a
// terminal fault's own Delay counts too), the first terminal fault
// (Action FaultNone when the frame passes), and how many faults fired
// (for telemetry).
func resolveFaults(fs []Fault) (delay time.Duration, term Fault, fired int) {
	for _, f := range fs {
		if f.Action == FaultNone {
			continue
		}
		fired++
		delay += f.Delay
		if f.Action != FaultDelay && term.Action == FaultNone {
			term = f
		}
	}
	return delay, term, fired
}

// InjectorFunc adapts a function to the FaultInjector interface.
type InjectorFunc func(point InjectPoint, method Method) Fault

// Intercept implements FaultInjector.
func (f InjectorFunc) Intercept(point InjectPoint, method Method) Fault {
	return f(point, method)
}

// Rule is one matching clause of a RuleInjector. The zero Method matches
// every method. Skip lets that many matching frames pass before the rule
// starts firing; Count then bounds how many times it fires (0 = forever).
// Prob < 1 makes firing probabilistic on the injector's seeded RNG.
type Rule struct {
	Point  InjectPoint
	Method Method  // 0 = any method
	Prob   float64 // firing probability; 0 means 1 (always)
	Skip   int     // matching frames to let through first
	Count  int     // max firings (0 = unlimited)
	Action FaultAction
	Delay  time.Duration
	Err    error
}

// RuleInjector is a seeded, scripted FaultInjector: the first matching
// rule that fires decides the frame and later rules are not consulted.
// The seed makes probabilistic rules reproducible for a fixed
// interleaving of calls.
type RuleInjector struct {
	mu    sync.Mutex
	rnd   *rand.Rand
	rules []Rule
	seen  []int // matching frames observed per rule
	fired []int // faults fired per rule
}

// NewRuleInjector builds a RuleInjector over the given rules.
func NewRuleInjector(seed int64, rules ...Rule) *RuleInjector {
	return &RuleInjector{
		rnd:   rand.New(rand.NewSource(seed)),
		rules: rules,
		seen:  make([]int, len(rules)),
		fired: make([]int, len(rules)),
	}
}

// Intercept implements FaultInjector.
func (ri *RuleInjector) Intercept(point InjectPoint, method Method) Fault {
	ri.mu.Lock()
	defer ri.mu.Unlock()
	for i := range ri.rules {
		r := &ri.rules[i]
		if r.Point != point {
			continue
		}
		if r.Method != 0 && r.Method != method {
			continue
		}
		ri.seen[i]++
		if ri.seen[i] <= r.Skip {
			continue
		}
		if r.Count > 0 && ri.fired[i] >= r.Count {
			continue
		}
		if r.Prob > 0 && r.Prob < 1 && ri.rnd.Float64() >= r.Prob {
			continue
		}
		ri.fired[i]++
		return Fault{Action: r.Action, Delay: r.Delay, Err: r.Err}
	}
	return Fault{}
}

// Fired returns how many faults rule i has injected so far.
func (ri *RuleInjector) Fired(i int) int {
	ri.mu.Lock()
	defer ri.mu.Unlock()
	return ri.fired[i]
}

// DownInjector simulates a dead server: every incoming request severs its
// connection, so callers fail fast instead of hanging. Clearing the
// injector "restarts" the server.
func DownInjector() FaultInjector {
	return InjectorFunc(func(point InjectPoint, method Method) Fault {
		if point == PointServerRecv {
			return Fault{Action: FaultDisconnect}
		}
		return Fault{}
	})
}
