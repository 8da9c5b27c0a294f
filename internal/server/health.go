package server

import (
	"fmt"
	"sync"

	"origami/internal/mds"
)

// HealthState is one MDS's liveness as seen by the coordinator.
type HealthState int

const (
	// Up: the last probe succeeded.
	Up HealthState = iota
	// Degraded: recent failures, but fewer than DownAfter in a row. The
	// coordinator still talks to a degraded MDS.
	Degraded
	// Down: DownAfter consecutive failures. The coordinator plans around
	// a down MDS until a probe succeeds again.
	Down
)

// String implements fmt.Stringer.
func (h HealthState) String() string {
	switch h {
	case Up:
		return "up"
	case Degraded:
		return "degraded"
	case Down:
		return "down"
	}
	return fmt.Sprintf("HealthState(%d)", int(h))
}

type mdsHealth struct {
	state       HealthState
	consecFails int
	lastErr     error
}

// HealthTracker maintains per-MDS up/degraded/down states from heartbeat
// probes and from RPC outcomes the coordinator reports as it works. It is
// safe for concurrent use.
type HealthTracker struct {
	mu     sync.Mutex
	cl     *Cluster
	status []mdsHealth

	// DownAfter is how many consecutive failures demote an MDS from
	// degraded to down (default 2).
	DownAfter int
}

// NewHealthTracker attaches a tracker to a cluster; every MDS starts Up.
func NewHealthTracker(cl *Cluster) *HealthTracker {
	return &HealthTracker{
		cl:        cl,
		status:    make([]mdsHealth, len(cl.Addrs)),
		DownAfter: 2,
	}
}

// State returns the current state of one MDS.
func (h *HealthTracker) State(id int) HealthState {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.status[id].state
}

// LastErr returns the failure that put an MDS in its current non-Up
// state, or nil.
func (h *HealthTracker) LastErr(id int) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.status[id].lastErr
}

// ReportSuccess records a successful RPC to an MDS, promoting it to Up.
func (h *HealthTracker) ReportSuccess(id int) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.status[id] = mdsHealth{state: Up}
}

// ReportFailure records a failed RPC to an MDS, demoting it to Degraded
// and, after DownAfter consecutive failures, to Down.
func (h *HealthTracker) ReportFailure(id int, err error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	st := &h.status[id]
	st.consecFails++
	st.lastErr = err
	if st.consecFails >= h.DownAfter {
		st.state = Down
	} else {
		st.state = Degraded
	}
}

// Check probes one MDS with a heartbeat ping and folds the outcome into
// its state.
func (h *HealthTracker) Check(id int) HealthState {
	_, err := h.cl.Conn(id).Call(mds.MethodPing, nil)
	if err != nil {
		h.ReportFailure(id, err)
	} else {
		h.ReportSuccess(id)
	}
	return h.State(id)
}

// CheckAll probes every MDS and returns the resulting states.
func (h *HealthTracker) CheckAll() []HealthState {
	out := make([]HealthState, len(h.cl.Addrs))
	for i := range h.cl.Addrs {
		out[i] = h.Check(i)
	}
	return out
}
