package rpc

import (
	"errors"
	"testing"
	"time"
)

// TestResolveFaultsStacking covers the stacking contract: delays
// accumulate (a terminal fault's own delay included), the first terminal
// action wins, and FaultNone entries are inert.
func TestResolveFaultsStacking(t *testing.T) {
	errA := errors.New("a")
	delay, term, fired := resolveFaults([]Fault{
		{}, // none: must not count as fired
		{Action: FaultDelay, Delay: 2 * time.Millisecond},
		{Action: FaultError, Delay: time.Millisecond, Err: errA},
		{Action: FaultDrop}, // later terminal: ignored for the verdict
	})
	if delay != 3*time.Millisecond {
		t.Errorf("delay = %v, want 3ms (delays accumulate)", delay)
	}
	if term.Action != FaultError || term.Err != errA {
		t.Errorf("terminal = %+v, want the first FaultError", term)
	}
	if fired != 3 {
		t.Errorf("fired = %d, want 3", fired)
	}

	delay, term, fired = resolveFaults([]Fault{{Action: FaultDelay, Delay: time.Millisecond}})
	if delay != time.Millisecond || term.Action != FaultNone || fired != 1 {
		t.Errorf("pure delay resolved to (%v, %+v, %d)", delay, term, fired)
	}
}
