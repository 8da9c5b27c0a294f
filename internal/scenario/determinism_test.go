package scenario

import (
	"path/filepath"
	"reflect"
	"testing"
	"time"
)

// TestScheduleDeterministic pins the core replay guarantee: the resolved
// timeline is a pure function of (scenario, seed). Same seed, same
// schedule — different seed moves the jittered entries.
func TestScheduleDeterministic(t *testing.T) {
	sc, err := ParseFile(filepath.Join("testdata", "everything.yaml"))
	if err != nil {
		t.Fatal(err)
	}
	a := Schedule(sc, 42)
	b := Schedule(sc, 42)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed produced different schedules:\n%v\n%v", a, b)
	}
	for i, se := range a {
		e := se.Event
		if se.At < e.At || se.At >= e.At+e.Jitter+1 {
			t.Errorf("entry %d fires at %v, outside [%v, %v]", i, se.At, e.At, e.At+e.Jitter)
		}
	}

	// The one jittered event (restart, jitter 50ms) should land somewhere
	// else under a different seed; scan a few seeds so an unlucky
	// collision cannot flake the test.
	restartAt := func(sched []ScheduledEvent) time.Duration {
		for _, se := range sched {
			if se.Action == ActRestart {
				return se.At
			}
		}
		t.Fatal("no restart event in everything.yaml")
		return 0
	}
	base := restartAt(a)
	moved := false
	for seed := int64(43); seed < 53; seed++ {
		if restartAt(Schedule(sc, seed)) != base {
			moved = true
			break
		}
	}
	if !moved {
		t.Error("jitter ignored the seed: restart fired at the same instant for 10 seeds")
	}
}

// TestScheduleLinesStable pins the event-log rendering itself — the
// byte-identical replay promise is about these strings.
func TestScheduleLinesStable(t *testing.T) {
	sc, err := ParseFile(filepath.Join("testdata", "everything.yaml"))
	if err != nil {
		t.Fatal(err)
	}
	var a, b []string
	for _, se := range Schedule(sc, 7) {
		a = append(a, se.Line())
	}
	for _, se := range Schedule(sc, 7) {
		b = append(b, se.Line())
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("event-log lines differ between identical schedules:\n%v\n%v", a, b)
	}
	want := "t=100ms seq=0 kill target=mds-1"
	if a[0] != want {
		t.Errorf("first event log line = %q, want %q", a[0], want)
	}
}
