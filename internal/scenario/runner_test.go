package scenario

import (
	"reflect"
	"strings"
	"testing"
)

// A fast real-cluster scenario: 3 MDSs, a short mix workload, one
// migration storm and one balance epoch. Small enough for every
// `go test`, real enough to cover driver, engine, assertions, and
// report end to end.
const smokeScenario = `name: runner-smoke
description: "fast real-cluster smoke for go test"
seed: 5
duration: 600ms
fleet:
  mds: 3
  call-timeout: 1s
workload:
  kind: mix
  workers: 2
  write-pct: 40
  pre-files: 10
  root: smoke
events:
  - at: 150ms
    action: migration-storm
    count: 2
  - at: 350ms
    action: epoch
assertions:
  - kind: ops-min
    value: 20
  - kind: loss-window
  - kind: map-converged
    within: 5s
`

func TestRunnerSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("spins up a real cluster")
	}
	sc, err := Parse(smokeScenario)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(sc, Options{BaseDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range res.Assertions {
		if !a.Passed {
			t.Errorf("assert FAIL %-14s %s", a.Kind, a.Detail)
		}
	}
	if !res.Passed() && !t.Failed() {
		t.Error("Passed() false with every assertion green")
	}

	// The event log is precomputed from the schedule — the run must not
	// have appended, reordered, or reworded anything.
	var want []string
	for _, se := range Schedule(sc, sc.Seed) {
		want = append(want, se.Line())
	}
	if !reflect.DeepEqual(res.EventLog, want) {
		t.Errorf("event log drifted from the schedule:\n%v\n%v", res.EventLog, want)
	}

	if res.Migrations < 2 {
		t.Errorf("storm of 2 applied %d migrations", res.Migrations)
	}
	if res.Workload.Acked == 0 {
		t.Error("mix workload acknowledged no creates")
	}

	// Report rendering: text names the scenario and every assertion;
	// JSON stays valid (WriteJSON is exercised via the CLI's report).
	text := res.Text()
	for _, needle := range []string{"runner-smoke", "ops-min", "map-converged", "PASS"} {
		if !strings.Contains(text, needle) {
			t.Errorf("text report missing %q:\n%s", needle, text)
		}
	}
	var sb strings.Builder
	if err := res.WriteJSON(&sb); err != nil {
		t.Errorf("WriteJSON: %v", err)
	}
	if !strings.Contains(sb.String(), `"runner-smoke"`) {
		t.Error("JSON report does not name the scenario")
	}
}

// TestRunRejectsInvalid keeps Run honest about validation: programmatic
// scenarios get the same strictness as parsed files.
func TestRunRejectsInvalid(t *testing.T) {
	_, err := Run(&Scenario{Name: "bad"}, Options{})
	if err == nil {
		t.Fatal("Run accepted a scenario with no duration and no assertions")
	}
}
