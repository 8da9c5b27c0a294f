package scenario

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"
)

var update = flag.Bool("update", false, "rewrite the golden files")

// TestGoldenRoundTrip pins the parser against golden files: the parsed
// scenario, defaults applied, marshalled as JSON must match the .golden
// byte for byte — every field the decoder fills and every default
// Validate applies. Validating the parsed scenario again must change
// nothing.
func TestGoldenRoundTrip(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("testdata", "*.yaml"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no testdata scenarios: %v", err)
	}
	for _, file := range files {
		t.Run(filepath.Base(file), func(t *testing.T) {
			sc, err := ParseFile(file)
			if err != nil {
				t.Fatal(err)
			}
			got, err := json.MarshalIndent(sc, "", "  ")
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, '\n')
			golden := strings.TrimSuffix(file, ".yaml") + ".golden"
			if *update {
				if err := os.WriteFile(golden, got, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("%v (run with -update to regenerate)", err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("parsed scenario drifted from %s:\n--- got ---\n%s--- want ---\n%s", golden, got, want)
			}

			if err := revalidate(sc); err != nil {
				t.Error(err)
			}
		})
	}
}

// revalidate runs Validate on a deep copy of an accepted scenario and
// reports whether it was refused or changed: defaults apply once.
func revalidate(sc *Scenario) error {
	again := *sc
	again.Events = append([]Event(nil), sc.Events...)
	again.Assertions = append([]Assertion(nil), sc.Assertions...)
	if err := again.Validate(); err != nil {
		return fmt.Errorf("second Validate refused an accepted scenario: %v", err)
	}
	if !reflect.DeepEqual(sc, &again) {
		return fmt.Errorf("second Validate changed the scenario:\nfirst:  %+v\nsecond: %+v", sc, &again)
	}
	return nil
}

// TestEverythingCoversVocabulary fails when a new event action or
// assertion kind is added without extending the golden scenario — the
// round-trip test only protects what the file exercises.
func TestEverythingCoversVocabulary(t *testing.T) {
	sc, err := ParseFile(filepath.Join("testdata", "everything.yaml"))
	if err != nil {
		t.Fatal(err)
	}
	actions := map[string]bool{}
	for _, e := range sc.Events {
		actions[e.Action] = true
	}
	for a := range knownActions {
		if !actions[a] {
			t.Errorf("everything.yaml has no %q event", a)
		}
	}
	asserts := map[string]bool{}
	for _, a := range sc.Assertions {
		asserts[a.Kind] = true
	}
	for a := range knownAsserts {
		if !asserts[a] {
			t.Errorf("everything.yaml has no %q assertion", a)
		}
	}
}

const minimalScenario = `name: t
seed: 1
duration: 1s
fleet:
  mds: 3
workload:
  kind: mix
assertions:
  - kind: ops-min
    value: 1
`

// mutate applies a line-level edit to the minimal scenario.
func mutate(old, new string) string {
	return strings.Replace(minimalScenario, old, new, 1)
}

func TestParseRejects(t *testing.T) {
	cases := []struct {
		name, src, wantErr string
	}{
		{"unknown top-level key", mutate("seed: 1", "sede: 1"), `unknown key "sede"`},
		{"unknown fleet key", mutate("mds: 3", "mds: 3\n  hearbeat: 25ms"), `unknown key "hearbeat"`},
		{"unknown workload key", mutate("kind: mix", "kind: mix\n  wrokers: 4"), `unknown key "wrokers"`},
		{"unknown assertion key", mutate("value: 1", "value: 1\n    witin: 5s"), `unknown key "witin"`},
		{"unknown event key", mutate("assertions:", "events:\n  - at: 1ms\n    action: kill\n    tagret: mds-1\nassertions:"), `unknown key "tagret"`},
		{"duplicate key", mutate("duration: 1s", "duration: 1s\nduration: 2s"), `duplicate key "duration"`},
		{"tab indentation", mutate("  mds: 3", "\tmds: 3"), "tab"},
		{"unknown action", mutate("assertions:", "events:\n  - at: 1ms\n    action: explode\nassertions:"), `unknown action "explode"`},
		{"unknown assertion", mutate("kind: ops-min", "kind: ops-max"), `unknown assertion "ops-max"`},
		{"event past duration", mutate("assertions:", "events:\n  - at: 2s\n    action: heal\nassertions:"), "outside the 1s run"},
		{"jitter overflows the run", mutate("duration: 1s", "duration: 2562047h") + "events:\n  - at: 2562047h\n    jitter: 2562047h\n    action: heal\n", "outside the"},
		{"non-finite number", mutate("value: 1", "value: NaN"), `bad number "NaN"`},
		{"bad mds target", mutate("assertions:", "events:\n  - at: 1ms\n    action: kill\n    target: mds-7\nassertions:"), "no such MDS"},
		{"duplicate partition node", mutate("assertions:", "events:\n  - at: 1ms\n    action: partition\n    groups: \"0,1|1,2\"\nassertions:"), "node 1 appears twice"},
		{"single partition group", mutate("assertions:", "events:\n  - at: 1ms\n    action: partition\n    groups: \"0,1,2\"\nassertions:"), ">= 2 groups"},
		{"no assertions", strings.Replace(minimalScenario, "assertions:\n  - kind: ops-min\n    value: 1\n", "", 1), "no assertions"},
		{"loss without mix", mutate("kind: mix", "kind: none") + "  - kind: loss-window\n", "needs the mix workload"},
		{"loss-window with value", minimalScenario + "  - kind: loss-window\n    value: 10\n", "loss-window takes no value"},
		{"p95 without dur", mutate("kind: ops-min\n    value: 1", "kind: p95-le"), "needs a duration"},
		{"convergence without within", mutate("kind: ops-min\n    value: 1", "kind: map-converged"), "needs within"},
		{"bad replication mode", mutate("mds: 3", "mds: 3\n  replication: paxos"), `replication "paxos"`},
		{"stress block", mutate("seed: 1", "seed: 1\nstress:\n  fleet: 10"), `unknown key "stress"`},
		{"negative write-pct", mutate("kind: mix", "kind: mix\n  write-pct: -1"), "write-pct -1 outside 0..100"},
		{"write-pct over 100", mutate("kind: mix", "kind: mix\n  write-pct: 101"), "write-pct 101 outside 0..100"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Parse(tc.src)
			if err == nil {
				t.Fatalf("parse accepted invalid scenario:\n%s", tc.src)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %q does not mention %q", err, tc.wantErr)
			}
		})
	}
}

// TestValidateAppliesDefaultsOnce pins Validate as a fixed point on the
// workload defaults: "pre-files: -1" (none) must survive Run's second
// Validate instead of turning into the default 50, and a stat workload
// with nothing to stat is refused up front — Run must return the error
// rather than start workers that draw from an empty target set.
func TestValidateAppliesDefaultsOnce(t *testing.T) {
	sc, err := Parse(mutate("kind: mix", "kind: mix\n  pre-files: -1"))
	if err != nil {
		t.Fatal(err)
	}
	if err := revalidate(sc); err != nil {
		t.Error(err)
	}
	if n := sc.Workload.PreFiles; n > 0 {
		t.Errorf("pre-files: -1 validated to %d pre-created files, want none", n)
	}

	stat := &Scenario{
		Name: "stat-nothing", Duration: time.Second,
		Fleet:      FleetSpec{MDS: 1},
		Workload:   WorkloadSpec{Kind: "stat", PreFiles: -1},
		Assertions: []Assertion{{Kind: AssertOpsMin, Value: 1}},
	}
	if _, err := Run(stat, Options{}); err == nil || !strings.Contains(err.Error(), "pre-files") {
		t.Fatalf("Run of a stat workload with no pre-files: err %v, want a validation error", err)
	}
}

// TestWritePctZeroIsReadOnly pins the write-pct rule: a file that names
// no write-pct gets the default 30, an explicit 0 is a read-only mix and
// survives a second Validate, and so does 100.
func TestWritePctZeroIsReadOnly(t *testing.T) {
	for _, tc := range []struct {
		name, src string
		want      int
	}{
		{"absent", minimalScenario, defaultWritePct},
		{"no workload block", strings.Replace(minimalScenario, "workload:\n  kind: mix\n", "", 1), defaultWritePct},
		{"explicit 0", mutate("kind: mix", "kind: mix\n  write-pct: 0"), 0},
		{"explicit 100", mutate("kind: mix", "kind: mix\n  write-pct: 100"), 100},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sc, err := Parse(tc.src)
			if err != nil {
				t.Fatal(err)
			}
			if sc.Workload.WritePct != tc.want {
				t.Errorf("WritePct = %d, want %d", sc.Workload.WritePct, tc.want)
			}
			if err := revalidate(sc); err != nil {
				t.Error(err)
			}
		})
	}
}

// TestUnknownKeyNamesLine checks the strict decoder points at the
// offending line, not just the key.
func TestUnknownKeyNamesLine(t *testing.T) {
	src := "name: t\nseed: 1\nbogus: 9\n"
	_, err := Parse(src)
	if err == nil {
		t.Fatal("parse accepted an unknown key")
	}
	if !strings.Contains(err.Error(), "line 3") {
		t.Fatalf("error %q does not name line 3", err)
	}
}

// TestLibraryScenariosParse keeps every shipped scenario loadable: a
// library file that stops parsing is a regression even before it runs.
func TestLibraryScenariosParse(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("..", "..", "scenarios", "*.yaml"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no library scenarios found: %v", err)
	}
	if len(files) < 10 {
		t.Errorf("library has %d scenarios, the harness promises >= 10", len(files))
	}
	for _, file := range files {
		if _, err := ParseFile(file); err != nil {
			t.Errorf("%s: %v", filepath.Base(file), err)
		}
	}
}
