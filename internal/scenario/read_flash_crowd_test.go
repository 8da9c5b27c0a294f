package scenario

import (
	"path/filepath"
	"testing"
)

// TestChaosReadFlashCrowd runs the library's read-flash-crowd scenario
// against a real cluster: a stat/readdir storm on one directory must be
// absorbed by the lease cache (a bounded RPC-per-op rate), lose no acked
// write, and leave every MDS on the coordinator's map. This is the
// read-path counterpart to the kill/partition chaos scenarios.
func TestChaosReadFlashCrowd(t *testing.T) {
	if testing.Short() {
		t.Skip("spins up a real cluster")
	}
	res, err := RunFile(filepath.Join("..", "..", "scenarios", "read-flash-crowd.yaml"), Options{BaseDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range res.Assertions {
		if !a.Passed {
			t.Errorf("assert FAIL %-14s %s", a.Kind, a.Detail)
		}
	}
}
