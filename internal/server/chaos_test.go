package server

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"origami/internal/client"
	"origami/internal/namespace"
	"origami/internal/replication"
	"origami/internal/rpc"
)

// TestChaosFailoverRenameStormKeepsRecordsWhole kills a primary in the
// middle of a rename storm and promotes its backup. Replication ships
// with Window 1, and the backup refuses every Append after the storm's
// first, so the promoted replica ends exactly one frame into the storm —
// a cut that falls inside the first rename's record if frames can split
// records. A rename is one record (delete old, put new), and frames carry
// whole records, so on the promoted node every file — every acknowledged
// rename's included — shows exactly one of its two names.
func TestChaosFailoverRenameStormKeepsRecordsWhole(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos test")
	}
	const primary, backup, files, workers = 1, 2, 64, 4
	cl, err := StartCluster(3, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := cl.EnableReplication(func(o *replication.Options) {
		o.Window = 1
		o.RetryBackoff = 5 * time.Millisecond
	}); err != nil {
		t.Fatal(err)
	}
	co := NewCoordinator(cl)
	sdk, err := client.Dial(client.Config{Addrs: cl.Addrs})
	if err != nil {
		t.Fatal(err)
	}
	defer sdk.Close()
	dir, err := sdk.Mkdir("/storm")
	if err != nil {
		t.Fatal(err)
	}
	if err := co.Migrate(dir.Ino, 0, primary); err != nil {
		t.Fatal(err)
	}
	if err := sdk.RefreshMap(); err != nil {
		t.Fatal(err)
	}
	name := func(prefix string, i int) string { return fmt.Sprintf("%s%03d", prefix, i) }
	for i := 0; i < files; i++ {
		if _, err := sdk.Create("/storm/" + name("f", i)); err != nil {
			t.Fatal(err)
		}
	}
	converged := func() bool {
		st := cl.ShipperOf(primary).Status()
		return !st.Syncing && st.Lag == 0
	}
	for deadline := time.Now().Add(10 * time.Second); !converged(); time.Sleep(2 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("backup never caught up: %+v", cl.ShipperOf(primary).Status())
		}
	}
	cl.Services[backup].Server().SetFaultInjector(rpc.NewRuleInjector(1, rpc.Rule{
		Point: rpc.PointServerRecv, Method: replication.MethodAppend, Skip: 1, Action: rpc.FaultError,
	}))

	// The storm: every worker renames its share of f* to g*; the primary
	// dies once a few renames are acknowledged.
	var acked atomic.Int64
	var stop atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < files && !stop.Load(); i += workers {
				if sdk.Rename("/storm/"+name("f", i), "/storm/"+name("g", i)) == nil {
					acked.Add(1)
				}
			}
		}(w)
	}
	for deadline := time.Now().Add(10 * time.Second); acked.Load() < 8; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the storm acknowledged no renames")
		}
	}
	if err := cl.StopMDS(primary); err != nil {
		t.Fatal(err)
	}
	stop.Store(true)
	wg.Wait()
	if err := co.Failover(primary); err != nil {
		t.Fatal(err)
	}

	promoted := cl.Services[backup].Store()
	for i := 0; i < files; i++ {
		_, hasOld, _ := promoted.Lookup(dir.Ino, name("f", i))
		_, hasNew, _ := promoted.Lookup(dir.Ino, name("g", i))
		if hasOld == hasNew {
			t.Errorf("file %d on the promoted node: old name %v, new name %v — a rename record arrived in part", i, hasOld, hasNew)
		}
	}
	t.Logf("%d renames acknowledged before the kill", acked.Load())
}

// TestChaosOpsMigrationsRestarts interleaves random namespace mutations,
// random subtree migrations, and full-cluster restarts, cross-checking
// the cluster against a model of expected paths after every phase. It is
// the networked stack's end-to-end durability and redirect torture test.
func TestChaosOpsMigrationsRestarts(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos test")
	}
	dir := t.TempDir()
	rnd := rand.New(rand.NewSource(7))

	model := map[string]bool{} // path -> isDir
	dirs := []string{}         // known dirs, "/" excluded

	cl, err := StartCluster(3, dir)
	if err != nil {
		t.Fatal(err)
	}
	sdk, err := client.Dial(client.Config{Addrs: cl.Addrs, Cache: "leases"})
	if err != nil {
		t.Fatal(err)
	}
	co := NewCoordinator(cl)

	reconnect := func() {
		sdk.Close()
		cl.Close()
		cl, err = StartCluster(3, dir)
		if err != nil {
			t.Fatalf("restart: %v", err)
		}
		sdk, err = client.Dial(client.Config{Addrs: cl.Addrs, Cache: "leases"})
		if err != nil {
			t.Fatalf("reconnect: %v", err)
		}
		co = NewCoordinator(cl)
	}
	defer func() {
		sdk.Close()
		cl.Close()
	}()

	seq := 0
	for round := 0; round < 6; round++ {
		// Phase 1: random mutations.
		for i := 0; i < 40; i++ {
			switch rnd.Intn(10) {
			case 0, 1, 2: // mkdir
				parent := "/"
				if len(dirs) > 0 && rnd.Intn(2) == 0 {
					parent = dirs[rnd.Intn(len(dirs))]
				}
				p := fmt.Sprintf("%s/d%04d", parent, seq)
				if parent == "/" {
					p = fmt.Sprintf("/d%04d", seq)
				}
				seq++
				if _, err := sdk.Mkdir(p); err != nil {
					t.Fatalf("round %d mkdir %s: %v", round, p, err)
				}
				model[p] = true
				dirs = append(dirs, p)
			case 3: // remove a file
				for p, isDir := range model {
					if !isDir {
						if err := sdk.Remove(p); err != nil {
							t.Fatalf("round %d remove %s: %v", round, p, err)
						}
						delete(model, p)
						break
					}
				}
			default: // create
				parent := "/"
				if len(dirs) > 0 {
					parent = dirs[rnd.Intn(len(dirs))]
				}
				p := fmt.Sprintf("%s/f%04d", parent, seq)
				if parent == "/" {
					p = fmt.Sprintf("/f%04d", seq)
				}
				seq++
				if _, err := sdk.Create(p); err != nil {
					t.Fatalf("round %d create %s: %v", round, p, err)
				}
				model[p] = false
			}
		}
		// Phase 2: random migration of a random directory.
		if len(dirs) > 0 {
			p := dirs[rnd.Intn(len(dirs))]
			in, err := sdk.Stat(p)
			if err != nil {
				t.Fatalf("round %d stat %s: %v", round, p, err)
			}
			pins := co.Pins()
			from := 0
			// Walk up for the effective owner using the coordinator's map.
			if m, ok := pins[in.Ino]; ok {
				from = m
			} else {
				// Parent chain unknown client-side; ask each possible
				// source until one accepts. (Chaos tests may try wrong
				// sources; the coordinator rejects them safely.)
				from = -1
				for cand := 0; cand < 3; cand++ {
					if err := co.Migrate(in.Ino, cand, (cand+1)%3); err == nil {
						from = cand
						break
					}
				}
			}
			if from >= 0 {
				if m, ok := pins[in.Ino]; ok && m == from {
					to := (from + 1) % 3
					if err := co.Migrate(in.Ino, from, to); err != nil {
						t.Fatalf("round %d migrate %s: %v", round, p, err)
					}
				}
			}
		}
		// Phase 3: occasional full restart.
		if round%2 == 1 {
			reconnect()
		}
		// Phase 4: verify the model.
		for p, isDir := range model {
			in, err := sdk.Stat(p)
			if err != nil {
				t.Fatalf("round %d: model path %s unresolvable: %v", round, p, err)
			}
			if isDir != (in.Type == namespace.TypeDir) {
				t.Fatalf("round %d: %s type mismatch", round, p)
			}
		}
	}
}

// TestChaosKillMDSMidEpoch kills one MDS in the middle of a balancing
// epoch — after the coordinator has collected its dump, but before the
// map publish reaches it — then verifies the epoch completes degraded,
// the next epoch skips the dead shard entirely, and a genuine
// stop/restart plus one reconciliation round restores a consistent
// cluster-wide partition map.
func TestChaosKillMDSMidEpoch(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos test")
	}
	dir := t.TempDir()
	cl, err := StartCluster(3, dir)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	sdk, err := client.Dial(client.Config{Addrs: cl.Addrs, Cache: "leases"})
	if err != nil {
		t.Fatal(err)
	}
	co := NewCoordinator(cl)

	// Three hot subtrees on MDS 0 so the planner spreads migrations over
	// both other shards — at least one lands on the surviving MDS 1.
	var paths []string
	for s := 0; s < 3; s++ {
		d := fmt.Sprintf("/h%d", s)
		if _, err := sdk.Mkdir(d); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 8; i++ {
			p := fmt.Sprintf("%s/f%d", d, i)
			if _, err := sdk.Create(p); err != nil {
				t.Fatal(err)
			}
			paths = append(paths, p)
		}
	}
	for round := 0; round < 200; round++ {
		for s := 0; s < 3; s++ {
			if _, err := sdk.Stat(fmt.Sprintf("/h%d/f%d", s, round%8)); err != nil {
				t.Fatal(err)
			}
		}
	}

	// Mid-epoch kill: let the heartbeat ping and the epoch dump through
	// (Skip: 2), then sever every connection — migrations into MDS 2 and
	// its map publish fail while the epoch is already underway.
	const victim = 2
	cl.Services[victim].Server().SetFaultInjector(rpc.NewRuleInjector(3, rpc.Rule{
		Point:  rpc.PointServerRecv,
		Skip:   2,
		Action: rpc.FaultDisconnect,
	}))

	res, err := co.RunEpoch()
	if err != nil {
		t.Fatalf("mid-epoch kill aborted the epoch: %v", err)
	}
	if !res.Degraded() {
		t.Fatal("epoch with a mid-epoch kill not reported degraded")
	}
	if len(res.Applied) == 0 {
		t.Fatal("no migration survived onto the healthy shard")
	}
	for _, d := range res.Applied {
		if int(d.To) == victim {
			t.Errorf("migration %v claims to have committed into the dead MDS", d)
		}
	}
	staleOrSkipped := false
	for _, id := range append(append([]int{}, res.StaleMDS...), res.SkippedMDS...) {
		if id == victim {
			staleOrSkipped = true
		}
	}
	if !staleOrSkipped {
		t.Errorf("dead MDS absent from StaleMDS %v and SkippedMDS %v", res.StaleMDS, res.SkippedMDS)
	}

	// The next epoch plans around the dead shard from the start.
	res2, err := co.RunEpoch()
	if err != nil {
		t.Fatalf("epoch over the survivors: %v", err)
	}
	skipped := false
	for _, id := range res2.SkippedMDS {
		if id == victim {
			skipped = true
		}
	}
	if !skipped {
		t.Errorf("dead shard not skipped: SkippedMDS = %v", res2.SkippedMDS)
	}

	// Genuine crash/restart: the shard comes back from its on-disk state
	// on a fresh address, with an out-of-date partition map.
	if err := cl.StopMDS(victim); err != nil {
		t.Fatal(err)
	}
	if err := cl.RestartMDS(victim); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for co.Health.Check(victim) != Up {
		if time.Now().After(deadline) {
			t.Fatalf("restarted MDS unreachable: %v", co.Health.LastErr(victim))
		}
		time.Sleep(10 * time.Millisecond)
	}
	updated := co.Reconcile()
	caught := false
	for _, id := range updated {
		if id == victim {
			caught = true
		}
	}
	if !caught {
		t.Errorf("Reconcile updated %v, want it to include %d", updated, victim)
	}
	for i := range cl.Services {
		if v := cl.Services[i].MapVersion(); v != co.MapVersion() {
			t.Errorf("MDS %d map version %d, want %d", i, v, co.MapVersion())
		}
	}

	// Every path still resolves for a fresh client against the healed
	// cluster (the restarted shard listens on a new address).
	sdk.Close()
	sdk2, err := client.Dial(client.Config{Addrs: cl.Addrs, Cache: "leases"})
	if err != nil {
		t.Fatal(err)
	}
	defer sdk2.Close()
	for _, p := range paths {
		if _, err := sdk2.Stat(p); err != nil {
			t.Errorf("post-heal stat %s: %v", p, err)
		}
	}
}
