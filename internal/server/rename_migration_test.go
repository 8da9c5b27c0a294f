package server

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"origami/internal/client"
)

// TestCrossShardRenameUnderMigrationKeepsAckedRenames renames files across
// shards while the coordinator keeps migrating the destination directory
// between two other shards. Before the insert leg became a MethodBatch
// sub-op it ran outside the migration freeze and without an ownership
// check, so an insert racing a migration landed on the old owner and the
// acknowledged rename was invisible from then on. Every acked rename must
// be visible through Stat and Readdir, over 20 seeded schedules.
func TestCrossShardRenameUnderMigrationKeepsAckedRenames(t *testing.T) {
	const workers, perWorker = 2, 12
	for seed := int64(0); seed < 20; seed++ {
		cl, sdk := startTestCluster(t, 3)
		co := NewCoordinator(cl)
		if _, err := sdk.Mkdir("/src"); err != nil {
			t.Fatal(err)
		}
		dst, err := sdk.Mkdir("/dst")
		if err != nil {
			t.Fatal(err)
		}
		for w := 0; w < workers; w++ {
			for i := 0; i < perWorker; i++ {
				if _, err := sdk.Create(fmt.Sprintf("/src/w%d-f%02d", w, i)); err != nil {
					t.Fatal(err)
				}
			}
		}
		// /src stays on MDS 0; /dst starts on MDS 1, so every rename is
		// an insert on /dst's owner plus a remove on MDS 0.
		if err := co.Migrate(dst.Ino, 0, 1); err != nil {
			t.Fatal(err)
		}

		var wg sync.WaitGroup
		acked := make([][]string, workers)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				rnd := rand.New(rand.NewSource(seed*31 + int64(w)))
				c, err := client.Dial(client.Config{Addrs: cl.Addrs, Cache: "leases"})
				if err != nil {
					t.Error(err)
					return
				}
				defer c.Close()
				for i := 0; i < perWorker; i++ {
					name := fmt.Sprintf("w%d-f%02d", w, i)
					time.Sleep(time.Duration(rnd.Intn(300)) * time.Microsecond)
					if err := c.Rename("/src/"+name, "/dst/"+name); err == nil {
						acked[w] = append(acked[w], name)
					}
				}
			}(w)
		}
		renamesDone := make(chan struct{})
		go func() { wg.Wait(); close(renamesDone) }()
		rnd := rand.New(rand.NewSource(seed))
		for owner, moving := 1, true; moving; {
			select {
			case <-renamesDone:
				moving = false
			default:
				next := 3 - owner // bounce between MDS 1 and MDS 2
				if err := co.Migrate(dst.Ino, owner, next); err != nil {
					t.Fatalf("seed %d: migrate /dst %d->%d: %v", seed, owner, next, err)
				}
				owner = next
				time.Sleep(time.Duration(rnd.Intn(2000)) * time.Microsecond)
			}
		}

		check, err := client.Dial(client.Config{Addrs: cl.Addrs, Cache: "off"})
		if err != nil {
			t.Fatal(err)
		}
		listed := map[string]bool{}
		ents, err := check.Readdir("/dst")
		if err != nil {
			t.Fatalf("seed %d: readdir /dst: %v", seed, err)
		}
		for _, in := range ents {
			listed[in.Name] = true
		}
		total := 0
		for w := range acked {
			total += len(acked[w])
			for _, name := range acked[w] {
				if _, err := check.Stat("/dst/" + name); err != nil {
					t.Errorf("seed %d: acked rename of %s lost: stat: %v", seed, name, err)
				}
				if !listed[name] {
					t.Errorf("seed %d: acked rename of %s missing from readdir", seed, name)
				}
				if _, err := check.Stat("/src/" + name); err == nil {
					t.Errorf("seed %d: acked rename of %s left the source behind", seed, name)
				}
			}
		}
		if total < workers*perWorker/2 {
			t.Errorf("seed %d: only %d of %d renames acknowledged", seed, total, workers*perWorker)
		}
		check.Close()
		sdk.Close()
		cl.Close()
	}
}
