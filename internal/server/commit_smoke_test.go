package server

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"origami/internal/client"
	"origami/internal/commit"
)

// TestCommitSmokeClusterModes is the end-to-end commit-pipeline smoke
// behind `make commit-smoke`: for every durability policy, a batching
// SDK storms a real TCP cluster with concurrent creates and the test
// checks the full contract — every acked create is readable, the
// pipeline drains to zero in-flight, and the commit.* telemetry adds
// up. Run under -race this sweeps the whole pipelined-submission path:
// client coalescing, the multi-op frame, the atomic shard apply, the
// WAL batch record, and the per-mode ack plumbing. Only the commit
// mode decides whether an ack was fsynced: the sync modes (the default
// "" among them) must lead WAL fsyncs without any store option, and
// async with SyncWAL unset leads none.
func TestCommitSmokeClusterModes(t *testing.T) {
	if testing.Short() {
		t.Skip("spins up real clusters")
	}
	for _, mode := range append([]string{""}, commit.ModeNames...) {
		want, _ := commit.ParseMode(mode)
		name := mode
		if name == "" {
			name = "default"
		}
		t.Run(name, func(t *testing.T) {
			n := 1
			if want == commit.SyncRepl {
				n = 2 // the ack rides the backup
			}
			cl, err := StartClusterConfig(n, t.TempDir(), ClusterConfig{
				CommitMode:   mode,
				CommitWindow: 32,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer cl.Close()
			if n >= 2 {
				if err := cl.EnableReplication(nil); err != nil {
					t.Fatal(err)
				}
			}
			sdk, err := client.Dial(client.Config{
				Addrs:       cl.Addrs,
				Cache:       "leases",
				BatchWindow: 8,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer sdk.Close()

			const workers, perWorker = 4, 32
			walBefore := cl.Services[0].StoreStats()
			if _, err := sdk.Mkdir("/smoke"); err != nil {
				t.Fatal(err)
			}
			var wg sync.WaitGroup
			errs := make(chan error, workers*perWorker)
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for i := 0; i < perWorker; i++ {
						if _, err := sdk.Create(fmt.Sprintf("/smoke/w%d-f%03d", w, i)); err != nil {
							errs <- fmt.Errorf("create w%d f%d: %w", w, i, err)
						}
					}
				}(w)
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Error(err)
			}

			// Every acked create must be readable back — in async mode too:
			// the window bounds crash loss, not visibility.
			for w := 0; w < workers; w++ {
				for i := 0; i < perWorker; i++ {
					if _, err := sdk.Stat(fmt.Sprintf("/smoke/w%d-f%03d", w, i)); err != nil {
						t.Fatalf("acked create not readable (w%d f%d): %v", w, i, err)
					}
				}
			}

			p := cl.PipelineOf(0)
			if p.Mode() != want {
				t.Fatalf("pipeline mode %s, want %s", p.Mode(), want)
			}
			p.Drain()
			if p.Inflight() != 0 {
				t.Errorf("inflight %d after drain", p.Inflight())
			}
			wal := cl.Services[0].StoreStats()
			records, syncs := wal.WALRecords-walBefore.WALRecords, wal.WALSyncs-walBefore.WALSyncs
			if want != commit.Async && syncs == 0 {
				t.Errorf("%s acked %d WAL records with no fsync", want, records)
			}
			if want == commit.Async && syncs != 0 {
				t.Errorf("async without SyncWAL led %d WAL fsyncs, want 0", syncs)
			}
			reg := cl.Services[0].Registry()
			acked := reg.Counter("commit.ops.acked").Value()
			durable := reg.Counter("commit.ops.durable").Value()
			if acked == 0 {
				t.Error("no commits acked through the pipeline")
			}
			if durable < acked {
				t.Errorf("durable %d < acked %d after drain", durable, acked)
			}
			if errs := reg.Counter("commit.durable.errors").Value(); errs != 0 {
				t.Errorf("%d background durability errors", errs)
			}
			// The batcher must actually have coalesced: fewer frames than ops.
			st := sdk.Stats()
			if st.BatchFrames == 0 {
				t.Error("no batched frames — the smoke never exercised pipelined submission")
			}
			t.Logf("mode=%s acked=%d durable=%d frames=%d batched_ops=%d wal_records=%d wal_syncs=%d",
				want, acked, durable, st.BatchFrames, st.BatchedOps, records, syncs)
		})
	}
}

// TestCommitSmokeReplicationKeepsCommitMode pins the one durability
// spelling: the commit mode is the cluster's configuration alone.
// Enabling replication leaves it as configured, and each shard's build
// info (the buildinfo RPC and the admin /buildinfo alike) names both.
func TestCommitSmokeReplicationKeepsCommitMode(t *testing.T) {
	for mode, want := range map[string]commit.Mode{"": commit.SyncFsync, "sync-repl": commit.SyncRepl} {
		cl, err := StartClusterConfig(2, t.TempDir(), ClusterConfig{CommitMode: mode})
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close()
		if err := cl.EnableReplication(nil); err != nil {
			t.Fatal(err)
		}
		if got := cl.CommitMode(); got != want {
			t.Errorf("CommitMode %q: mode %s after EnableReplication, want %s", mode, got, want)
		}
		feats := strings.Join(cl.Services[0].BuildInfo().Features, ",")
		if wantFeats := "commit-" + want.String() + ",replication,tracing"; feats != wantFeats {
			t.Errorf("CommitMode %q: build features %s, want %s", mode, feats, wantFeats)
		}
	}
}
