package server

import (
	"fmt"
	"sync"
	"testing"

	"origami/internal/client"
	"origami/internal/kvstore"
	"origami/internal/loadgen"
)

// BenchmarkTCPClusterThroughput measures closed-loop metadata throughput
// against a live loopback cluster at several worker counts. The workload
// is an mdtest-style create storm with durable (group-committed) writes,
// where overlapped requests batch onto a single WAL fsync.
//
//	go test ./internal/server -bench TCPClusterThroughput -benchtime 5000x
//
// The scaling curve is recorded in EXPERIMENTS.md; `origami-bench -tcp`
// produces the same comparison with wall-clock-bounded runs.
func BenchmarkTCPClusterThroughput(b *testing.B) {
	for _, workers := range []int{1, 8, 32} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			cl, err := StartClusterOpts(1, b.TempDir(), kvstore.Options{SyncWAL: true})
			if err != nil {
				b.Fatal(err)
			}
			defer cl.Close()
			b.ResetTimer()
			res, err := loadgen.Run(loadgen.Config{
				Addrs:    cl.Addrs,
				Workers:  workers,
				TotalOps: int64(b.N),
				Root:     "bench",
				WritePct: 100,
				Seed:     1,
			})
			if err != nil {
				b.Fatal(err)
			}
			b.StopTimer()
			if res.Errors > 0 {
				b.Fatalf("%d of %d ops failed", res.Errors, res.Ops)
			}
			b.ReportMetric(res.Throughput(), "ops/s")
		})
	}
}

// BenchmarkDurableCreate is the live durable-mutation path under the
// profiler (`make profile`): two closed-loop SDK forks over loopback TCP
// against one sync-fsync shard, each creating in its own directory with
// a remove trailing every create once 16 files are live — the shape of
// the repository benchmark's create-storm, so a profile of this is a
// profile of that.
func BenchmarkDurableCreate(b *testing.B) {
	const workers, live = 2, 16
	cl, err := StartClusterConfig(1, b.TempDir(), ClusterConfig{
		CommitMode:      "sync-fsync",
		KvOpts:          kvstore.Options{SyncWAL: true, MemtableBytes: 1 << 20},
		TraceSampleRate: -1,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer cl.Close()
	root, err := client.Dial(client.Config{Addrs: cl.Addrs, TraceSampleRate: -1})
	if err != nil {
		b.Fatal(err)
	}
	defer root.Close()
	var sdk [workers]*client.Client
	for w := range sdk {
		if _, err := root.Mkdir(fmt.Sprintf("/w%d", w)); err != nil {
			b.Fatal(err)
		}
		sdk[w] = root.Fork()
	}
	b.ReportAllocs()
	b.ResetTimer()
	var wg sync.WaitGroup
	for w := range sdk {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			created, removed := 0, 0
			for i := 0; i < b.N/workers; i++ {
				var err error
				if created-removed >= live {
					err = sdk[w].Remove(fmt.Sprintf("/w%d/t%08d", w, removed))
					removed++
				} else {
					_, err = sdk[w].Create(fmt.Sprintf("/w%d/t%08d", w, created))
					created++
				}
				if err != nil {
					b.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}
