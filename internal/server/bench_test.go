package server

import (
	"context"
	"fmt"
	"runtime/pprof"
	"sync"
	"testing"

	"origami/internal/balancer"
	"origami/internal/client"
	"origami/internal/costmodel"
	"origami/internal/kvstore"
	"origami/internal/trace"
	"origami/internal/workload"
)

// BenchmarkDurableCreate is the live durable-mutation path: closed-loop
// SDK forks over loopback TCP, each creating in its own directory with a
// remove trailing every create once 16 files are live. sync-fsync is one
// shard acking after its WAL fsync; its w2 input is the shape of the
// repository benchmark's create-storm, so a profile of it (`make
// profile`) is a profile of that; its worker counts together trace the
// group-commit scaling curve. Every input reports ops/s and
// records/fsync, the WAL records one fsync carried on all shards
// together. sync-repl is the same two-worker storm on two
// shards acking after the ring backup applied each record, the path no
// repository workload covers: allocs/op counts both ends.
//
//	go test -run '^$' -bench 'DurableCreate/sync-fsync' -benchtime 6000x ./internal/server
func BenchmarkDurableCreate(b *testing.B) {
	inputs := []struct {
		mode    string
		workers []int
	}{
		{"sync-fsync", []int{1, 2, 8, 32, 128}},
		{"sync-repl", []int{2}},
	}
	for _, in := range inputs {
		b.Run(in.mode, func(b *testing.B) {
			for _, w := range in.workers {
				b.Run(fmt.Sprintf("w%d", w), func(b *testing.B) { benchDurableCreate(b, in.mode, w) })
			}
		})
	}
}

func benchDurableCreate(b *testing.B, mode string, workers int) {
	const live = 16
	n := 1
	if mode == "sync-repl" {
		n = 2 // the ack rides the backup
	}
	cl, err := StartClusterConfig(n, b.TempDir(), ClusterConfig{
		CommitMode:      mode,
		KvOpts:          kvstore.Options{SyncWAL: true, MemtableBytes: 1 << 20},
		TraceSampleRate: -1,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer cl.Close()
	if n > 1 {
		if err := cl.EnableReplication(nil); err != nil {
			b.Fatal(err)
		}
	}
	root, err := client.Dial(client.Config{Addrs: cl.Addrs, TraceSampleRate: -1})
	if err != nil {
		b.Fatal(err)
	}
	defer root.Close()
	sdk := make([]*client.Client, workers)
	for w := range sdk {
		if _, err := root.Mkdir(fmt.Sprintf("/w%d", w)); err != nil {
			b.Fatal(err)
		}
		sdk[w] = root.Fork()
	}
	walTotals := func() (records, syncs int64) {
		for _, svc := range cl.Services {
			st := svc.StoreStats()
			records += st.WALRecords
			syncs += st.WALSyncs
		}
		return records, syncs
	}
	records0, syncs0 := walTotals()
	b.ReportAllocs()
	b.ResetTimer()
	var wg sync.WaitGroup
	for w := range sdk {
		ops := b.N / workers
		if w < b.N%workers {
			ops++
		}
		wg.Add(1)
		go func(w, ops int) {
			defer wg.Done()
			created, removed := 0, 0
			for i := 0; i < ops; i++ {
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
		}(w, ops)
	}
	wg.Wait()
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "ops/s")
	if records, syncs := walTotals(); syncs > syncs0 {
		b.ReportMetric(float64(records-records0)/float64(syncs-syncs0), "records/fsync")
	}
}

// BenchmarkBalancingEpoch is the control plane under the profiler (`make
// profile`): a 5-MDS loopback cluster takes Trace-RW traffic, and every
// iteration is one Origami balancing epoch — dumps, merge, labelling, the
// self-trained fit, planning and the 2PC migrations — after about as
// many ops as one round of the repository benchmark's trace-rw-balance
// replays. Only the epoch is timed, and the traffic is quiesced while it
// runs, so allocs/op counts what one epoch allocates across the whole
// process. The epoch runs under the pprof label plane=control: a CPU
// profile narrows to it with -tagfocus plane=control.
func BenchmarkBalancingEpoch(b *testing.B) {
	const opsPerEpoch = 11000
	cl, err := StartClusterConfig(5, b.TempDir(), ClusterConfig{CommitMode: "async", TraceSampleRate: -1})
	if err != nil {
		b.Fatal(err)
	}
	defer cl.Close()
	sdk, err := client.Dial(client.Config{Addrs: cl.Addrs, TraceSampleRate: -1})
	if err != nil {
		b.Fatal(err)
	}
	defer sdk.Close()
	cfg := workload.DefaultRW()
	cfg.NumOps = b.N * opsPerEpoch
	tr := workload.TraceRW(cfg)
	for _, o := range tr.Setup {
		if err := replayTraceOp(sdk, o); err != nil {
			b.Fatalf("setup %v: %v", o, err)
		}
	}
	co := NewCoordinator(cl)
	co.SetStrategy(&balancer.Origami{})
	ctx := pprof.WithLabels(context.Background(), pprof.Labels("plane", "control"))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		for _, o := range tr.Ops[i*opsPerEpoch : (i+1)*opsPerEpoch] {
			if err := replayTraceOp(sdk, o); err != nil {
				b.Fatalf("%v: %v", o, err)
			}
		}
		b.StartTimer()
		pprof.SetGoroutineLabels(ctx)
		if _, err := co.RunEpoch(); err != nil {
			b.Fatal(err)
		}
		pprof.SetGoroutineLabels(context.Background())
	}
}

// replayTraceOp issues one trace operation through the SDK.
func replayTraceOp(c *client.Client, o trace.Op) error {
	var err error
	switch o.Type {
	case costmodel.OpMkdir:
		_, err = c.Mkdir(o.Path)
	case costmodel.OpCreate:
		_, err = c.Create(o.Path)
	case costmodel.OpLsdir:
		_, err = c.Readdir(o.Path)
	case costmodel.OpSetattr:
		_, err = c.Setattr(o.Path, 1<<12, 0o644)
	case costmodel.OpRename:
		err = c.Rename(o.Path, o.Dst)
	case costmodel.OpUnlink, costmodel.OpRmdir:
		err = c.Remove(o.Path)
	default: // stat, open
		_, err = c.Stat(o.Path)
	}
	return err
}
