package server

import (
	"fmt"
	"testing"

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
