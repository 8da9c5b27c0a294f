// Package loadgen is a closed-loop metadata load generator for live TCP
// OrigamiFS clusters. A fixed pool of workers issues a deterministic mix
// of stat / readdir / create+remove operations through the SDK client as
// fast as the cluster answers (closed loop: a worker never has more than
// one operation outstanding). It backs `origami-bench -tcp` and
// BenchmarkTCPClusterThroughput.
//
// All workers share one SDK client's transports, so every request to a
// given MDS multiplexes onto a single TCP connection — exactly the
// scenario the server's per-request dispatch targets. With Clients > 0
// the run additionally simulates that many independent SDK clients via
// client.Fork: each virtual client has its own lease cache and map view
// but rides the shared connections, so a 10k-client fleet fits in one
// process without 10k sockets (or file descriptors).
package loadgen

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"origami/internal/client"
)

// Config parameterises one load-generation run.
type Config struct {
	// Addrs lists the MDS addresses (index = MDS id).
	Addrs []string
	// Workers is the number of closed-loop worker goroutines.
	Workers int
	// Clients, when > 0, simulates that many independent SDK clients
	// (each a client.Fork with its own lease cache); operations
	// round-robin across them. 0 runs every worker through one shared
	// client — the historical single-SDK mode.
	Clients int
	// Duration bounds the run in wall-clock time. Ignored when TotalOps
	// is set.
	Duration time.Duration
	// TotalOps, when > 0, stops the run after exactly this many
	// operations across all workers (benchmark mode: TotalOps = b.N).
	TotalOps int64
	// Root names the working directory the run creates under "/". Give
	// concurrent or repeated runs distinct roots so their namespaces
	// (and readdir costs) stay independent.
	Root string
	// PreFiles is the number of files pre-created per worker directory
	// as stat/readdir targets (default 32).
	PreFiles int
	// Cache selects the SDK cache mode: "leases" (default) or "off" —
	// the A/B knob behind `origami-bench -cache`.
	Cache string
	// WritePct is the percentage of operations that mutate (create,
	// with trailing removes bounding directory size). Default 20; 100
	// gives an mdtest-style pure metadata-write workload. Of the
	// remainder, ~20 points go to readdir and the rest to stat.
	WritePct int
	// ReadPct, when > 0, specifies the mix from the read side instead:
	// WritePct becomes 100-ReadPct, and ReadPct=100 yields a pure
	// stat/readdir storm — the hot-directory shape the lease cache
	// absorbs. ReadPct wins over WritePct when both are set.
	ReadPct int
	// Seed seeds the per-worker op-target choice.
	Seed int64
	// TraceSampleRate is the SDK's span head-sampling rate (0 = record
	// everything; negative disables client-side tracing). Benchmarks
	// use a low rate to measure realistic tracing overhead.
	TraceSampleRate float64
	// BatchWindow, when > 1, enables the SDK's pipelined submission:
	// concurrent small mutations coalesce into multi-op MethodBatch
	// frames of up to this many sub-ops. The async commit-mode numbers
	// are measured with batching on.
	BatchWindow int
	// BatchDelay is the linger before a partial frame flushes (0 =
	// client.DefaultBatchDelay).
	BatchDelay time.Duration
}

// Result aggregates a run.
type Result struct {
	Ops     int64         // operations completed
	Errors  int64         // operations that returned an error
	RPCs    int64         // metadata RPC frames issued during the measured loop
	Elapsed time.Duration // wall-clock time of the measured loop
	Workers int
	Clients int // simulated clients (0 = one shared SDK)

	// BatchFrames is the number of MethodBatch frames among RPCs (every
	// mutation rides one), and BatchedOps the sub-ops they carried. A frame is ONE wire
	// RPC no matter how many ops ride it, so RPCs already counts each
	// frame once — these two expose how much coalescing amortised.
	BatchFrames int64
	BatchedOps  int64

	// P50/P95/P99 are exact per-operation latency percentiles over every
	// operation of the measured loop (not histogram-bucket estimates).
	P50, P95, P99 time.Duration
}

// Throughput returns completed operations per second.
func (r *Result) Throughput() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Ops) / r.Elapsed.Seconds()
}

// RPCPerOp returns metadata RPC frames issued per completed operation —
// the amortised cost figure (0 RPCs for a warm stat, 1 for a warm
// create, and a fraction of one for mutations that shared a batch
// frame: a full 32-op frame charges each op 1/32 of an RPC).
func (r *Result) RPCPerOp() float64 {
	if r.Ops <= 0 {
		return 0
	}
	return float64(r.RPCs) / float64(r.Ops)
}

// Percentile returns the pth percentile (0 < p <= 100) of sorted samples
// using the nearest-rank method. Exported so other harnesses (the
// scenario runner) summarise latencies the same way this package does.
func Percentile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(p/100*float64(len(sorted))+0.5) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(sorted) {
		rank = len(sorted) - 1
	}
	return sorted[rank]
}

func (c Config) withDefaults() Config {
	if c.Workers < 1 {
		c.Workers = 1
	}
	if c.Root == "" {
		c.Root = "bench"
	}
	if c.PreFiles <= 0 {
		c.PreFiles = 32
	}
	if c.ReadPct > 100 {
		c.ReadPct = 100
	}
	if c.ReadPct > 0 {
		c.WritePct = 100 - c.ReadPct
	} else if c.WritePct == 0 {
		c.WritePct = 20
	}
	if c.WritePct > 100 {
		c.WritePct = 100
	}
	if c.Duration <= 0 && c.TotalOps <= 0 {
		c.Duration = time.Second
	}
	return c
}

// Run executes one closed-loop load generation against a live cluster.
// The op mix is deterministic by ticket number: WritePct% of ops are
// creates (with trailing removes keeping directories bounded), ~20% are
// readdirs of the worker's directory, and the rest are stats of
// pre-created files.
func Run(cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	c, err := client.Dial(client.Config{
		Addrs:           cfg.Addrs,
		Cache:           cfg.Cache,
		TraceSampleRate: cfg.TraceSampleRate,
		BatchWindow:     cfg.BatchWindow,
		BatchDelay:      cfg.BatchDelay,
	})
	if err != nil {
		return nil, err
	}
	defer c.Close()

	// Namespace setup happens outside the measured loop.
	root := "/" + cfg.Root
	if _, err := c.Mkdir(root); err != nil {
		return nil, fmt.Errorf("loadgen: mkdir %s: %w", root, err)
	}
	dirs := make([]string, cfg.Workers)
	targets := make([][]string, cfg.Workers)
	for w := 0; w < cfg.Workers; w++ {
		dirs[w] = fmt.Sprintf("%s/w%d", root, w)
		if _, err := c.Mkdir(dirs[w]); err != nil {
			return nil, fmt.Errorf("loadgen: mkdir %s: %w", dirs[w], err)
		}
		targets[w] = make([]string, cfg.PreFiles)
		for i := 0; i < cfg.PreFiles; i++ {
			targets[w][i] = fmt.Sprintf("%s/pre%04d", dirs[w], i)
			if _, err := c.Create(targets[w][i]); err != nil {
				return nil, fmt.Errorf("loadgen: create %s: %w", targets[w][i], err)
			}
		}
	}

	// The simulated fleet: forks share the parent's connections but each
	// carries its own (cold) lease cache, so per-client warm-up cost is
	// paid cfg.Clients times — the realistic shape for cache metrics.
	sdks := []*client.Client{c}
	if cfg.Clients > 0 {
		sdks = make([]*client.Client, cfg.Clients)
		for i := range sdks {
			sdks[i] = c.Fork()
		}
	}
	// RPC accounting set: batch frames are sent through the root client's
	// transports (the batcher is shared by every fork), so the root must
	// be counted even when the workers only drive forks — and the shared
	// batch counters must be read exactly once (from the root), never
	// summed across forks.
	statSet := sdks
	if cfg.Clients > 0 {
		statSet = append([]*client.Client{c}, sdks...)
	}
	setupRPCs := int64(0)
	for _, s := range statSet {
		setupRPCs += s.Stats().RPCs
	}
	setupStats := c.Stats()

	var (
		tickets  atomic.Int64 // global op ticket counter
		errCount atomic.Int64
		wg       sync.WaitGroup
	)
	lats := make([][]time.Duration, cfg.Workers) // per-worker, merged after the loop
	var deadline time.Time
	start := time.Now()
	if cfg.TotalOps <= 0 {
		deadline = start.Add(cfg.Duration)
	}
	for w := 0; w < cfg.Workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rnd := rand.New(rand.NewSource(cfg.Seed + int64(w)*7919))
			dir := dirs[w]
			var created, removed int64
			for {
				i := tickets.Add(1) - 1
				if cfg.TotalOps > 0 && i >= cfg.TotalOps {
					tickets.Add(-1) // unclaimed ticket
					return
				}
				opStart := time.Now() // doubles as the deadline check
				if cfg.TotalOps <= 0 && opStart.After(deadline) {
					tickets.Add(-1)
					return
				}
				sdk := sdks[int(i)%len(sdks)]
				var err error
				// i*37 mod 100 walks all residues (37 ⊥ 100), spreading
				// each op class evenly instead of in 20-ticket bursts.
				switch pick := int(i * 37 % 100); {
				case pick < cfg.WritePct: // mutation; removes bound the dir
					if created-removed >= 16 {
						err = sdk.Remove(fmt.Sprintf("%s/t%08d", dir, removed))
						removed++
					} else {
						_, err = sdk.Create(fmt.Sprintf("%s/t%08d", dir, created))
						created++
					}
				case pick < cfg.WritePct+20 && cfg.WritePct < 100:
					_, err = sdk.Readdir(dir)
				default:
					_, err = sdk.Stat(targets[w][rnd.Intn(len(targets[w]))])
				}
				lats[w] = append(lats[w], time.Since(opStart))
				if err != nil {
					errCount.Add(1)
				}
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)
	var rpcs int64
	for _, s := range statSet {
		rpcs += s.Stats().RPCs
	}
	endStats := c.Stats()
	var all []time.Duration
	for _, l := range lats {
		all = append(all, l...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	return &Result{
		Ops:         tickets.Load(),
		Errors:      errCount.Load(),
		RPCs:        rpcs - setupRPCs,
		Elapsed:     elapsed,
		Workers:     cfg.Workers,
		Clients:     cfg.Clients,
		BatchFrames: endStats.BatchFrames - setupStats.BatchFrames,
		BatchedOps:  endStats.BatchedOps - setupStats.BatchedOps,
		P50:         Percentile(all, 50),
		P95:         Percentile(all, 95),
		P99:         Percentile(all, 99),
	}, nil
}
