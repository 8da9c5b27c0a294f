// Command origami-mds runs an OrigamiFS metadata cluster in a single
// process: -cluster MDSs (default 1) plus the coordinator balancing them
// every epoch. MDS i serves RPC on -addr's port + i. Without -model the
// coordinator plans with the self-training Origami balancer, the same
// loop the simulator runs; -model-dir checkpoints its model.
//
// One MDS:
//
//	origami-mds -addr 127.0.0.1:7201 -data /var/lib/origami -admin 127.0.0.1:7301
//
// Development cluster (RPC on 7201-7205):
//
//	origami-mds -cluster 5 -data /tmp/origami -epoch 10s -admin 127.0.0.1:7301
//
// Replicated cluster (ring WAL shipping + heartbeat-driven failover):
//
//	origami-mds -cluster 3 -repl -heartbeat 1s -data /tmp/origami -admin 127.0.0.1:7301
//
// Durability is picked with -commit-mode {sync-fsync,sync-repl,async}:
// sync-fsync acks after the WAL fsync, sync-repl after the backup
// applied the write, and async from the memtable, bounding the
// crash-loss tail to -commit-window acknowledged ops per shard (see
// DESIGN.md §15):
//
//	origami-mds -cluster 3 -repl -commit-mode async -commit-window 128 -data /tmp/origami
//
// With -admin each MDS serves an HTTP endpoint (consecutive ports, like
// -addr): /metrics returns the telemetry registry as JSON, /healthz the
// liveness document, /buildinfo the same document as the MDS's
// buildinfo RPC, and -pprof additionally mounts net/http/pprof under
// /debug/pprof/. MDS 0's admin endpoint also exports the coordinator
// registry (epoch durations, migration outcomes, per-shard health
// gauges).
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"origami/internal/balancer"
	"origami/internal/commit"
	"origami/internal/features"
	"origami/internal/kvstore"
	"origami/internal/ml"
	"origami/internal/server"
	"origami/internal/telemetry"
)

func main() {
	var (
		addr      = flag.String("addr", "127.0.0.1:7201", "RPC listen address of MDS 0; MDS i listens on its port + i (port 0: ephemeral ports)")
		dataDir   = flag.String("data", "./origami-data", "storage directory (one sub-directory per MDS)")
		clusterN  = flag.Int("cluster", 1, "number of MDSs to run in-process")
		epoch     = flag.Duration("epoch", 10*time.Second, "rebalance epoch")
		model     = flag.String("model", "", "trained benefit model (origami-train output) driving the balancer; without it the balancer trains its own")
		autoBal   = flag.Bool("auto-balance", true, "run the background balance loop every -epoch (off: epochs only via 'origami-cli epoch')")
		modelDir  = flag.String("model-dir", "", "directory for the self-trained model's checkpoints (the newest two are kept); the newest one warm-starts the balancer")
		repl      = flag.Bool("repl", false, "enable ring replication between the MDSs (WAL shipping; -commit-mode sync-repl acks after the backup applied)")
		heartbeat = flag.Duration("heartbeat", 2*time.Second, "health-probe interval of the auto-failover loop when replication is on")
		adminAddr = flag.String("admin", "", "HTTP admin address serving /metrics, /traces, /buildinfo, and /healthz (consecutive ports per MDS; empty disables)")
		pprofOn   = flag.Bool("pprof", false, "mount net/http/pprof on the admin endpoint (requires -admin)")
		logLevel  = flag.String("log-level", "info", "log verbosity: debug, info, warn, error")
		traceRate = flag.Float64("trace-sample", 1.0, "span head-sampling rate in [0,1] (slow ops always kept; negative disables tracing)")
		slowOp    = flag.Duration("slow-op", 0, "slow-operation span threshold (0 = 50ms default; negative disables slow capture)")
		leaseTTL  = flag.Duration("lease-ttl", 0, "directory-lease TTL bounding client cache staleness (0 = 2s default)")
		commitMd  = flag.String("commit-mode", "", "durability policy: sync-fsync (default), sync-repl (needs -repl), or async")
		commitWin = flag.Int("commit-window", 0, "async mode's bound on acknowledged-but-not-yet-durable ops (0 = library default)")
	)
	flag.Parse()
	if *commitMd != "" {
		if _, err := commit.ParseMode(*commitMd); err != nil {
			fmt.Fprintf(os.Stderr, "origami-mds: %v\n", err)
			os.Exit(2)
		}
	}
	if *commitMd == "sync-repl" && !*repl {
		fmt.Fprintln(os.Stderr, "origami-mds: -commit-mode sync-repl needs -repl (the ack rides the backup)")
		os.Exit(2)
	}
	telemetry.SetLogLevel(parseLevel(*logLevel))
	log := telemetry.L("origami-mds")
	cl, err := server.StartClusterConfig(*clusterN, *dataDir, server.ClusterConfig{
		// The sync modes fsync regardless; async fsyncs off the ack path.
		KvOpts:          kvstore.Options{SyncWAL: true},
		ListenAddr:      *addr,
		TraceSampleRate: *traceRate,
		SlowOpThreshold: *slowOp,
		LeaseTTL:        *leaseTTL,
		CommitMode:      *commitMd,
		CommitWindow:    *commitWin,
	})
	if err != nil {
		log.Error("start cluster failed", "err", err)
		os.Exit(1)
	}
	defer cl.Close()
	co := server.NewCoordinator(cl)
	if *repl {
		if err := cl.EnableReplication(nil); err != nil {
			log.Error("enable replication failed", "err", err)
			os.Exit(1)
		}
		stopFailover := co.StartAutoFailover(*heartbeat)
		defer stopFailover()
		log.Info("replication on", "commit_mode", cl.CommitMode().String(), "heartbeat", *heartbeat)
	}
	if *model != "" {
		// Frozen model: no online learning, the checkpointed (or
		// origami-train) model drives every epoch.
		f, err := os.Open(*model)
		if err != nil {
			log.Error("open model failed", "path", *model, "err", err)
			os.Exit(1)
		}
		m, err := ml.LoadGBDT(f)
		f.Close()
		if err != nil {
			log.Error("load model failed", "path", *model, "err", err)
			os.Exit(1)
		}
		if err := m.CheckCompatible(features.NumFeatures); err != nil {
			log.Error("model incompatible with feature schema", "path", *model, "err", err)
			os.Exit(1)
		}
		co.SetStrategy(&balancer.Origami{Model: m})
		log.Info("balancer using trained model", "path", *model, "trees", len(m.Trees))
	} else {
		// No model: the §4.3 loop on the live cluster. Set up now so a
		// checkpoint the balancer cannot use fails the start.
		og := &balancer.Origami{ModelDir: *modelDir}
		if err := og.Setup(nil, nil); err != nil {
			log.Error("balancer setup failed", "model_dir", *modelDir, "err", err)
			os.Exit(1)
		}
		co.SetStrategy(og)
		log.Info("self-training balancer on", "model_dir", *modelDir)
	}
	// Coordinator admin protocol (origami-cli epoch / model) rides on
	// MDS 0's RPC server.
	co.RegisterAdmin(cl.Services[0].Server())
	if *model == "" {
		for _, svc := range cl.Services {
			svc.AddBuildFeature("online-learning")
		}
	}
	if *adminAddr != "" {
		for i, svc := range cl.Services {
			// MDS 0's endpoint carries the coordinator registry too: one
			// curl shows epoch outcomes and per-shard health gauges.
			regs := map[string]*telemetry.Registry{"mds": svc.Registry()}
			if i == 0 {
				regs["coordinator"] = co.Registry()
			}
			if reg := cl.ReplRegistry(i); reg != nil {
				regs["replication"] = reg
			}
			rpcAddr := cl.Addrs[i]
			var replFn func() map[string]interface{}
			if *repl {
				replFn = func() map[string]interface{} { return cl.ReplicationStatus(i) }
			}
			at := server.OffsetAddr(*adminAddr, i)
			admin, err := telemetry.StartAdmin(at, telemetry.AdminConfig{
				Registries: regs,
				Health: func() map[string]interface{} {
					h := map[string]interface{}{
						"mds_id":      i,
						"rpc_addr":    rpcAddr,
						"map_version": svc.MapVersion(),
					}
					if i == 0 {
						h["model"] = co.ModelInfo()
					}
					return h
				},
				Replication: replFn,
				Pprof:       *pprofOn,
				Tracer:      svc.Tracer(),
				BuildInfo:   svc.BuildInfo,
			})
			if err != nil {
				log.Error("admin endpoint failed", "addr", at, "err", err)
				os.Exit(1)
			}
			log.Info("admin endpoint up", "mds", i, "addr", admin.Addr(), "pprof", *pprofOn)
			defer admin.Close()
		}
	}
	log.Info("cluster up", "mds_count", *clusterN, "epoch", *epoch, "auto_balance", *autoBal)
	for i, a := range cl.Addrs {
		log.Info("shard", "mds", i, "addr", a)
	}
	if *autoBal {
		stopBalance := co.StartAutoBalance(*epoch)
		defer stopBalance()
	}
	waitForSignal()
	log.Info("shutting down")
}

func parseLevel(s string) telemetry.Level {
	switch strings.ToLower(s) {
	case "debug":
		return telemetry.LevelDebug
	case "warn":
		return telemetry.LevelWarn
	case "error":
		return telemetry.LevelError
	default:
		return telemetry.LevelInfo
	}
}

func waitForSignal() {
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	<-sig
}
