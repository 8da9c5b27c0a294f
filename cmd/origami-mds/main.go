// Command origami-mds runs one OrigamiFS metadata server, or, with
// -cluster, a whole multi-MDS development cluster in a single process
// (plus the coordinator balancing it every epoch). Without -model the
// coordinator plans with the self-training Origami balancer, the same
// loop the simulator runs; -model-dir checkpoints its model.
//
// Single server:
//
//	origami-mds -id 0 -addr 127.0.0.1:7201 -peers 127.0.0.1:7201,127.0.0.1:7202 -data /var/lib/origami/mds0 -admin 127.0.0.1:7301
//
// Development cluster:
//
//	origami-mds -cluster 5 -data /tmp/origami -epoch 10s -admin 127.0.0.1:7301
//
// Replicated cluster (ring WAL shipping + heartbeat-driven failover):
//
//	origami-mds -cluster 3 -repl -heartbeat 1s -data /tmp/origami -admin 127.0.0.1:7301
//
// Durability is picked with -commit-mode {sync-fsync,sync-repl,async};
// sync-repl acks a write only after the backup applied it, async acks
// from the memtable and bounds the crash-loss tail to -commit-window
// acknowledged ops per shard (see DESIGN.md §15):
//
//	origami-mds -cluster 3 -repl -commit-mode async -commit-window 128 -data /tmp/origami
//
// With -admin each MDS serves an HTTP endpoint (consecutive ports in
// -cluster mode): /metrics returns the telemetry registry as JSON,
// /healthz the liveness document, and -pprof additionally mounts
// net/http/pprof under /debug/pprof/. MDS 0's admin endpoint also
// exports the coordinator registry (epoch durations, migration
// outcomes, per-shard health gauges) in -cluster mode.
package main

import (
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"origami/internal/balancer"
	"origami/internal/commit"
	"origami/internal/features"
	"origami/internal/kvstore"
	"origami/internal/mds"
	"origami/internal/ml"
	"origami/internal/rpc"
	"origami/internal/server"
	"origami/internal/telemetry"
)

func main() {
	var (
		id        = flag.Int("id", 0, "MDS id (index into -peers)")
		addr      = flag.String("addr", "127.0.0.1:7201", "listen address")
		peers     = flag.String("peers", "", "comma-separated addresses of every MDS, in id order")
		dataDir   = flag.String("data", "./origami-data", "storage directory")
		clusterN  = flag.Int("cluster", 0, "run an n-MDS development cluster in-process")
		epoch     = flag.Duration("epoch", 10*time.Second, "rebalance epoch for -cluster mode")
		model     = flag.String("model", "", "trained benefit model (origami-train output) driving the balancer in -cluster mode; without it the balancer trains its own")
		autoBal   = flag.Bool("auto-balance", true, "run the background balance loop every -epoch in -cluster mode (off: epochs only via 'origami-cli epoch')")
		modelDir  = flag.String("model-dir", "", "directory for the self-trained model's checkpoints (the newest two are kept); the newest one warm-starts the balancer")
		repl      = flag.Bool("repl", false, "enable ring replication between the MDSs in -cluster mode (WAL shipping; -commit-mode sync-repl acks after the backup applied)")
		heartbeat = flag.Duration("heartbeat", 2*time.Second, "health-probe interval of the auto-failover loop when replication is on")
		adminAddr = flag.String("admin", "", "HTTP admin address serving /metrics, /traces, /buildinfo, and /healthz (consecutive ports per MDS in -cluster mode; empty disables)")
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
	if *clusterN > 0 {
		runCluster(clusterOpts{
			n:            *clusterN,
			dataDir:      *dataDir,
			epoch:        *epoch,
			modelPath:    *model,
			modelDir:     *modelDir,
			autoBalance:  *autoBal,
			adminAddr:    *adminAddr,
			pprofOn:      *pprofOn,
			replOn:       *repl,
			heartbeat:    *heartbeat,
			traceRate:    *traceRate,
			slowOp:       *slowOp,
			leaseTTL:     *leaseTTL,
			commitMode:   *commitMd,
			commitWindow: *commitWin,
		})
		return
	}
	if *repl {
		fmt.Fprintln(os.Stderr, "origami-mds: -repl needs -cluster (replication is wired by the in-process cluster)")
		os.Exit(2)
	}
	if *commitMd != "" {
		fmt.Fprintln(os.Stderr, "origami-mds: -commit-mode needs -cluster (the pipeline is wired by the in-process cluster)")
		os.Exit(2)
	}
	runSingle(*id, *addr, *peers, *dataDir, *adminAddr, *pprofOn, *traceRate, *slowOp, *leaseTTL)
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

// adminAddrFor offsets the admin base address's port by i, so -cluster
// mode gives each MDS its own endpoint. A zero port stays zero (every
// MDS binds an ephemeral port).
func adminAddrFor(base string, i int) string {
	host, portStr, err := net.SplitHostPort(base)
	if err != nil {
		return base
	}
	port, err := strconv.Atoi(portStr)
	if err != nil || port == 0 {
		return base
	}
	return net.JoinHostPort(host, strconv.Itoa(port+i))
}

// startAdmin brings up one MDS's admin endpoint. extra registries (the
// coordinator's, on MDS 0 in cluster mode) are merged into the export;
// the service's span tracer backs /traces and features feed /buildinfo.
func startAdmin(log *telemetry.Logger, addr string, pprofOn bool, svc *mds.Service, extra map[string]*telemetry.Registry, health, replFn func() map[string]interface{}, features []string) *telemetry.Admin {
	regs := map[string]*telemetry.Registry{"mds": svc.Registry()}
	for name, reg := range extra {
		regs[name] = reg
	}
	if svc.Tracer() != nil {
		features = append(append([]string(nil), features...), "tracing")
	}
	admin, err := telemetry.StartAdmin(addr, telemetry.AdminConfig{
		Registries:  regs,
		Health:      health,
		Replication: replFn,
		Pprof:       pprofOn,
		Tracer:      svc.Tracer(),
		Features:    features,
	})
	if err != nil {
		log.Error("admin endpoint failed", "addr", addr, "err", err)
		os.Exit(1)
	}
	log.Info("admin endpoint up", "addr", admin.Addr(), "pprof", pprofOn)
	return admin
}

func runSingle(id int, addr, peers, dataDir, adminAddr string, pprofOn bool, traceRate float64, slowOp, leaseTTL time.Duration) {
	log := telemetry.L("origami-mds").With("mds", id)
	peerAddrs := strings.Split(peers, ",")
	if peers == "" {
		peerAddrs = []string{addr}
	}
	conns := make([]*rpc.Client, len(peerAddrs))
	resolve := func(pid int) (*rpc.Client, error) {
		if pid < 0 || pid >= len(peerAddrs) {
			return nil, fmt.Errorf("peer %d out of range", pid)
		}
		if conns[pid] == nil {
			c, err := rpc.Dial(peerAddrs[pid])
			if err != nil {
				return nil, err
			}
			conns[pid] = c
		}
		return conns[pid], nil
	}
	store, err := mds.OpenStore(dataDir, id, kvstore.Options{})
	if err != nil {
		log.Error("open store failed", "dir", dataDir, "err", err)
		os.Exit(1)
	}
	svc := mds.NewService(id, store, resolve)
	if leaseTTL > 0 {
		svc.SetLeaseTTL(leaseTTL)
	}
	if traceRate >= 0 {
		svc.SetTracer(telemetry.NewTracer(fmt.Sprintf("mds%d", id), telemetry.TracerConfig{
			SampleRate:    traceRate,
			SlowThreshold: slowOp,
			Registry:      svc.Registry(),
		}))
	}
	bound, err := svc.Serve(addr)
	if err != nil {
		log.Error("serve failed", "addr", addr, "err", err)
		os.Exit(1)
	}
	if adminAddr != "" {
		admin := startAdmin(log, adminAddr, pprofOn, svc, nil, func() map[string]interface{} {
			return map[string]interface{}{
				"mds_id":      id,
				"rpc_addr":    bound,
				"map_version": svc.MapVersion(),
			}
		}, nil, nil)
		defer admin.Close()
	}
	log.Info("serving", "addr", bound, "data", dataDir)
	waitForSignal()
	if err := svc.Close(); err != nil {
		log.Warn("shutdown error", "err", err)
	}
}

// clusterOpts bundles the -cluster mode configuration.
type clusterOpts struct {
	n            int
	dataDir      string
	epoch        time.Duration
	modelPath    string
	modelDir     string
	autoBalance  bool
	adminAddr    string
	pprofOn      bool
	replOn       bool
	heartbeat    time.Duration
	traceRate    float64
	slowOp       time.Duration
	leaseTTL     time.Duration
	commitMode   string
	commitWindow int
}

func runCluster(o clusterOpts) {
	log := telemetry.L("origami-mds")
	cl, err := server.StartClusterConfig(o.n, o.dataDir, server.ClusterConfig{
		TraceSampleRate: o.traceRate,
		SlowOpThreshold: o.slowOp,
		LeaseTTL:        o.leaseTTL,
		CommitMode:      o.commitMode,
		CommitWindow:    o.commitWindow,
	})
	if err != nil {
		log.Error("start cluster failed", "err", err)
		os.Exit(1)
	}
	defer cl.Close()
	co := server.NewCoordinator(cl)
	if o.replOn {
		if err := cl.EnableReplication(nil); err != nil {
			log.Error("enable replication failed", "err", err)
			os.Exit(1)
		}
		stopFailover := co.StartAutoFailover(o.heartbeat)
		defer stopFailover()
		log.Info("replication on", "commit_mode", cl.CommitMode().String(), "heartbeat", o.heartbeat)
	}
	if o.modelPath != "" {
		// Frozen model: no online learning, the checkpointed (or
		// origami-train) model drives every epoch.
		f, err := os.Open(o.modelPath)
		if err != nil {
			log.Error("open model failed", "path", o.modelPath, "err", err)
			os.Exit(1)
		}
		m, err := ml.LoadGBDT(f)
		f.Close()
		if err != nil {
			log.Error("load model failed", "path", o.modelPath, "err", err)
			os.Exit(1)
		}
		if err := m.CheckCompatible(features.NumFeatures); err != nil {
			log.Error("model incompatible with feature schema", "path", o.modelPath, "err", err)
			os.Exit(1)
		}
		co.SetStrategy(&balancer.Origami{Model: m})
		log.Info("balancer using trained model", "path", o.modelPath, "trees", len(m.Trees))
	} else {
		// No model: the §4.3 loop on the live cluster. Set up now so a
		// checkpoint the balancer cannot use fails the start.
		og := &balancer.Origami{ModelDir: o.modelDir}
		if err := og.Setup(nil, nil); err != nil {
			log.Error("balancer setup failed", "model_dir", o.modelDir, "err", err)
			os.Exit(1)
		}
		co.SetStrategy(og)
		log.Info("self-training balancer on", "model_dir", o.modelDir)
	}
	// Coordinator admin protocol (origami-cli epoch / model) rides on
	// MDS 0's RPC server.
	co.RegisterAdmin(cl.Services[0].Server())
	features := []string{"cluster"}
	if o.replOn {
		features = append(features, "replication")
	}
	features = append(features, "commit-"+cl.CommitMode().String())
	if o.modelPath == "" {
		features = append(features, "online-learning")
	}
	if o.adminAddr != "" {
		for i, svc := range cl.Services {
			// MDS 0's endpoint carries the coordinator registry too: one
			// curl shows epoch outcomes and per-shard health gauges.
			extra := map[string]*telemetry.Registry{}
			if i == 0 {
				extra["coordinator"] = co.Registry()
			}
			if reg := cl.ReplRegistry(i); reg != nil {
				extra["replication"] = reg
			}
			id, rpcAddr, s := i, cl.Addrs[i], svc
			var replFn func() map[string]interface{}
			if o.replOn {
				replFn = func() map[string]interface{} { return cl.ReplicationStatus(id) }
			}
			admin := startAdmin(log, adminAddrFor(o.adminAddr, i), o.pprofOn, svc, extra, func() map[string]interface{} {
				h := map[string]interface{}{
					"mds_id":      id,
					"rpc_addr":    rpcAddr,
					"map_version": s.MapVersion(),
				}
				if id == 0 {
					h["model"] = co.ModelInfo()
				}
				return h
			}, replFn, features)
			defer admin.Close()
		}
	}
	log.Info("cluster up", "mds_count", o.n, "epoch", o.epoch, "auto_balance", o.autoBalance)
	for i, a := range cl.Addrs {
		log.Info("shard", "mds", i, "addr", a)
	}
	if o.autoBalance {
		stopBalance := co.StartAutoBalance(o.epoch)
		defer stopBalance()
	}
	waitForSignal()
	log.Info("shutting down")
}

func waitForSignal() {
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	<-sig
}
