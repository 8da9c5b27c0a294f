package server

import (
	"fmt"
	"sync"
	"time"

	"origami/internal/balancer"
	"origami/internal/cluster"
	"origami/internal/costmodel"
	"origami/internal/features"
	"origami/internal/ml"
	"origami/internal/pipeline"
	"origami/internal/stats"
	"origami/internal/telemetry"
)

// The online learning loop (§4.3, closed on the live cluster): every
// epoch the coordinator's dump is harvested into labeled training rows —
// Meta-OPT benefit labels for every subtree, plus realized-benefit rows
// for the migrations actually applied, labeled one epoch later from the
// JCT delta between successive dumps. When enough new rows accumulate
// the GBDT is retrained on a background goroutine (off the control-plane
// lock), hot-swapped into the live strategy, and checkpointed to the
// model directory so a restarted coordinator warm-starts from it.

// LearnerConfig parameterises the coordinator's online learning loop.
// The zero value resolves to sensible defaults; ModelDir "" disables
// checkpoint persistence.
type LearnerConfig struct {
	// RetrainEvery retrains after this many newly harvested rows
	// (default 256).
	RetrainEvery int
	// MinRows is the smallest dataset worth training on (default 64).
	MinRows int
	// MaxRows bounds the live dataset; the oldest rows are evicted so
	// the model tracks the current workload (default ml.DefaultMaxRows,
	// the window balancer.Origami self-trains on).
	MaxRows int
	// ModelDir receives versioned checkpoints; the latest one is loaded
	// at EnableOnlineLearning for a warm start ("" = in-memory only).
	ModelDir string
	// CacheDepth prices crossing overheads in labels and planning
	// (default 3, matching the coordinator).
	CacheDepth int
	// Rounds / NumLeaves configure the online GBDT (defaults 80 / 16 —
	// smaller than the offline pipeline's 400x32: the live loop retrains
	// often on less data).
	Rounds    int
	NumLeaves int
	// Workers parallelises split search during retrain (0 = GOMAXPROCS).
	Workers int
}

func (c LearnerConfig) withDefaults() LearnerConfig {
	if c.RetrainEvery <= 0 {
		c.RetrainEvery = 256
	}
	if c.MinRows <= 0 {
		c.MinRows = 64
	}
	if c.MaxRows <= 0 {
		c.MaxRows = ml.DefaultMaxRows
	}
	if c.CacheDepth <= 0 {
		c.CacheDepth = 3
	}
	if c.Rounds <= 0 {
		c.Rounds = 80
	}
	if c.NumLeaves <= 0 {
		c.NumLeaves = 16
	}
	return c
}

// pendingDecision is an applied migration awaiting its realized-benefit
// label: the features it was chosen on, and what the planner predicted.
type pendingDecision struct {
	features  []float64
	predicted float64 // fraction of the decision epoch's JCT
}

// onlineLearner accumulates the live dataset and drives retraining.
// observe runs under the coordinator's control-plane lock (it is called
// from RunEpoch) but never blocks on training — TrainGBDT runs on its
// own goroutine against a cloned dataset and swaps the model in when
// done. mu guards the learner's own state against that goroutine;
// nothing holds co.mu and waits on mu while training runs, so the lock
// discipline is co.mu → learner.mu with training entirely outside both.
type onlineLearner struct {
	cfg      LearnerConfig
	co       *Coordinator
	strategy *balancer.Origami

	mu              sync.Mutex
	ds              ml.Dataset
	pending         []pendingDecision
	prevJCT         time.Duration
	rowsSinceTrain  int
	epochsSinceSwap int
	version         uint64
	lastValMAE      float64
	training        bool
}

// EnableOnlineLearning turns the coordinator into a self-training
// balancer: it installs an Origami strategy (Meta-OPT bootstrap until a
// model exists), warm-starts from the newest checkpoint in
// cfg.ModelDir if one is present, and from then on harvests every
// epoch's dump for retraining. An incompatible checkpoint (feature
// schema drift) is a hard error — refusing to start beats silently
// mispredicting.
func (co *Coordinator) EnableOnlineLearning(cfg LearnerConfig) error {
	cfg = cfg.withDefaults()
	strategy := &balancer.Origami{
		CacheDepth:    cfg.CacheDepth,
		MaxMigrations: co.MaxMigrations,
		// The coordinator's learner owns the loop; the strategy's own
		// self-training stays off.
		DisableOnline: true,
	}
	l := &onlineLearner{cfg: cfg, co: co, strategy: strategy}
	if cfg.ModelDir != "" {
		path, version, err := ml.LatestCheckpoint(cfg.ModelDir)
		if err != nil {
			return fmt.Errorf("server: online learning: %w", err)
		}
		if path != "" {
			ck, err := ml.LoadCheckpoint(path, features.NumFeatures)
			if err != nil {
				return fmt.Errorf("server: online learning warm start: %w", err)
			}
			if err := strategy.SetModel(ck.Model, ck.Version); err != nil {
				return fmt.Errorf("server: online learning warm start: %w", err)
			}
			l.version = version
			l.lastValMAE = ck.ValMAE
			co.log.Info("warm-started from checkpoint",
				"path", path, "model_version", version, "rows", ck.Rows, "val_mae", ck.ValMAE)
		}
	}
	co.SetStrategy(strategy)
	co.mu.Lock()
	co.learner = l
	co.mu.Unlock()
	return nil
}

// Learner reports whether online learning is enabled.
func (co *Coordinator) Learner() bool {
	co.mu.Lock()
	defer co.mu.Unlock()
	return co.learner != nil
}

// LearnerStatus summarises the learning loop for /healthz and the
// MethodModelInfo RPC. Returns nil when online learning is off.
func (co *Coordinator) LearnerStatus() map[string]interface{} {
	co.mu.Lock()
	l := co.learner
	co.mu.Unlock()
	if l == nil {
		return nil
	}
	return l.status()
}

func (l *onlineLearner) status() map[string]interface{} {
	l.mu.Lock()
	defer l.mu.Unlock()
	return map[string]interface{}{
		"online_learning":  true,
		"model_version":    l.version,
		"rows":             l.ds.Len(),
		"rows_since_train": l.rowsSinceTrain,
		"pending_labels":   len(l.pending),
		"staleness_epochs": l.epochsSinceSwap,
		"training":         l.training,
		"last_val_mae":     l.lastValMAE,
		"retrains":         l.co.reg.Counter("coordinator.retrain.completed").Value(),
		"retrain_errors":   l.co.reg.Counter("coordinator.retrain.errors").Value(),
		"model_dir":        l.cfg.ModelDir,
	}
}

// observe folds one finished epoch into the live dataset. Called from
// RunEpoch under co.mu; does only local compute (no RPC, no training).
func (l *onlineLearner) observe(es *cluster.EpochStats, pm *cluster.PartitionMap, res *EpochResult) {
	jct := costmodel.JCT(es.Service)
	m, labels := pipeline.HarvestRows(es, pm, l.cfg.CacheDepth)

	l.mu.Lock()
	// 1. Realized benefit for the previous epoch's applied migrations:
	// the JCT delta between successive dumps, attributed to the pending
	// decisions in proportion to their predicted share. Negative deltas
	// (the epoch got worse) are real labels too — that is exactly what
	// teaches the model not to repeat a bad migration.
	if len(l.pending) > 0 && l.prevJCT > 0 && jct > 0 {
		realized := float64(l.prevJCT-jct) / float64(l.prevJCT)
		if realized > 1 {
			realized = 1
		} else if realized < -1 {
			realized = -1
		}
		var sumPred float64
		for _, p := range l.pending {
			sumPred += p.predicted
		}
		for _, p := range l.pending {
			share := realized / float64(len(l.pending))
			if sumPred > 0 {
				share = realized * (p.predicted / sumPred)
			}
			l.ds.Append(p.features, share)
			l.rowsSinceTrain++
			recordBenefitBP(l.co.reg, "coordinator.benefit.predicted_bp", p.predicted)
			recordBenefitBP(l.co.reg, "coordinator.benefit.realized_bp", share)
			if share < 0 {
				l.co.reg.Counter("coordinator.benefit.realized_negative").Inc()
			}
		}
	}

	// 2. Oracle labels for every subtree in this dump — the same
	// label-capture the offline pipeline's Harvester performs, keeping
	// the live dataset dense enough to retrain on.
	for i := range m.X {
		l.ds.Append(m.X[i], labels[i])
	}
	l.rowsSinceTrain += len(m.X)
	l.ds.TrimFront(l.cfg.MaxRows)

	// 3. Arm realized-label capture for this epoch's applied decisions.
	l.pending = l.pending[:0]
	if jct > 0 {
		for _, d := range res.Applied {
			if row := m.Row(d.Subtree); row >= 0 {
				l.pending = append(l.pending, pendingDecision{
					features:  m.X[row],
					predicted: float64(d.PredictedBenefit) / float64(jct),
				})
			}
		}
	}
	l.prevJCT = jct
	l.epochsSinceSwap++

	loads := make([]float64, len(es.Service))
	for i, s := range es.Service {
		loads[i] = float64(s)
	}
	l.co.reg.Gauge("coordinator.balance.imbalance").Set(stats.ImbalanceFactor(loads))
	l.co.reg.Gauge("coordinator.learn.rows").Set(float64(l.ds.Len()))
	l.co.reg.Gauge("coordinator.model.version").Set(float64(l.version))
	l.co.reg.Gauge("coordinator.model.staleness_epochs").Set(float64(l.epochsSinceSwap))

	retrain := !l.training && l.rowsSinceTrain >= l.cfg.RetrainEvery && l.ds.Len() >= l.cfg.MinRows
	var snapshot ml.Dataset
	if retrain {
		l.training = true
		l.rowsSinceTrain = 0
		snapshot = l.ds.Clone()
	}
	l.mu.Unlock()

	if retrain {
		go l.retrain(snapshot)
	}
}

// retrain fits a fresh GBDT on a dataset snapshot, swaps it into the
// live strategy, and checkpoints it. Runs on its own goroutine: the
// control plane keeps balancing (with the old model) while this works.
func (l *onlineLearner) retrain(ds ml.Dataset) {
	start := time.Now()
	train, test := ds.Split(0.2, 1)
	if train.Len() == 0 || train.NumFeatures() == 0 {
		l.finishRetrain(nil, 0, 0, fmt.Errorf("server: retrain: empty training split"))
		return
	}
	model, err := ml.TrainGBDT(train, ml.GBDTConfig{
		Rounds:          l.cfg.Rounds,
		NumLeaves:       l.cfg.NumLeaves,
		EarlyStopRounds: 10,
		Workers:         l.cfg.Workers,
	})
	if err != nil {
		l.finishRetrain(nil, 0, 0, fmt.Errorf("server: retrain: %w", err))
		return
	}
	valMAE := ml.MAE(model.PredictBatch(test.X), test.Y)
	l.co.reg.Histogram("coordinator.retrain.duration_ns").Record(time.Since(start).Nanoseconds())
	l.finishRetrain(model, valMAE, ds.Len(), nil)
}

// finishRetrain publishes a retrain outcome: bump the version, hot-swap
// the strategy's model, persist the checkpoint, update telemetry.
func (l *onlineLearner) finishRetrain(model *ml.GBDT, valMAE float64, rows int, err error) {
	if err != nil {
		l.co.reg.Counter("coordinator.retrain.errors").Inc()
		l.co.log.Warn("online retrain failed", "err", err)
		l.mu.Lock()
		l.training = false
		l.mu.Unlock()
		return
	}
	l.mu.Lock()
	version := l.version + 1
	l.mu.Unlock()
	if serr := l.strategy.SetModel(model, version); serr != nil {
		// Cannot happen unless the feature schema changed mid-process;
		// treat as a retrain failure rather than crash the loop.
		l.co.reg.Counter("coordinator.retrain.errors").Inc()
		l.co.log.Warn("model hot-swap rejected", "err", serr)
		l.mu.Lock()
		l.training = false
		l.mu.Unlock()
		return
	}
	ckPath := ""
	if l.cfg.ModelDir != "" {
		ck := &ml.Checkpoint{
			Format:       ml.CheckpointFormat,
			Version:      version,
			NumFeatures:  features.NumFeatures,
			FeatureNames: features.Names[:],
			Rows:         rows,
			ValMAE:       valMAE,
			UnixNanos:    time.Now().UnixNano(),
			Model:        model,
		}
		path, werr := ml.SaveCheckpoint(l.cfg.ModelDir, ck)
		if werr != nil {
			l.co.reg.Counter("coordinator.checkpoint.errors").Inc()
			l.co.log.Warn("checkpoint write failed", "err", werr)
		} else {
			ckPath = path
		}
	}
	l.mu.Lock()
	l.version = version
	l.lastValMAE = valMAE
	l.epochsSinceSwap = 0
	l.training = false
	l.mu.Unlock()
	l.co.reg.Counter("coordinator.retrain.completed").Inc()
	l.co.reg.Gauge("coordinator.model.version").Set(float64(version))
	l.co.reg.Gauge("coordinator.model.staleness_epochs").Set(0)
	l.co.log.Info("model hot-swapped",
		"model_version", version, "rows", rows, "val_mae", valMAE,
		"trees", len(model.Trees), "checkpoint", ckPath)
}

// recordBenefitBP records a benefit fraction as basis points in a
// histogram (log2 buckets hold non-negative ints; negative benefits are
// tracked by the realized_negative counter instead).
func recordBenefitBP(reg *telemetry.Registry, name string, frac float64) {
	if frac < 0 {
		frac = 0
	}
	reg.Histogram(name).Record(int64(frac * 1e4))
}
