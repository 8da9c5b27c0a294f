package balancer

import (
	"fmt"
	"time"

	"origami/internal/cluster"
	"origami/internal/costmodel"
	"origami/internal/features"
	"origami/internal/metaopt"
	"origami/internal/ml"
	"origami/internal/namespace"
	"origami/internal/telemetry"
)

// Origami is the paper's strategy (§4.2): a model trained on Meta-OPT
// benefit labels predicts each subtree's migration benefit; the balancer
// then greedily migrates the highest-predicted-benefit subtree to the most
// lightly loaded MDS, repeating until predictions fall below a threshold.
//
// Two operating modes:
//
//   - Offline model: set Model to a GBDT trained by the pipeline package
//     (the paper's workflow — train offline on collected dumps, validate
//     online).
//   - Online self-training: leave Model nil. Each epoch the strategy
//     labels its own dump with Meta-OPT into a window of the most recent
//     ml.DefaultMaxRows rows; each epoch that rebalances refits the model
//     on that window first. Until enough data accumulates it uses the
//     Meta-OPT benefits directly. The simulator and the live coordinator
//     run this same loop; ModelDir makes it survive a restart.
type Origami struct {
	// Model is an optional pre-trained benefit predictor (GBDT or MLP).
	Model ml.Predictor
	// Trigger is the rebalance-arming imbalance factor (default 0.05).
	Trigger float64
	// BenefitThreshold stops migration when the predicted benefit falls
	// below this fraction of the epoch JCT (default 0.01).
	BenefitThreshold float64
	// MaxMigrations bounds decisions per epoch (default 8).
	MaxMigrations int
	// CacheDepth tells the benefit model which boundaries the client
	// cache absorbs (default 3, matching the experiments).
	CacheDepth int
	// Delta is Meta-OPT's imbalance bound (default: epoch mean load).
	Delta time.Duration
	// ModelDir, when set, checkpoints the self-trained model: Setup
	// starts from the newest checkpoint there, and every fit writes the
	// next version ("" = in memory only).
	ModelDir string

	dataset  ml.Dataset
	trained  *ml.GBDT
	version  uint64 // of trained: the checkpoint's, then +1 per fit
	fits     int
	epochs   int
	cooldown map[namespace.Ino]int
}

// Name implements cluster.Strategy.
func (s *Origami) Name() string { return "Origami" }

// Setup implements cluster.Strategy. With ModelDir set it warm-starts
// from the newest checkpoint there; one trained under another feature
// schema is an error — refusing to start beats mispredicting.
func (s *Origami) Setup(*namespace.Tree, *cluster.PartitionMap) error {
	s.cooldown = make(map[namespace.Ino]int)
	if s.Trigger == 0 {
		s.Trigger = defaultTriggerIF
	}
	if s.BenefitThreshold == 0 {
		s.BenefitThreshold = 0.01
	}
	if s.MaxMigrations == 0 {
		s.MaxMigrations = 8
	}
	if s.CacheDepth == 0 {
		s.CacheDepth = 3
	}
	if s.ModelDir == "" {
		return nil
	}
	path, _, err := ml.LatestCheckpoint(s.ModelDir)
	if err != nil || path == "" {
		return err
	}
	ck, err := ml.LoadCheckpoint(path, features.NumFeatures)
	if err != nil {
		return fmt.Errorf("balancer: warm start: %w", err)
	}
	s.trained, s.version = ck.Model, ck.Version
	telemetry.L("balancer").Info("warm-started from checkpoint",
		"path", path, "model_version", ck.Version, "rows", ck.Rows)
	return nil
}

// PinPolicy implements cluster.Strategy; Origami inherits placement and
// migrates subtrees afterwards.
func (s *Origami) PinPolicy() cluster.PinPolicy { return nil }

// ModelStatus describes the benefit model an Origami plans with.
type ModelStatus struct {
	// Source is "configured" (Model), "checkpoint" (warm-started, not
	// yet refitted), "self-trained", or "meta-opt" (no model yet: the
	// bootstrap plans on Meta-OPT benefits).
	Source   string `json:"source"`
	Version  uint64 `json:"version"`
	Rows     int    `json:"rows"`
	Fits     int    `json:"fits"`
	ModelDir string `json:"model_dir,omitempty"`
}

// Status reports the strategy's model. Like Rebalance, it must not run
// concurrently with another call on the strategy.
func (s *Origami) Status() ModelStatus {
	st := ModelStatus{Version: s.version, Rows: s.dataset.Len(), Fits: s.fits, ModelDir: s.ModelDir}
	switch {
	case s.Model != nil:
		st.Source = "configured"
	case s.trained == nil:
		st.Source = "meta-opt"
	case s.fits == 0:
		st.Source = "checkpoint"
	default:
		st.Source = "self-trained"
	}
	return st
}

// fit refits the self-trained model on the window and, with ModelDir
// set, checkpoints it. A failed write costs the checkpoint, not the fit.
func (s *Origami) fit() {
	fitted, err := ml.TrainGBDT(s.dataset, ml.GBDTConfig{
		Rounds: 80, NumLeaves: 16, EarlyStopRounds: 10,
	})
	if err != nil {
		return
	}
	s.trained = fitted
	s.version++
	s.fits++
	if s.ModelDir == "" {
		return
	}
	if _, err := ml.SaveCheckpoint(s.ModelDir, &ml.Checkpoint{
		Format:       ml.CheckpointFormat,
		Version:      s.version,
		NumFeatures:  features.NumFeatures,
		FeatureNames: features.Names[:],
		Rows:         s.dataset.Len(),
		UnixNanos:    time.Now().UnixNano(),
		Model:        fitted,
	}); err != nil {
		telemetry.L("balancer").Warn("checkpoint write failed", "model_version", s.version, "err", err)
	}
}

// Rebalance implements cluster.Strategy.
func (s *Origami) Rebalance(es *cluster.EpochStats, t *namespace.Tree, pm *cluster.PartitionMap) []cluster.Decision {
	s.epochs++
	cfg := metaopt.Config{CacheDepth: s.CacheDepth, Delta: s.Delta}
	online := s.Model == nil
	// In online mode every epoch, balanced or not, is labelled into the
	// training window (the §4.3 loop folded into the run); label
	// generation is cheap next to fitting.
	var benefits map[namespace.Ino]metaopt.Candidate
	var m *features.Matrix
	if online {
		benefits = metaopt.Benefits(es, pm, cfg)
		m = features.Extract(es)
		labels := features.LabelsFromBenefits(m, es, benefits)
		for i := range m.X {
			s.dataset.Append(m.X[i], labels[i])
		}
		s.dataset.TrimFront(ml.DefaultMaxRows)
	}
	if !shouldRebalance(es, s.Trigger) {
		return nil
	}
	jct := costmodel.JCT(es.Service)
	minBenefit := time.Duration(s.BenefitThreshold * float64(jct))

	// Predicted benefit per subtree: model when available, Meta-OPT
	// bootstrap otherwise. The self-trained model is refitted only here,
	// where it is about to be used, and synchronously, so a simulated run
	// stays deterministic.
	model := s.Model
	if online && s.dataset.Len() >= 200 {
		s.fit()
	}
	if model == nil && s.trained != nil {
		model = s.trained
	}
	type scored struct {
		ino     namespace.Ino
		benefit time.Duration
	}
	var candidates []scored
	if model != nil {
		if m == nil {
			m = features.Extract(es)
		}
		preds := model.PredictBatch(m.X)
		for i, ino := range m.Inos {
			b := time.Duration(preds[i] * float64(jct))
			candidates = append(candidates, scored{ino, b})
		}
	} else {
		if benefits == nil {
			benefits = metaopt.Benefits(es, pm, cfg)
		}
		for ino, c := range benefits {
			candidates = append(candidates, scored{ino, c.Benefit})
		}
	}

	loads := cloneLoads(es.Service)
	var decisions []cluster.Decision
	chosen := map[namespace.Ino]bool{}
	related := func(a, b namespace.Ino) bool {
		return es.IsAncestor(a, b) || es.IsAncestor(b, a)
	}
	for len(decisions) < s.MaxMigrations {
		// Highest predicted benefit still eligible.
		best := -1
		for i, c := range candidates {
			if c.benefit < minBenefit {
				continue
			}
			d := es.Dir(c.ino)
			if d == nil || d.Ino == namespace.RootIno {
				continue
			}
			if last, ok := s.cooldown[c.ino]; ok && s.epochs-last < 3 {
				continue
			}
			skip := false
			for prev := range chosen {
				if related(prev, c.ino) {
					skip = true
					break
				}
			}
			if skip {
				continue
			}
			if best == -1 || c.benefit > candidates[best].benefit {
				best = i
			}
		}
		if best == -1 {
			break
		}
		c := candidates[best]
		candidates[best].benefit = -1 // consume
		d := es.Dir(c.ino)
		src := d.Owner
		dst := leastLoaded(loads)
		if dst == src {
			continue
		}
		// Guard against overshooting: verify against the load model
		// before ordering the migration (predictions can be stale).
		moved := d.OwnedService
		newSrc, newDst := loads[src]-moved, loads[dst]+moved
		after := newSrc
		if newDst > after {
			after = newDst
		}
		for i, l := range loads {
			if cluster.MDSID(i) != src && cluster.MDSID(i) != dst && l > after {
				after = l
			}
		}
		if after >= costmodel.JCT(loads) {
			continue
		}
		decisions = append(decisions, cluster.Decision{
			Subtree: c.ino, From: src, To: dst, PredictedBenefit: c.benefit,
		})
		chosen[c.ino] = true
		s.cooldown[c.ino] = s.epochs
		loads[src] = newSrc
		loads[dst] = newDst
	}
	return decisions
}

// MetaOPTOracle drives rebalancing with Algorithm 1 run directly on the
// same epoch's dump the move is planned from. It is also the offline
// pipeline's label generator. It is not an upper bound: the trained model
// can beat it (on Trace-WI it does).
type MetaOPTOracle struct {
	// Trigger is the rebalance-arming imbalance factor (default 0.05).
	Trigger float64
	// CacheDepth matches the client cache configuration (default 3).
	CacheDepth int
	// MaxMigrations bounds decisions per epoch (default 4).
	MaxMigrations int
}

// Name implements cluster.Strategy.
func (s *MetaOPTOracle) Name() string { return "Meta-OPT" }

// Setup implements cluster.Strategy.
func (s *MetaOPTOracle) Setup(*namespace.Tree, *cluster.PartitionMap) error {
	if s.Trigger == 0 {
		s.Trigger = defaultTriggerIF
	}
	if s.CacheDepth == 0 {
		s.CacheDepth = 3
	}
	if s.MaxMigrations == 0 {
		s.MaxMigrations = 4
	}
	return nil
}

// PinPolicy implements cluster.Strategy.
func (s *MetaOPTOracle) PinPolicy() cluster.PinPolicy { return nil }

// Rebalance implements cluster.Strategy.
func (s *MetaOPTOracle) Rebalance(es *cluster.EpochStats, t *namespace.Tree, pm *cluster.PartitionMap) []cluster.Decision {
	if !shouldRebalance(es, s.Trigger) {
		return nil
	}
	return metaopt.Plan(es, pm, metaopt.Config{
		CacheDepth:   s.CacheDepth,
		MaxDecisions: s.MaxMigrations,
	})
}
