// Package pipeline implements the Origami training workflow of §4.3:
//
//  1. Label generation — replay a workload on the simulated OrigamiFS
//     with Meta-OPT driving rebalancing; after every epoch, dump
//     statistics, extract Table-1 features, and label each subtree with
//     its Meta-OPT migration benefit. High-benefit decisions are applied
//     so later epochs explore rebalanced states, progressively enriching
//     the dataset.
//  2. Model training — fit the LightGBM-style GBDT (400 rounds, 32
//     leaves), a depth-wise GBDT, and a 4-hidden-layer MLP offline, and
//     compare them.
//  3. Model validation — run the workload again with the trained model
//     driving the Origami strategy and measure end-to-end metrics, since
//     prediction accuracy alone does not establish a system win.
package pipeline

import (
	"fmt"
	"time"

	"origami/internal/balancer"
	"origami/internal/ml"
	"origami/internal/sim"
	"origami/internal/trace"
)

// Config parameterises the pipeline.
type Config struct {
	// Sim is the cluster configuration used for label generation and
	// validation runs.
	Sim sim.Config
	// Epochs caps how many label-bearing epochs to collect (0 = all the
	// trace yields).
	Epochs int
}

// GenerateDataset runs label generation over a workload and returns the
// training set: the simulator host of the Harvester.
func GenerateDataset(tr *trace.Trace, cfg Config) (ml.Dataset, error) {
	var ds ml.Dataset
	h := &Harvester{
		Inner:      &balancer.MetaOPTOracle{CacheDepth: cfg.Sim.CacheDepth},
		Dataset:    &ds,
		CacheDepth: cfg.Sim.CacheDepth,
		MaxEpochs:  cfg.Epochs,
	}
	if _, err := sim.Run(cfg.Sim, tr, h); err != nil {
		return ml.Dataset{}, fmt.Errorf("pipeline: label generation: %w", err)
	}
	if ds.Len() == 0 {
		return ml.Dataset{}, fmt.Errorf("pipeline: no labels collected (trace too short for epoch %v?)", cfg.Sim.Epoch)
	}
	return ds, nil
}

// ModelReport carries one trained model's held-out metrics.
type ModelReport struct {
	Name     string
	MSE      float64
	R2       float64
	Spearman float64
	Train    time.Duration
}

// TrainReport is the outcome of the offline training stage.
type TrainReport struct {
	// LightGBM is the production model (the paper's pick).
	LightGBM *ml.GBDT
	// Models compares the three families on a held-out split.
	Models []ModelReport
	// ImportanceRank is the Table-1 Gini importance rank per feature,
	// aligned with features.Names.
	ImportanceRank []int
	// Importance is the normalised split-gain importance per feature.
	Importance []float64
}

// Train fits the three model families and reports held-out metrics.
// compareAll=false trains only the production LightGBM configuration.
func Train(ds ml.Dataset, compareAll bool) (*TrainReport, error) {
	train, test := ds.Split(0.2, 42)
	rep := &TrainReport{}
	evaluate := func(name string, pred []float64) ModelReport {
		return ModelReport{
			Name:     name,
			MSE:      ml.MSE(pred, test.Y),
			R2:       ml.R2(pred, test.Y),
			Spearman: ml.SpearmanRank(pred, test.Y),
		}
	}
	t0 := time.Now()
	lgbm, err := ml.TrainGBDT(train, ml.GBDTConfig{
		Rounds: 400, NumLeaves: 32, EarlyStopRounds: 25,
	})
	if err != nil {
		return nil, fmt.Errorf("pipeline: train lightgbm: %w", err)
	}
	mr := evaluate("LightGBM", lgbm.PredictBatch(test.X))
	mr.Train = time.Since(t0)
	rep.LightGBM = lgbm
	rep.Models = append(rep.Models, mr)
	rep.ImportanceRank = lgbm.ImportanceRank()
	rep.Importance = lgbm.Importance()
	if compareAll {
		t0 = time.Now()
		gbdt, err := ml.TrainGBDT(train, ml.GBDTConfig{
			Rounds: 400, DepthWise: true, MaxDepth: 6, EarlyStopRounds: 25,
		})
		if err != nil {
			return nil, fmt.Errorf("pipeline: train gbdt: %w", err)
		}
		mr = evaluate("GBDT", gbdt.PredictBatch(test.X))
		mr.Train = time.Since(t0)
		rep.Models = append(rep.Models, mr)

		t0 = time.Now()
		mlp, err := ml.TrainMLP(train, ml.MLPConfig{Epochs: 80})
		if err != nil {
			return nil, fmt.Errorf("pipeline: train mlp: %w", err)
		}
		mr = evaluate("MLP", mlp.PredictBatch(test.X))
		mr.Train = time.Since(t0)
		rep.Models = append(rep.Models, mr)
	}
	return rep, nil
}

// Validate runs the workload with the trained model driving Origami and
// returns the simulation result — the online validation stage. A nil
// model falls back to the Meta-OPT bootstrap.
func Validate(tr *trace.Trace, model *ml.GBDT, cfg Config) (*sim.Result, error) {
	strategy := &balancer.Origami{CacheDepth: cfg.Sim.CacheDepth}
	if model != nil {
		strategy.Model = model
	}
	return sim.Run(cfg.Sim, tr, strategy)
}

// ValidateModel is Validate for any predictor family (GBDT or MLP) — the
// §4.3 observation that different model families produce near-identical
// migration decisions is checked end-to-end through this entry point.
func ValidateModel(tr *trace.Trace, model ml.Predictor, cfg Config) (*sim.Result, error) {
	strategy := &balancer.Origami{CacheDepth: cfg.Sim.CacheDepth}
	if model != nil {
		strategy.Model = model
	}
	return sim.Run(cfg.Sim, tr, strategy)
}

// ModelRun pairs a model name with its online-validation result.
type ModelRun struct {
	Name   string
	Result *sim.Result
}

// CompareModels trains all three families on ds and validates each one
// online on valTrace, returning per-model system results.
func CompareModels(ds ml.Dataset, valTrace func() *trace.Trace, cfg Config) ([]ModelRun, error) {
	train, _ := ds.Split(0.2, 42)
	lgbm, err := ml.TrainGBDT(train, ml.GBDTConfig{Rounds: 400, NumLeaves: 32, EarlyStopRounds: 25})
	if err != nil {
		return nil, err
	}
	gbdt, err := ml.TrainGBDT(train, ml.GBDTConfig{Rounds: 400, DepthWise: true, MaxDepth: 6, EarlyStopRounds: 25})
	if err != nil {
		return nil, err
	}
	mlp, err := ml.TrainMLP(train, ml.MLPConfig{Epochs: 60})
	if err != nil {
		return nil, err
	}
	models := []struct {
		name string
		m    ml.Predictor
	}{
		{"LightGBM", lgbm}, {"GBDT", gbdt}, {"MLP", mlp},
	}
	var out []ModelRun
	for _, mr := range models {
		res, err := ValidateModel(valTrace(), mr.m, cfg)
		if err != nil {
			return nil, err
		}
		out = append(out, ModelRun{Name: mr.name, Result: res})
	}
	return out, nil
}

// Run executes the full loop: generate labels on trainTrace, train, then
// validate on valTrace (typically a different seed of the same workload).
func Run(trainTrace, valTrace *trace.Trace, cfg Config, compareAll bool) (*TrainReport, *sim.Result, error) {
	ds, err := GenerateDataset(trainTrace, cfg)
	if err != nil {
		return nil, nil, err
	}
	rep, err := Train(ds, compareAll)
	if err != nil {
		return nil, nil, err
	}
	res, err := Validate(valTrace, rep.LightGBM, cfg)
	if err != nil {
		return rep, nil, err
	}
	return rep, res, nil
}
