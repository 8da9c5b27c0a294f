package ml

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"sort"
)

// GBDTConfig configures gradient-boosted tree training. The zero value
// resolves to the paper's LightGBM settings: 400 boosting rounds and 32
// leaves grown leaf-wise.
type GBDTConfig struct {
	// Rounds is the number of boosting iterations (default 400).
	Rounds int
	// LearningRate shrinks each tree's contribution (default 0.1).
	LearningRate float64
	// NumLeaves caps leaves per tree in leaf-wise mode (default 32).
	NumLeaves int
	// MaxDepth caps depth in depth-wise mode (default 6).
	MaxDepth int
	// DepthWise selects classic level-order growth (the paper's "GBDT"
	// comparison model) instead of leaf-wise.
	DepthWise bool
	// MinLeafSamples is the minimum samples per leaf (default 5).
	MinLeafSamples int
	// Lambda is the L2 regulariser on leaf values (default 1).
	Lambda float64
	// Bins is the histogram resolution per feature (default 64, max 256).
	Bins int
	// EarlyStopRounds stops when a held-out validation MSE (20% of the
	// training data, deterministic split) hasn't improved for this many
	// rounds (0 = never).
	EarlyStopRounds int
	// Workers parallelises the split-gain search across feature columns
	// (0 = GOMAXPROCS, 1 = sequential). The parallel reduction is
	// deterministic: any worker count fits the identical model.
	Workers int
}

func (c GBDTConfig) withDefaults() GBDTConfig {
	if c.Rounds <= 0 {
		c.Rounds = 400
	}
	if c.LearningRate <= 0 {
		c.LearningRate = 0.1
	}
	if c.NumLeaves <= 1 {
		c.NumLeaves = 32
	}
	if c.MaxDepth <= 0 {
		c.MaxDepth = 6
	}
	if c.MinLeafSamples <= 0 {
		c.MinLeafSamples = 5
	}
	if c.Lambda <= 0 {
		c.Lambda = 1
	}
	if c.Bins <= 1 || c.Bins > 256 {
		c.Bins = 64
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	return c
}

// GBDT is a fitted gradient-boosted tree ensemble.
type GBDT struct {
	Base     float64   `json:"base"`
	LR       float64   `json:"lr"`
	Trees    []*tree   `json:"trees"`
	Gain     []float64 `json:"gain"`   // per-feature cumulative split gain
	Splits   []int     `json:"splits"` // per-feature split counts
	NumFeats int       `json:"num_feats"`
}

// TrainGBDT fits an ensemble to the dataset. Its cost is linear in the
// rows and its allocations are not: every per-row buffer is sized once
// per call and reused by every tree (see grower).
func TrainGBDT(ds Dataset, cfg GBDTConfig) (*GBDT, error) {
	if err := ds.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	var val Dataset
	if cfg.EarlyStopRounds > 0 && ds.Len() >= 25 {
		ds, val = ds.Split(0.2, 1)
	}
	nf := ds.NumFeatures()
	b := newBinner(ds.X, cfg.Bins)

	var base float64
	for _, y := range ds.Y {
		base += y
	}
	base /= float64(len(ds.Y))

	model := &GBDT{
		Base:     base,
		LR:       cfg.LearningRate,
		Trees:    make([]*tree, 0, cfg.Rounds),
		Gain:     make([]float64, nf),
		Splits:   make([]int, nf),
		NumFeats: nf,
	}
	pred := make([]float64, len(ds.Y))
	for i := range pred {
		pred[i] = base
	}
	grads := make([]float64, len(ds.Y))
	valPred := make([]float64, val.Len())
	for i := range valPred {
		valPred[i] = base
	}
	g := newGrower(b, ds.X, grads, cfg, model)
	defer g.stop()
	bestMSE := -1.0
	sinceBest := 0
	for round := 0; round < cfg.Rounds; round++ {
		for i := range grads {
			grads[i] = ds.Y[i] - pred[i] // negative gradient of squared loss
		}
		t := g.grow()
		model.Trees = append(model.Trees, t)
		g.addLeaves(t, pred, cfg.LearningRate)
		if cfg.EarlyStopRounds > 0 && val.Len() > 0 {
			for i := range valPred {
				valPred[i] += cfg.LearningRate * t.predict(val.X[i])
			}
			m := MSE(valPred, val.Y)
			if bestMSE < 0 || m < bestMSE*(1-1e-6) {
				bestMSE = m
				sinceBest = 0
			} else {
				sinceBest++
				if sinceBest >= cfg.EarlyStopRounds {
					break
				}
			}
		}
	}
	return model, nil
}

// Predict evaluates the ensemble on one example.
func (m *GBDT) Predict(x []float64) float64 {
	out := m.Base
	for _, t := range m.Trees {
		out += m.LR * t.predict(x)
	}
	return out
}

// PredictBatch evaluates many examples.
func (m *GBDT) PredictBatch(X [][]float64) []float64 {
	out := make([]float64, len(X))
	for i, x := range X {
		out[i] = m.Predict(x)
	}
	return out
}

// Importance returns per-feature split-gain importance normalised to sum
// to 1 — the "Gini importance" of Table 1.
func (m *GBDT) Importance() []float64 {
	out := make([]float64, len(m.Gain))
	var total float64
	for _, g := range m.Gain {
		total += g
	}
	if total == 0 {
		return out
	}
	for i, g := range m.Gain {
		out[i] = g / total
	}
	return out
}

// ImportanceRank returns each feature's importance rank (1 = most
// important); tied importances share the smaller rank, mirroring how
// Table 1 reports two features at rank 2 and two at rank 6.
func (m *GBDT) ImportanceRank() []int {
	imp := m.Importance()
	type fi struct {
		f   int
		imp float64
	}
	order := make([]fi, len(imp))
	for i, v := range imp {
		order[i] = fi{i, v}
	}
	sort.Slice(order, func(a, b int) bool { return order[a].imp > order[b].imp })
	ranks := make([]int, len(imp))
	for pos, o := range order {
		rank := pos + 1
		if pos > 0 && o.imp == order[pos-1].imp {
			rank = ranks[order[pos-1].f]
		}
		ranks[o.f] = rank
	}
	return ranks
}

// Save writes the model as JSON.
func (m *GBDT) Save(w io.Writer) error {
	enc := json.NewEncoder(w)
	return enc.Encode(m)
}

// LoadGBDT reads a model written by Save, rejecting structurally broken
// ensembles (a tree referencing a feature outside the persisted schema
// would silently mispredict — or panic — at serve time).
func LoadGBDT(r io.Reader) (*GBDT, error) {
	var m GBDT
	if err := json.NewDecoder(r).Decode(&m); err != nil {
		return nil, fmt.Errorf("ml: load gbdt: %w", err)
	}
	if err := m.Validate(); err != nil {
		return nil, fmt.Errorf("ml: load gbdt: %w", err)
	}
	return &m, nil
}

// Validate checks the ensemble's structural integrity: a declared
// feature count, trees whose split features fall inside it, and child
// indices that stay in range.
func (m *GBDT) Validate() error {
	if m.NumFeats <= 0 {
		return fmt.Errorf("model declares no feature count (num_feats=%d)", m.NumFeats)
	}
	for ti, t := range m.Trees {
		if t == nil {
			return fmt.Errorf("tree %d is null", ti)
		}
		for ni := range t.Nodes {
			n := &t.Nodes[ni]
			if n.Left < 0 {
				continue // leaf
			}
			if n.Feature < 0 || n.Feature >= m.NumFeats {
				return fmt.Errorf("tree %d node %d splits on feature %d, schema has %d",
					ti, ni, n.Feature, m.NumFeats)
			}
			if n.Left >= len(t.Nodes) || n.Right < 0 || n.Right >= len(t.Nodes) {
				return fmt.Errorf("tree %d node %d has out-of-range children [%d %d]",
					ti, ni, n.Left, n.Right)
			}
		}
	}
	return nil
}

// CheckCompatible verifies the model was trained on the caller's feature
// schema. Loading a model with a different feature dimension must fail
// loudly: predictions against reordered or missing columns are silent
// garbage.
func (m *GBDT) CheckCompatible(numFeatures int) error {
	if m.NumFeats != numFeatures {
		return fmt.Errorf("ml: model trained on %d features, host extracts %d", m.NumFeats, numFeatures)
	}
	return nil
}
