package pipeline

import (
	"origami/internal/cluster"
	"origami/internal/features"
	"origami/internal/metaopt"
	"origami/internal/ml"
	"origami/internal/namespace"
)

// HarvestRows extracts one epoch's labeled training rows from a dump:
// Table-1 features per subtree, labeled with the Meta-OPT migration
// benefit normalised by the epoch JCT. This is the label-capture stage
// of §4.3 as a pure function, used by the harvester below.
func HarvestRows(es *cluster.EpochStats, pm *cluster.PartitionMap, cacheDepth int) (*features.Matrix, []float64) {
	benefits := metaopt.Benefits(es, pm, metaopt.Config{CacheDepth: cacheDepth})
	m := features.Extract(es)
	labels := features.LabelsFromBenefits(m, es, benefits)
	return m, labels
}

// Harvester wraps any cluster.Strategy, harvesting (features, benefit)
// rows from every epoch dump before delegating the rebalance decision.
// It is host-agnostic: the simulator drives it through sim.Run exactly
// like the networked coordinator drives it through RunEpoch — wherever a
// Strategy sees dumps, the Harvester turns them into training data.
type Harvester struct {
	// Inner is the strategy actually making decisions (typically the
	// Meta-OPT oracle so high-benefit migrations get applied and later
	// epochs explore rebalanced states).
	Inner cluster.Strategy
	// Dataset receives the harvested rows.
	Dataset *ml.Dataset
	// CacheDepth prices the crossing overhead in the benefit labels.
	CacheDepth int
	// MaxEpochs caps how many epochs contribute rows (0 = all).
	MaxEpochs int
	// MaxRows bounds the dataset; once full, the oldest rows are evicted
	// so a long-lived host keeps a sliding window (0 = unbounded).
	MaxRows int

	epochs int
}

// Name implements cluster.Strategy.
func (h *Harvester) Name() string { return "LabelGen(" + h.Inner.Name() + ")" }

// Setup implements cluster.Strategy.
func (h *Harvester) Setup(t *namespace.Tree, pm *cluster.PartitionMap) error {
	return h.Inner.Setup(t, pm)
}

// PinPolicy implements cluster.Strategy.
func (h *Harvester) PinPolicy() cluster.PinPolicy { return h.Inner.PinPolicy() }

// Epochs reports how many epochs have contributed rows so far.
func (h *Harvester) Epochs() int { return h.epochs }

// Rebalance implements cluster.Strategy: harvest, then delegate.
func (h *Harvester) Rebalance(es *cluster.EpochStats, t *namespace.Tree, pm *cluster.PartitionMap) []cluster.Decision {
	if h.MaxEpochs == 0 || h.epochs < h.MaxEpochs {
		m, labels := HarvestRows(es, pm, h.CacheDepth)
		for i := range m.X {
			h.Dataset.Append(m.X[i], labels[i])
		}
		h.Dataset.TrimFront(h.MaxRows)
		h.epochs++
	}
	return h.Inner.Rebalance(es, t, pm)
}
