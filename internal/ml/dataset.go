// Package ml provides the pure-Go learning stack Origami trains its
// benefit predictors with: a histogram-based gradient-boosted decision
// tree in both leaf-wise (LightGBM-style, the paper's production choice:
// 400 rounds, 32 leaves) and depth-wise (classic GBDT) growth modes, a
// multi-layer perceptron with four hidden layers, split-gain ("Gini")
// feature importance, and the regression metrics used to compare them.
package ml

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
)

// Predictor is any fitted regression model; both GBDT and MLP satisfy it,
// so the balancer can be driven by either family interchangeably.
type Predictor interface {
	// Predict evaluates one example.
	Predict(x []float64) float64
	// PredictBatch evaluates many examples.
	PredictBatch(X [][]float64) []float64
}

// Dataset is a dense regression dataset: len(X) rows, each with the same
// number of feature columns, and one target per row.
type Dataset struct {
	X [][]float64
	Y []float64
}

// Validate checks shape consistency.
func (d *Dataset) Validate() error {
	if len(d.X) != len(d.Y) {
		return fmt.Errorf("ml: %d rows but %d targets", len(d.X), len(d.Y))
	}
	if len(d.X) == 0 {
		return errors.New("ml: empty dataset")
	}
	cols := len(d.X[0])
	for i, row := range d.X {
		if len(row) != cols {
			return fmt.Errorf("ml: row %d has %d features, want %d", i, len(row), cols)
		}
	}
	return nil
}

// NumFeatures returns the feature-column count.
func (d *Dataset) NumFeatures() int {
	if len(d.X) == 0 {
		return 0
	}
	return len(d.X[0])
}

// Append adds one example.
func (d *Dataset) Append(x []float64, y float64) {
	d.X = append(d.X, x)
	d.Y = append(d.Y, y)
}

// Len returns the number of examples.
func (d *Dataset) Len() int { return len(d.X) }

// DefaultMaxRows is the training window of a self-training host: the
// live dataset keeps its most recent DefaultMaxRows rows, so each fit
// costs the same late in a run as early on and the model tracks the
// current workload rather than history.
const DefaultMaxRows = 8192

// TrimFront bounds the dataset to its most recent max rows, evicting the
// oldest — the retention policy of a live dataset that grows forever. It
// shifts the kept rows down in place: once the slices have grown past
// max, trimming and the appends between trims allocate nothing. A Clone
// taken before the trim is unaffected.
func (d *Dataset) TrimFront(max int) {
	if max <= 0 || len(d.X) <= max {
		return
	}
	n := len(d.X) - max
	copy(d.X, d.X[n:])
	clear(d.X[max:]) // drop the evicted rows
	d.X = d.X[:max]
	copy(d.Y, d.Y[n:])
	d.Y = d.Y[:max]
}

// Clone deep-copies the row slices (not the rows themselves — feature
// vectors are never mutated after Append), so a trainer can work on a
// stable snapshot while the owner keeps appending.
func (d *Dataset) Clone() Dataset {
	return Dataset{
		X: append([][]float64(nil), d.X...),
		Y: append([]float64(nil), d.Y...),
	}
}

// Split partitions the dataset into train and test deterministically by
// seed, with testFrac of rows in the test set.
func (d *Dataset) Split(testFrac float64, seed int64) (train, test Dataset) {
	rnd := rand.New(rand.NewSource(seed))
	perm := rnd.Perm(len(d.X))
	nTest := int(float64(len(d.X)) * testFrac)
	test = Dataset{X: make([][]float64, 0, nTest), Y: make([]float64, 0, nTest)}
	train = Dataset{X: make([][]float64, 0, len(d.X)-nTest), Y: make([]float64, 0, len(d.X)-nTest)}
	for i, pi := range perm {
		if i < nTest {
			test.Append(d.X[pi], d.Y[pi])
		} else {
			train.Append(d.X[pi], d.Y[pi])
		}
	}
	return train, test
}

// MSE is the mean squared error between predictions and targets.
func MSE(pred, y []float64) float64 {
	if len(pred) == 0 {
		return 0
	}
	var s float64
	for i := range pred {
		d := pred[i] - y[i]
		s += d * d
	}
	return s / float64(len(pred))
}

// MAE is the mean absolute error.
func MAE(pred, y []float64) float64 {
	if len(pred) == 0 {
		return 0
	}
	var s float64
	for i := range pred {
		s += math.Abs(pred[i] - y[i])
	}
	return s / float64(len(pred))
}

// R2 is the coefficient of determination.
func R2(pred, y []float64) float64 {
	if len(y) == 0 {
		return 0
	}
	var mean float64
	for _, v := range y {
		mean += v
	}
	mean /= float64(len(y))
	var ssRes, ssTot float64
	for i := range y {
		ssRes += (y[i] - pred[i]) * (y[i] - pred[i])
		ssTot += (y[i] - mean) * (y[i] - mean)
	}
	if ssTot == 0 {
		if ssRes == 0 {
			return 1
		}
		return 0
	}
	return 1 - ssRes/ssTot
}

// SpearmanRank is the rank correlation between predictions and targets —
// the metric that matters for Origami, where the planner consumes the
// *ranking* of predicted benefits, not their absolute values.
func SpearmanRank(pred, y []float64) float64 {
	n := len(pred)
	if n < 2 {
		return 0
	}
	rp := ranks(pred)
	ry := ranks(y)
	var num, dp, dy float64
	mp, my := mean(rp), mean(ry)
	for i := 0; i < n; i++ {
		a, b := rp[i]-mp, ry[i]-my
		num += a * b
		dp += a * a
		dy += b * b
	}
	if dp == 0 || dy == 0 {
		return 0
	}
	return num / math.Sqrt(dp*dy)
}

func mean(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// ranks assigns average ranks (ties share the mean rank).
func ranks(xs []float64) []float64 {
	idx := make([]int, len(xs))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return xs[idx[a]] < xs[idx[b]] })
	out := make([]float64, len(xs))
	i := 0
	for i < len(idx) {
		j := i
		for j+1 < len(idx) && xs[idx[j+1]] == xs[idx[i]] {
			j++
		}
		avg := float64(i+j) / 2
		for k := i; k <= j; k++ {
			out[idx[k]] = avg
		}
		i = j + 1
	}
	return out
}
