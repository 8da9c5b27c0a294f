package ml

import (
	"fmt"
	"math/rand"
	"testing"
)

// synthDataset builds a deterministic regression problem with enough
// rows that leaves stay above parallelMinSamples, so the worker pool
// actually engages.
func synthDataset(rows, feats int, seed int64) Dataset {
	rnd := rand.New(rand.NewSource(seed))
	var ds Dataset
	for i := 0; i < rows; i++ {
		x := make([]float64, feats)
		for f := range x {
			x[f] = rnd.Float64()
		}
		y := 3*x[0] - 2*x[1]*x[1] + x[2]*x[3] + 0.1*rnd.NormFloat64()
		ds.Append(x, y)
	}
	return ds
}

// TestParallelTrainingDeterminism is the satellite contract: any worker
// count fits the bit-identical model.
func TestParallelTrainingDeterminism(t *testing.T) {
	ds := synthDataset(3000, 8, 42)
	base := GBDTConfig{Rounds: 25, NumLeaves: 16, Workers: 1}
	serial, err := TrainGBDT(ds, base)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4, 8} {
		cfg := base
		cfg.Workers = workers
		par, err := TrainGBDT(ds, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if len(par.Trees) != len(serial.Trees) {
			t.Fatalf("workers=%d grew %d trees, serial grew %d", workers, len(par.Trees), len(serial.Trees))
		}
		sp := serial.PredictBatch(ds.X)
		pp := par.PredictBatch(ds.X)
		for i := range sp {
			if sp[i] != pp[i] {
				t.Fatalf("workers=%d prediction[%d] = %v, serial = %v", workers, i, pp[i], sp[i])
			}
		}
		for f := range serial.Gain {
			if serial.Gain[f] != par.Gain[f] || serial.Splits[f] != par.Splits[f] {
				t.Fatalf("workers=%d importance diverged on feature %d", workers, f)
			}
		}
	}
}

// TestParallelSmallLeafFallback: leaves under the parallel threshold take
// the inline path; train a tiny set with many workers to cover it.
func TestParallelSmallLeafFallback(t *testing.T) {
	ds := synthDataset(60, 5, 7)
	m, err := TrainGBDT(ds, GBDTConfig{Rounds: 5, NumLeaves: 8, Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Trees) == 0 {
		t.Fatal("no trees grown")
	}
}

// BenchmarkTrainGBDTWorkers measures the split-search parallelism every
// fit, offline or self-trained, relies on. The fixed seed keeps runs comparable;
// determinism is asserted by TestParallelTrainingDeterminism.
func BenchmarkTrainGBDTWorkers(b *testing.B) {
	ds := synthDataset(20000, 8, 1)
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := TrainGBDT(ds, GBDTConfig{Rounds: 20, NumLeaves: 32, Workers: workers}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
