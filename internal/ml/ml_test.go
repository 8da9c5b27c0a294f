package ml

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"origami/internal/racedetect"
)

// synth builds a nonlinear regression problem: y = 3x0 + x1² − 2·𝟙(x2>0.5)
// + noise, with x3 pure noise.
func synth(n int, seed int64, noise float64) Dataset {
	rnd := rand.New(rand.NewSource(seed))
	var ds Dataset
	for i := 0; i < n; i++ {
		x := []float64{rnd.Float64(), rnd.Float64() * 2, rnd.Float64(), rnd.Float64()}
		y := 3*x[0] + x[1]*x[1]
		if x[2] > 0.5 {
			y -= 2
		}
		y += rnd.NormFloat64() * noise
		ds.Append(x, y)
	}
	return ds
}

func TestDatasetValidate(t *testing.T) {
	var ds Dataset
	if err := ds.Validate(); err == nil {
		t.Error("empty dataset validated")
	}
	ds.Append([]float64{1, 2}, 1)
	ds.Append([]float64{1}, 2)
	if err := ds.Validate(); err == nil {
		t.Error("ragged dataset validated")
	}
	ds = Dataset{X: [][]float64{{1}}, Y: []float64{1, 2}}
	if err := ds.Validate(); err == nil {
		t.Error("mismatched rows/targets validated")
	}
}

func TestDatasetSplit(t *testing.T) {
	ds := synth(100, 1, 0)
	train, test := ds.Split(0.25, 7)
	if train.Len() != 75 || test.Len() != 25 {
		t.Errorf("split sizes = %d/%d", train.Len(), test.Len())
	}
	// Deterministic.
	tr2, _ := ds.Split(0.25, 7)
	for i := range train.Y {
		if train.Y[i] != tr2.Y[i] {
			t.Fatal("split not deterministic")
		}
	}
}

func TestMetrics(t *testing.T) {
	pred := []float64{1, 2, 3}
	y := []float64{1, 2, 5}
	if got := MSE(pred, y); math.Abs(got-4.0/3) > 1e-12 {
		t.Errorf("MSE = %v", got)
	}
	if got := MAE(pred, y); math.Abs(got-2.0/3) > 1e-12 {
		t.Errorf("MAE = %v", got)
	}
	if got := R2(y, y); got != 1 {
		t.Errorf("perfect R2 = %v", got)
	}
	if got := SpearmanRank([]float64{1, 2, 3, 4}, []float64{10, 20, 30, 40}); math.Abs(got-1) > 1e-12 {
		t.Errorf("monotone spearman = %v", got)
	}
	if got := SpearmanRank([]float64{4, 3, 2, 1}, []float64{10, 20, 30, 40}); math.Abs(got+1) > 1e-12 {
		t.Errorf("reversed spearman = %v", got)
	}
}

func TestGBDTLearnsNonlinear(t *testing.T) {
	train := synth(2000, 1, 0.05)
	test := synth(400, 2, 0.05)
	m, err := TrainGBDT(train, GBDTConfig{Rounds: 120, NumLeaves: 16})
	if err != nil {
		t.Fatal(err)
	}
	pred := m.PredictBatch(test.X)
	r2 := R2(pred, test.Y)
	if r2 < 0.9 {
		t.Errorf("GBDT R2 = %v, want >= 0.9", r2)
	}
}

func TestGBDTDepthWise(t *testing.T) {
	train := synth(2000, 1, 0.05)
	test := synth(400, 2, 0.05)
	m, err := TrainGBDT(train, GBDTConfig{Rounds: 120, DepthWise: true, MaxDepth: 4})
	if err != nil {
		t.Fatal(err)
	}
	r2 := R2(m.PredictBatch(test.X), test.Y)
	if r2 < 0.85 {
		t.Errorf("depth-wise GBDT R2 = %v, want >= 0.85", r2)
	}
}

func TestGBDTImportanceFindsSignal(t *testing.T) {
	train := synth(3000, 3, 0.05)
	m, err := TrainGBDT(train, GBDTConfig{Rounds: 80, NumLeaves: 16})
	if err != nil {
		t.Fatal(err)
	}
	imp := m.Importance()
	if len(imp) != 4 {
		t.Fatalf("importance size = %d", len(imp))
	}
	// x3 is pure noise: it must rank last (least important).
	ranks := m.ImportanceRank()
	if ranks[3] != 4 {
		t.Errorf("noise feature rank = %d, want 4 (imp %v)", ranks[3], imp)
	}
	var sum float64
	for _, v := range imp {
		sum += v
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("importance sums to %v", sum)
	}
}

func TestGBDTEarlyStop(t *testing.T) {
	train := synth(300, 1, 0.5) // noisy: training MSE hits its floor early
	m, err := TrainGBDT(train, GBDTConfig{Rounds: 400, NumLeaves: 8, EarlyStopRounds: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Trees) >= 400 {
		t.Errorf("early stop never fired: %d trees", len(m.Trees))
	}
}

func TestGBDTSaveLoadRoundTrip(t *testing.T) {
	train := synth(500, 1, 0.05)
	m, err := TrainGBDT(train, GBDTConfig{Rounds: 30, NumLeaves: 8})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	re, err := LoadGBDT(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		x := train.X[i]
		if got, want := re.Predict(x), m.Predict(x); got != want {
			t.Fatalf("loaded model predicts %v, want %v", got, want)
		}
	}
	if _, err := LoadGBDT(bytes.NewReader([]byte("junk"))); err == nil {
		t.Error("junk model loaded")
	}
}

func TestGBDTConstantTarget(t *testing.T) {
	var ds Dataset
	for i := 0; i < 50; i++ {
		ds.Append([]float64{float64(i)}, 7)
	}
	m, err := TrainGBDT(ds, GBDTConfig{Rounds: 10, NumLeaves: 4})
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Predict([]float64{25}); math.Abs(got-7) > 1e-6 {
		t.Errorf("constant-target prediction = %v, want 7", got)
	}
}

func TestMLPLearnsNonlinear(t *testing.T) {
	skipSlowUnderRace(t)
	train := synth(2000, 1, 0.05)
	test := synth(400, 2, 0.05)
	m, err := TrainMLP(train, MLPConfig{Epochs: 60, Hidden: []int{32, 32, 16, 8}})
	if err != nil {
		t.Fatal(err)
	}
	r2 := R2(m.PredictBatch(test.X), test.Y)
	if r2 < 0.8 {
		t.Errorf("MLP R2 = %v, want >= 0.8", r2)
	}
}

func TestMLPDeterministic(t *testing.T) {
	train := synth(200, 1, 0.05)
	a, err := TrainMLP(train, MLPConfig{Epochs: 5, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	b, err := TrainMLP(train, MLPConfig{Epochs: 5, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	x := train.X[0]
	if a.Predict(x) != b.Predict(x) {
		t.Error("MLP training not deterministic in seed")
	}
}

func TestModelsAgreeOnRanking(t *testing.T) {
	skipSlowUnderRace(t)
	// The paper's observation (§4.3): different model families produce
	// near-identical migration decisions because all of them rank the
	// high-benefit subtrees on top. Check rank agreement between GBDT
	// variants and the MLP on held-out data.
	train := synth(2000, 5, 0.1)
	test := synth(300, 6, 0.1)
	lgbm, err := TrainGBDT(train, GBDTConfig{Rounds: 100, NumLeaves: 16})
	if err != nil {
		t.Fatal(err)
	}
	gbdt, err := TrainGBDT(train, GBDTConfig{Rounds: 100, DepthWise: true, MaxDepth: 4})
	if err != nil {
		t.Fatal(err)
	}
	mlp, err := TrainMLP(train, MLPConfig{Epochs: 60})
	if err != nil {
		t.Fatal(err)
	}
	pl := lgbm.PredictBatch(test.X)
	pg := gbdt.PredictBatch(test.X)
	pm := mlp.PredictBatch(test.X)
	if rho := SpearmanRank(pl, pg); rho < 0.9 {
		t.Errorf("leaf-wise vs depth-wise rank agreement = %v", rho)
	}
	if rho := SpearmanRank(pl, pm); rho < 0.8 {
		t.Errorf("GBDT vs MLP rank agreement = %v", rho)
	}
}

func TestBinnerConsistency(t *testing.T) {
	X := [][]float64{{1}, {2}, {2}, {3}, {10}, {11}, {12}, {20}}
	b := newBinner(X, 4)
	// Every training value must map within bin range and monotonically.
	prevBin := -1
	for _, row := range X {
		bin := b.binOf(0, row[0])
		if bin < prevBin {
			t.Errorf("bins not monotone: %d after %d", bin, prevBin)
		}
		if bin > len(b.edges[0]) {
			t.Errorf("bin %d out of range", bin)
		}
		prevBin = bin
	}
}

// skipSlowUnderRace skips a single-goroutine MLP test in a -race build:
// it has nothing for the detector to find and takes most of a minute
// under its instrumentation. The GBDT worker-pool tests still run.
func skipSlowUnderRace(t *testing.T) {
	if racedetect.Enabled {
		t.Skip("single-goroutine MLP training; slow under the race detector")
	}
}
