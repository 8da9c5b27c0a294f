package ml

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"math/rand"
	"testing"
)

// goldenDataset is a 7-feature regression set shaped like the balancer's
// live rows: continuous shares in [0, 1], a few discrete columns whose
// values land exactly on bin edges (the boundary rule's case), and, when
// sparse, a label that is zero on most rows the way Meta-OPT benefit
// labels are.
func goldenDataset(rows int, seed int64, sparse bool) Dataset {
	rnd := rand.New(rand.NewSource(seed))
	var ds Dataset
	for i := 0; i < rows; i++ {
		x := make([]float64, 7)
		x[0] = float64(rnd.Intn(6)) / 5 // depth-like: six levels
		x[1] = rnd.Float64()
		x[2] = float64(rnd.Intn(3)) // mostly tied values
		x[3] = rnd.Float64() * rnd.Float64()
		x[4] = rnd.Float64()
		x[5] = 1
		if rnd.Intn(4) == 0 {
			x[5] = rnd.Float64()
		}
		x[6] = float64(rnd.Intn(40)) / 7
		y := 2*x[3] - x[1]*x[4] + 0.3*x[0] + 0.05*rnd.NormFloat64()
		if sparse {
			y = 0
			if x[3] > 0.4 && rnd.Intn(3) == 0 {
				y = x[3] - 0.4 + 0.02*rnd.NormFloat64()
			}
		}
		ds.Append(x, y)
	}
	return ds
}

func modelSHA(t *testing.T, m *GBDT) string {
	t.Helper()
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(buf.Bytes())
	return hex.EncodeToString(sum[:])
}

// goldenCases are the trainer's bit-identity contract: the SHA-256 of the
// saved model JSON for three seeded datasets, recorded with the trainer
// that predates the flat quantised slab, the in-place sample partition
// and the reused histogram scratch. Any change to binning, split choice
// or summation order changes a hash.
var goldenCases = []struct {
	name string
	ds   func() Dataset
	cfg  GBDTConfig
	sha  string
	minT int // tree-count bounds pin which growth path ran
	maxT int
}{
	{
		name: "leaf-wise",
		ds:   func() Dataset { return goldenDataset(3000, 1, false) },
		cfg:  GBDTConfig{Rounds: 30, NumLeaves: 16, Workers: 2},
		sha:  "905ad7748178de0d4482008316f97bf4c983de311c56d1122328ed89d9411a58",
		minT: 30, maxT: 30,
	},
	{
		name: "depth-wise",
		ds:   func() Dataset { return goldenDataset(1500, 2, false) },
		cfg:  GBDTConfig{Rounds: 20, DepthWise: true, MaxDepth: 4, Bins: 32, Workers: 1},
		sha:  "98ea3bba193ef0d100294e8b3165b46f15045d3a15b623efea2cf6eb36ad2864",
		minT: 20, maxT: 20,
	},
	{
		// The configuration balancer.Origami self-trains with.
		name: "early-stopped",
		ds:   func() Dataset { return goldenDataset(4000, 3, true) },
		cfg:  GBDTConfig{Rounds: 80, NumLeaves: 16, EarlyStopRounds: 10},
		sha:  "a39d1c8a323a84b0a1ef6a118785e42c89efcbbb30a30373be698484765bce84",
		minT: 1, maxT: 79,
	},
}

func TestGBDTGoldenModels(t *testing.T) {
	for _, tc := range goldenCases {
		t.Run(tc.name, func(t *testing.T) {
			m, err := TrainGBDT(tc.ds(), tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			if n := len(m.Trees); n < tc.minT || n > tc.maxT {
				t.Errorf("grew %d trees, want %d..%d", n, tc.minT, tc.maxT)
			}
			if got := modelSHA(t, m); got != tc.sha {
				t.Errorf("model sha256 = %s, want %s", got, tc.sha)
			}
		})
	}
}

// BenchmarkTrainGBDT is one self-training fit at the balancer's window:
// 8192 rows of the live feature width, in the strategy's configuration.
func BenchmarkTrainGBDT(b *testing.B) {
	ds := goldenDataset(8192, 1, true)
	cfg := GBDTConfig{Rounds: 80, NumLeaves: 16, EarlyStopRounds: 10}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := TrainGBDT(ds, cfg); err != nil {
			b.Fatal(err)
		}
	}
}
