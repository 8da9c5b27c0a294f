package ml

import (
	"testing"

	"origami/internal/racedetect"
)

// TestTrainGBDTAllocsFlatInRows: every per-row buffer of a fit is sized
// once, so a fit on eight times the rows allocates no more objects. The
// configuration grows every tree to its leaf cap without early stopping,
// so both fits build the same number of nodes.
func TestTrainGBDTAllocsFlatInRows(t *testing.T) {
	if racedetect.Enabled {
		t.Skip("allocation counts do not hold under the race detector")
	}
	cfg := GBDTConfig{Rounds: 10, NumLeaves: 16, Workers: 2}
	allocs := func(rows int) float64 {
		ds := goldenDataset(rows, 1, false)
		return testing.AllocsPerRun(3, func() {
			if _, err := TrainGBDT(ds, cfg); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(1024), allocs(8192)
	t.Logf("%.0f allocs on 1024 rows, %.0f on 8192", small, large)
	if large > small+4 {
		t.Errorf("TrainGBDT allocates %.0f objects on 8192 rows, %.0f on 1024: allocations grow with rows", large, small)
	}
	// Per round: the tree and its node slice. Plus a constant for the
	// model, the binner, the quantised slab and the scratch.
	if budget := float64(2*cfg.Rounds + 48); large > budget {
		t.Errorf("TrainGBDT allocates %.0f objects, budget %.0f", large, budget)
	}
}

// TestDatasetTrimFrontInPlace: a warm window trims without allocating
// and keeps the newest max rows in order.
func TestDatasetTrimFrontInPlace(t *testing.T) {
	const max = 64
	var ds Dataset
	row := func(i int) []float64 { return []float64{float64(i)} }
	next := 0
	feed := func(n int) {
		for i := 0; i < n; i++ {
			ds.Append(row(next), float64(next))
			next++
		}
		ds.TrimFront(max)
	}
	feed(max + 40) // warm-up: the slices grow past max once
	feed(40)
	if ds.Len() != max {
		t.Fatalf("len = %d, want %d", ds.Len(), max)
	}
	for i := 0; i < max; i++ {
		want := float64(next - max + i)
		if ds.Y[i] != want || ds.X[i][0] != want {
			t.Fatalf("row %d = (%v, %v), want %v", i, ds.X[i][0], ds.Y[i], want)
		}
	}
	if racedetect.Enabled {
		return
	}
	x := row(0)
	if got := testing.AllocsPerRun(100, func() {
		for i := 0; i < 40; i++ {
			ds.Append(x, 0)
		}
		ds.TrimFront(max)
	}); got != 0 {
		t.Errorf("warm append+trim allocates %.1f objects, want 0", got)
	}
}
