package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEqual(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestImbalanceFactorExtremes(t *testing.T) {
	if f := ImbalanceFactor([]float64{10, 10, 10, 10, 10}); !almostEqual(f, 0) {
		t.Errorf("uniform IF = %v, want 0", f)
	}
	if f := ImbalanceFactor([]float64{50, 0, 0, 0, 0}); !almostEqual(f, 1) {
		t.Errorf("one-hot IF = %v, want 1", f)
	}
	if f := ImbalanceFactor(nil); f != 0 {
		t.Errorf("empty IF = %v", f)
	}
	if f := ImbalanceFactor([]float64{5}); f != 0 {
		t.Errorf("single-MDS IF = %v", f)
	}
	if f := ImbalanceFactor([]float64{0, 0, 0}); f != 0 {
		t.Errorf("zero-load IF = %v", f)
	}
}

func TestImbalanceFactorBounded(t *testing.T) {
	f := func(raw []uint32) bool {
		loads := make([]float64, 0, len(raw))
		for _, x := range raw {
			loads = append(loads, float64(x))
		}
		v := ImbalanceFactor(loads)
		return v >= 0 && v <= 1+1e-9 || len(loads) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestImbalanceFactorOrdering(t *testing.T) {
	even := ImbalanceFactor([]float64{10, 10, 10, 10})
	mild := ImbalanceFactor([]float64{16, 10, 8, 6})
	severe := ImbalanceFactor([]float64{30, 5, 3, 2})
	if !(even < mild && mild < severe) {
		t.Errorf("IF ordering violated: %v %v %v", even, mild, severe)
	}
}

func TestMeanStddev(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if !almostEqual(Mean(xs), 5) {
		t.Errorf("Mean = %v", Mean(xs))
	}
	if !almostEqual(Stddev(xs), 2) {
		t.Errorf("Stddev = %v", Stddev(xs))
	}
	if Mean(nil) != 0 || Stddev(nil) != 0 {
		t.Error("empty mean/stddev not 0")
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got := Percentile(xs, 0); got != 1 {
		t.Errorf("p0 = %v", got)
	}
	if got := Percentile(xs, 100); got != 10 {
		t.Errorf("p100 = %v", got)
	}
	if got := Percentile(xs, 50); !almostEqual(got, 5.5) {
		t.Errorf("p50 = %v", got)
	}
	if Percentile(nil, 50) != 0 {
		t.Error("empty percentile not 0")
	}
}

func TestGini(t *testing.T) {
	if g := Gini([]float64{1, 1, 1, 1}); !almostEqual(g, 0) {
		t.Errorf("uniform gini = %v", g)
	}
	g := Gini([]float64{0, 0, 0, 100})
	if g < 0.7 {
		t.Errorf("concentrated gini = %v, want high", g)
	}
	if Gini(nil) != 0 || Gini([]float64{0, 0}) != 0 {
		t.Error("degenerate gini not 0")
	}
}

func TestOnlineMatchesBatch(t *testing.T) {
	xs := []float64{3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5}
	var o Online
	for _, x := range xs {
		o.Add(x)
	}
	if o.N() != int64(len(xs)) {
		t.Errorf("N = %d", o.N())
	}
	if !almostEqual(o.Mean(), Mean(xs)) {
		t.Errorf("online mean %v != batch %v", o.Mean(), Mean(xs))
	}
	if math.Abs(o.Stddev()-Stddev(xs)) > 1e-9 {
		t.Errorf("online stddev %v != batch %v", o.Stddev(), Stddev(xs))
	}
	if o.Min() != 1 || o.Max() != 9 {
		t.Errorf("min/max = %v/%v", o.Min(), o.Max())
	}
}

func TestSeries(t *testing.T) {
	var s Series
	s.Name = "qps"
	s.Add(0, 10)
	s.Add(1, 20)
	if len(s.Points) != 2 || s.Points[1].V != 20 {
		t.Errorf("series = %+v", s)
	}
}
