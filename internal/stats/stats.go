// Package stats provides the statistical measures the evaluation uses:
// Lunule's imbalance factor, summary statistics, percentiles, the Gini
// coefficient, and simple time series.
package stats

import (
	"math"
	"sort"
)

// ImbalanceFactor computes Lunule's load-imbalance measure over per-MDS
// loads: 0 means perfectly even, 1 means the entire load sits on a single
// MDS. It is (max − mean) / (sum − mean), which reaches exactly 1 in the
// one-hot case and 0 in the uniform case.
func ImbalanceFactor(loads []float64) float64 {
	if len(loads) <= 1 {
		return 0
	}
	var sum, maxLoad float64
	for _, l := range loads {
		sum += l
		if l > maxLoad {
			maxLoad = l
		}
	}
	if sum == 0 {
		return 0
	}
	mean := sum / float64(len(loads))
	denom := sum - mean
	if denom <= 0 {
		return 0
	}
	return (maxLoad - mean) / denom
}

// Mean returns the arithmetic mean, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Stddev returns the population standard deviation.
func Stddev(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := Mean(xs)
	var s float64
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return math.Sqrt(s / float64(len(xs)))
}

// Percentile returns the p-th percentile (0 <= p <= 100) using linear
// interpolation between closest ranks. xs need not be sorted.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[len(sorted)-1]
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo]
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Gini returns the Gini coefficient of non-negative values: 0 for uniform,
// approaching 1 for fully concentrated.
func Gini(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	var cum, total float64
	for i, x := range sorted {
		cum += x * float64(2*(i+1)-n-1)
		total += x
	}
	if total == 0 {
		return 0
	}
	return cum / (float64(n) * total)
}

// Online accumulates count/mean/variance in one pass (Welford's method).
type Online struct {
	n    int64
	mean float64
	m2   float64
	min  float64
	max  float64
}

// Add records one observation.
func (o *Online) Add(x float64) {
	o.n++
	if o.n == 1 {
		o.min, o.max = x, x
	} else {
		if x < o.min {
			o.min = x
		}
		if x > o.max {
			o.max = x
		}
	}
	d := x - o.mean
	o.mean += d / float64(o.n)
	o.m2 += d * (x - o.mean)
}

// N returns the number of observations.
func (o *Online) N() int64 { return o.n }

// Mean returns the running mean.
func (o *Online) Mean() float64 { return o.mean }

// Stddev returns the running population standard deviation.
func (o *Online) Stddev() float64 {
	if o.n == 0 {
		return 0
	}
	return math.Sqrt(o.m2 / float64(o.n))
}

// Min returns the smallest observation (0 when empty).
func (o *Online) Min() float64 { return o.min }

// Max returns the largest observation (0 when empty).
func (o *Online) Max() float64 { return o.max }

// Point is one sample of a time series.
type Point struct {
	T float64 // seconds
	V float64
}

// Series is an append-only time series.
type Series struct {
	Name   string
	Points []Point
}

// Add appends a sample.
func (s *Series) Add(t, v float64) { s.Points = append(s.Points, Point{t, v}) }
