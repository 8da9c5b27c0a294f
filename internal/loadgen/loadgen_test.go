package loadgen

import (
	"testing"
	"time"
)

func TestPercentile(t *testing.T) {
	odd := []time.Duration{10, 20, 30, 40, 50}
	even := []time.Duration{10, 20, 30, 40}
	cases := []struct {
		name   string
		sorted []time.Duration
		p      float64
		want   time.Duration
	}{
		{"empty", nil, 50, 0},
		{"single", []time.Duration{7}, 99, 7},
		{"p100 is the maximum", odd, 100, 50},
		{"small p is the minimum", odd, 0.1, 10},
		{"odd p50 is the middle sample", odd, 50, 30},
		{"odd p30 rounds rank 1.5 up", odd, 30, 20},
		{"odd p95", odd, 95, 50},
		{"even p50 is the lower middle", even, 50, 20},
		{"even p60 rounds rank 2.4 down", even, 60, 20},
		{"even p75", even, 75, 30},
		{"even p95", even, 95, 40},
	}
	for _, c := range cases {
		if got := Percentile(c.sorted, c.p); got != c.want {
			t.Errorf("%s: Percentile(%v, %v) = %v, want %v", c.name, c.sorted, c.p, got, c.want)
		}
	}
}
