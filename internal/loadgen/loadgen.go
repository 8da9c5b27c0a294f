// Package loadgen holds the latency summary the live harnesses share:
// the repository benchmark (bench/) and the scenario runner
// (internal/scenario) both report p50/p95/p99 through Percentile, so a
// percentile means the same thing in every live report.
package loadgen

import "time"

// Percentile returns the pth percentile (0 < p <= 100) of sorted samples
// by the nearest-rank method: the sample at rank round(p/100·n), counted
// from 1 and clamped to [1, n], so the result is always one of the
// samples. An empty input returns 0. stats.Percentile differs: it
// interpolates between the two samples either side of the rank.
func Percentile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(p/100*float64(len(sorted))+0.5) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(sorted) {
		rank = len(sorted) - 1
	}
	return sorted[rank]
}
