package server

import (
	"encoding/json"

	"origami/internal/balancer"
	"origami/internal/cluster"
	"origami/internal/mds"
	"origami/internal/rpc"
)

// Coordinator admin RPCs. The coordinator has no listener of its own —
// it lives beside MDS 0 (the map authority), so its admin methods
// register onto that MDS's rpc.Server under the 200+ method range.
// origami-cli reaches them through any client that can dial MDS 0.

// epochSummary is the JSON shape of a MethodEpochRun response.
type epochSummary struct {
	Applied    []string `json:"applied"`
	Rejected   []string `json:"rejected"`
	SkippedMDS []int    `json:"skipped_mds"`
	StaleMDS   []int    `json:"stale_mds"`
	Reconciled []int    `json:"reconciled"`
	MapVersion uint64   `json:"map_version"`
	Degraded   bool     `json:"degraded"`
}

func decisionStrings(ds []cluster.Decision) []string {
	out := make([]string, 0, len(ds))
	for _, d := range ds {
		out = append(out, d.String())
	}
	return out
}

// RegisterAdmin installs the coordinator admin protocol on an MDS's RPC
// server (normally MDS 0's). Safe to call after Serve — handler
// registration is mutex-guarded.
func (co *Coordinator) RegisterAdmin(srv *rpc.Server) {
	srv.Handle(mds.MethodEpochRun, func([]byte) ([]byte, error) {
		res, err := co.RunEpoch()
		if err != nil {
			return nil, err
		}
		return json.Marshal(epochSummary{
			Applied:    decisionStrings(res.Applied),
			Rejected:   decisionStrings(res.Rejected),
			SkippedMDS: res.SkippedMDS,
			StaleMDS:   res.StaleMDS,
			Reconciled: res.Reconciled,
			MapVersion: res.MapVersion,
			Degraded:   res.Degraded(),
		})
	})
	srv.Handle(mds.MethodClusterMetrics, func([]byte) ([]byte, error) {
		return json.Marshal(co.ClusterMetrics())
	})
	srv.Handle(mds.MethodModelInfo, func([]byte) ([]byte, error) {
		return json.Marshal(co.ModelInfo())
	})
}

// ModelInfo is the JSON shape of a MethodModelInfo response and of MDS
// 0's /healthz "model" block: the planner in use and, when it is
// Origami, its model's source, version, window rows and fits.
type ModelInfo struct {
	Strategy string `json:"strategy"`
	*balancer.ModelStatus
}

// ModelInfo reports the planner's model. It serialises against RunEpoch,
// which owns the strategy while it plans.
func (co *Coordinator) ModelInfo() ModelInfo {
	co.mu.Lock()
	defer co.mu.Unlock()
	info := ModelInfo{Strategy: "metaopt"}
	if co.strategy != nil {
		info.Strategy = co.strategy.Name()
	}
	if o, ok := co.strategy.(*balancer.Origami); ok {
		st := o.Status()
		info.ModelStatus = &st
	}
	return info
}
