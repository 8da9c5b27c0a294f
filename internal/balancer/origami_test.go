package balancer

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"
	"testing"
	"time"

	"origami/internal/cluster"
	"origami/internal/ml"
	"origami/internal/namespace"
	"origami/internal/sim"
	"origami/internal/workload"
)

// epochInput is what a strategy is handed at one epoch boundary.
type epochInput struct {
	es *cluster.EpochStats
	pm *cluster.PartitionMap
}

// recorder wraps a strategy and keeps every epoch's dump and partition
// map.
type recorder struct {
	cluster.Strategy
	epochs []epochInput
}

func (r *recorder) Rebalance(es *cluster.EpochStats, t *namespace.Tree, pm *cluster.PartitionMap) []cluster.Decision {
	r.epochs = append(r.epochs, epochInput{es, pm.Clone()})
	return r.Strategy.Rebalance(es, t, pm)
}

// recordedEpochs returns the epoch inputs of two short simulated
// Trace-RW runs, neither driven by the Origami strategy under test: a
// small namespace the Meta-OPT oracle balances within two epochs (so the
// sequence opens with a bootstrap epoch, then a trained one, then seven
// balanced ones), followed by the full namespace under C-Hash, which
// stays imbalanced.
func recordedEpochs(t *testing.T) []epochInput {
	t.Helper()
	var out []epochInput
	run := func(st cluster.Strategy, cfg workload.RWConfig) {
		rec := &recorder{Strategy: st}
		if _, err := sim.Run(sim.Config{
			NumMDS: 5, Clients: 50, CacheDepth: 3, Epoch: 250 * time.Millisecond,
		}, workload.TraceRW(cfg), rec); err != nil {
			t.Fatal(err)
		}
		out = append(out, rec.epochs...)
	}
	small := workload.DefaultRW()
	small.NumOps, small.Modules, small.Headers = 60000, 16, 40
	run(&MetaOPTOracle{}, small)
	full := workload.DefaultRW()
	full.NumOps = 30000
	run(&CHash{}, full)
	return out
}

// TestOrigamiGoldenDecisions replays a recorded dump sequence, shorter
// than the training window, through a self-training Origami and checks
// its decisions against the list recorded before self-training was
// bounded and moved below the rebalance trigger.
func TestOrigamiGoldenDecisions(t *testing.T) {
	epochs := recordedEpochs(t)
	s := &Origami{}
	if err := s.Setup(nil, nil); err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	decisions, rows := 0, 0
	for _, in := range epochs {
		es := in.es
		for _, d := range s.Rebalance(es, nil, in.pm) {
			fmt.Fprintf(&b, "%d:%d:%d>%d:%d\n", es.Epoch, d.Subtree, d.From, d.To, d.PredictedBenefit)
			decisions++
		}
		rows += len(es.Dirs) - 1
	}
	if rows >= ml.DefaultMaxRows {
		t.Fatalf("sequence holds %d rows, not shorter than the %d-row window", rows, ml.DefaultMaxRows)
	}
	sum := sha256.Sum256([]byte(b.String()))
	t.Logf("%d epochs, %d rows, %d decisions", len(epochs), rows, decisions)
	if got, want := hex.EncodeToString(sum[:]), "1b148d8cf165aedd8fadd36120f5d44c5d596397d75cb290a9b15553ee4ef6e2"; got != want {
		t.Errorf("decision list sha256 = %s, want %s\n%s", got, want, b.String())
	}
}

// TestOrigamiBalancedEpochFitsNoModel: a self-training Origami keeps
// labelling every epoch, but an epoch that does not rebalance never uses
// a model, so it must not fit one.
func TestOrigamiBalancedEpochFitsNoModel(t *testing.T) {
	s := &Origami{}
	if err := s.Setup(nil, nil); err != nil {
		t.Fatal(err)
	}
	balanced := 0
	for _, in := range recordedEpochs(t) {
		if shouldRebalance(in.es, s.Trigger) {
			continue
		}
		if d := s.Rebalance(in.es, nil, in.pm); len(d) != 0 {
			t.Fatalf("balanced epoch %d decided %v", in.es.Epoch, d)
		}
		balanced++
	}
	if s.dataset.Len() < 200 {
		t.Fatalf("only %d rows labelled; the trainer's threshold was never reached", s.dataset.Len())
	}
	if balanced == 0 || s.trained != nil {
		t.Errorf("%d balanced epochs fitted a model: %v", balanced, s.trained != nil)
	}
}
