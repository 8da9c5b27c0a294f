package server

import (
	"fmt"
	"os"
	"testing"

	"origami/internal/balancer"
	"origami/internal/client"
	"origami/internal/features"
	"origami/internal/ml"
)

// The §4.3 loop on the live cluster is balancer.Origami's own: the
// coordinator hands it each merged dump, it labels the dump into its
// window, and an epoch that rebalances refits the model first. Origami
// fits only once its window holds 200 rows, so these tests grow the
// namespace until an epoch's dump carries enough directories.

// buildHotDir creates the directory name — owned by MDS 0, since new
// subtrees inherit the root's owner — with twelve subdirectories holding
// two files each: 13 more labelled rows per epoch.
func buildHotDir(t *testing.T, sdk *client.Client, name string) {
	t.Helper()
	if _, err := sdk.Mkdir(name); err != nil {
		t.Fatal(err)
	}
	for d := 0; d < 12; d++ {
		if _, err := sdk.Mkdir(fmt.Sprintf("%s/d%d", name, d)); err != nil {
			t.Fatal(err)
		}
		for f := 0; f < 2; f++ {
			if _, err := sdk.Create(fmt.Sprintf("%s/d%d/f%d", name, d, f)); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// shiftingTraffic is one epoch of stats: two thirds on hot, the epoch's
// fresh hot subtree, and one third over the four /hot<h> directories.
// The client runs without a cache, so every stat reaches the owning
// shards.
func shiftingTraffic(sdk *client.Client, hot string) {
	for i := 0; i < 480; i++ {
		path := fmt.Sprintf("%s/d%d/f%d", hot, i%12, i%2)
		if i%3 == 0 {
			path = fmt.Sprintf("/hot%d/d%d/f%d", i%4, i%12, i%2)
		}
		sdk.Stat(path) //nolint:errcheck // load generation
	}
}

// TestOnlineLoopFitsAndCheckpoints is the end-to-end loop: skewed load
// → labelled window → a fit inside a rebalancing epoch → a loadable
// checkpoint in ModelDir → a lower imbalance. The hotspot shifts: every
// epoch most of the load lands on a fresh subtree of MDS 0, so no epoch's
// migrations balance the next one's load — a static hot tree can be
// balanced by the first epoch's migrations, after which a correct
// balancer plans, and fits, nothing.
func TestOnlineLoopFitsAndCheckpoints(t *testing.T) {
	cl, _ := startTestCluster(t, 3)
	sdk, err := client.Dial(client.Config{Addrs: cl.Addrs, Cache: "off"})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sdk.Close() })
	co := NewCoordinator(cl)
	dir := t.TempDir()
	co.SetStrategy(&balancer.Origami{ModelDir: dir})
	for h := 0; h < 4; h++ {
		buildHotDir(t, sdk, fmt.Sprintf("/hot%d", h))
	}

	applied := 0
	var firstImbalance float64
	for epoch := 0; epoch < 8; epoch++ {
		hot := fmt.Sprintf("/shift%d", epoch)
		buildHotDir(t, sdk, hot)
		shiftingTraffic(sdk, hot)
		res, err := co.RunEpoch()
		if err != nil {
			t.Fatalf("epoch %d: %v", epoch, err)
		}
		applied += len(res.Applied)
		if epoch == 0 {
			firstImbalance = co.Registry().Gauge("coordinator.balance.imbalance").Value()
		}
	}
	if applied == 0 {
		t.Fatal("online loop never migrated anything off the overloaded shard")
	}
	info := co.ModelInfo()
	if info.ModelStatus == nil || info.Fits == 0 || info.Source != "self-trained" {
		t.Fatalf("no fit after 8 epochs: %+v", info.ModelStatus)
	}
	if info.Rows < 200 {
		t.Fatalf("window holds %d rows after a fit", info.Rows)
	}
	finalImbalance := co.Registry().Gauge("coordinator.balance.imbalance").Value()
	t.Logf("%d applied, %d fits, %d-row window, imbalance %.3f -> %.3f",
		applied, info.Fits, info.Rows, firstImbalance, finalImbalance)
	if firstImbalance > 0.2 && finalImbalance >= firstImbalance {
		t.Errorf("imbalance did not drop: first %.3f, final %.3f", firstImbalance, finalImbalance)
	}

	// The newest checkpoint is the model in use, and loads cleanly.
	path, version, err := ml.LatestCheckpoint(dir)
	if err != nil {
		t.Fatal(err)
	}
	if path == "" || version != info.Version {
		t.Fatalf("latest checkpoint %q v%d, model in use v%d", path, version, info.Version)
	}
	ck, err := ml.LoadCheckpoint(path, features.NumFeatures)
	if err != nil {
		t.Fatalf("checkpoint unloadable: %v", err)
	}
	if len(ck.Model.Trees) == 0 || ck.Rows == 0 {
		t.Fatalf("checkpoint v%d: %d trees, %d rows", ck.Version, len(ck.Model.Trees), ck.Rows)
	}
	if ents, err := os.ReadDir(dir); err != nil || len(ents) > 2 {
		t.Errorf("model dir holds %d files after %d fits (err %v)", len(ents), info.Fits, err)
	}

	// The cluster must remain fully functional after the loop.
	for h := 0; h < 4; h++ {
		if _, err := sdk.Stat(fmt.Sprintf("/hot%d/d0/f0", h)); err != nil {
			t.Errorf("post-loop stat: %v", err)
		}
	}
}

// TestOnlineLearningWarmStart: a fresh coordinator's balancer starts
// from the newest checkpoint and plans with it before its first fit.
func TestOnlineLearningWarmStart(t *testing.T) {
	cl, sdk := startTestCluster(t, 3)
	dir := t.TempDir()

	// A model that predicts the same benefit for every subtree: decisions
	// planned with it carry equal predictions, which the Meta-OPT
	// bootstrap's never do.
	var ds ml.Dataset
	for i := 0; i < 60; i++ {
		ds.Append(make([]float64, features.NumFeatures), 0.2)
	}
	model, err := ml.TrainGBDT(ds, ml.GBDTConfig{Rounds: 5, NumLeaves: 4})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []uint64{3, 7} {
		if _, err := ml.SaveCheckpoint(dir, &ml.Checkpoint{
			Format:      ml.CheckpointFormat,
			Version:     v,
			NumFeatures: features.NumFeatures,
			Rows:        60,
			Model:       model,
		}); err != nil {
			t.Fatal(err)
		}
	}

	co := NewCoordinator(cl)
	co.SetStrategy(&balancer.Origami{ModelDir: dir})
	skewedTraffic(t, sdk, 0)
	res, err := co.RunEpoch()
	if err != nil {
		t.Fatal(err)
	}
	info := co.ModelInfo()
	if info.Source != "checkpoint" || info.Version != 7 || info.Fits != 0 {
		t.Fatalf("warm start: %+v, want checkpoint v7 and no fit", info.ModelStatus)
	}
	if len(res.Applied) == 0 {
		t.Fatal("warm-started balancer migrated nothing under skew")
	}
	for _, d := range res.Applied {
		if d.PredictedBenefit != res.Applied[0].PredictedBenefit {
			t.Fatalf("decisions %v were not planned with the checkpoint's model", res.Applied)
		}
	}
}

// TestOnlineLearningRejectsIncompatibleCheckpoint: a checkpoint trained
// under another feature schema fails the balancer's Setup — refusing to
// plan beats silently mispredicting.
func TestOnlineLearningRejectsIncompatibleCheckpoint(t *testing.T) {
	cl, _ := startTestCluster(t, 2)
	dir := t.TempDir()
	ck := &ml.Checkpoint{
		Format:      ml.CheckpointFormat,
		Version:     1,
		NumFeatures: features.NumFeatures + 2,
		Rows:        10,
		Model:       trainWideModel(t, features.NumFeatures+2),
	}
	if _, err := ml.SaveCheckpoint(dir, ck); err != nil {
		t.Fatal(err)
	}
	co := NewCoordinator(cl)
	co.SetStrategy(&balancer.Origami{ModelDir: dir})
	if _, err := co.RunEpoch(); err == nil {
		t.Fatal("incompatible checkpoint accepted")
	}
	if n := co.Registry().Counter("coordinator.strategy.setup_errors").Value(); n != 1 {
		t.Fatalf("setup_errors = %d, want 1", n)
	}
}

func trainWideModel(t *testing.T, nf int) *ml.GBDT {
	t.Helper()
	var ds ml.Dataset
	for i := 0; i < 64; i++ {
		row := make([]float64, nf)
		for j := range row {
			row[j] = float64((i*7+j*13)%32) / 32
		}
		ds.Append(row, row[0]+0.5*row[1])
	}
	m, err := ml.TrainGBDT(ds, ml.GBDTConfig{Rounds: 10, NumLeaves: 4})
	if err != nil {
		t.Fatal(err)
	}
	return m
}
