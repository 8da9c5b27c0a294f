package ml

import (
	"bytes"
	"os"
	"strings"
	"testing"
	"time"
)

func trainedTestModel(t *testing.T, feats int) *GBDT {
	t.Helper()
	ds := synthDataset(400, feats, 3)
	m, err := TrainGBDT(ds, GBDTConfig{Rounds: 8, NumLeaves: 8, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestCheckpointRoundTrip(t *testing.T) {
	m := trainedTestModel(t, 7)
	dir := t.TempDir()
	ck := &Checkpoint{
		Format:      CheckpointFormat,
		Version:     3,
		NumFeatures: 7,
		Rows:        400,
		ValMAE:      0.25,
		UnixNanos:   time.Now().UnixNano(),
		Model:       m,
	}
	path, err := SaveCheckpoint(dir, ck)
	if err != nil {
		t.Fatal(err)
	}
	got, err := LoadCheckpoint(path, 7)
	if err != nil {
		t.Fatal(err)
	}
	if got.Version != 3 || got.Rows != 400 || got.ValMAE != 0.25 {
		t.Errorf("metadata mismatch: %+v", got)
	}
	x := make([]float64, 7)
	if got.Model.Predict(x) != m.Predict(x) {
		t.Error("reloaded model predicts differently")
	}
}

func TestCheckpointRejectsFeatureMismatch(t *testing.T) {
	m := trainedTestModel(t, 5)
	dir := t.TempDir()
	path, err := SaveCheckpoint(dir, &Checkpoint{
		Format: CheckpointFormat, Version: 1, NumFeatures: 5, Rows: 400, Model: m,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := LoadCheckpoint(path, 7); err == nil {
		t.Fatal("loading a 5-feature model into a 7-feature host succeeded")
	} else if !strings.Contains(err.Error(), "5 features") {
		t.Errorf("unhelpful mismatch error: %v", err)
	}
}

func TestLatestCheckpointPicksHighestVersion(t *testing.T) {
	dir := t.TempDir()
	// Empty/missing dir is a cold start, not an error.
	if path, v, err := LatestCheckpoint(dir); err != nil || path != "" || v != 0 {
		t.Fatalf("empty dir: path=%q v=%d err=%v", path, v, err)
	}
	m := trainedTestModel(t, 7)
	for _, v := range []uint64{1, 12, 7} {
		if _, err := SaveCheckpoint(dir, &Checkpoint{
			Format: CheckpointFormat, Version: v, NumFeatures: 7, Rows: 10, Model: m,
		}); err != nil {
			t.Fatal(err)
		}
	}
	path, v, err := LatestCheckpoint(dir)
	if err != nil {
		t.Fatal(err)
	}
	if v != 12 || !strings.Contains(path, "model-v00000012.json") {
		t.Errorf("latest = %q v%d, want v12", path, v)
	}
}

// TestSaveCheckpointKeepsNewestTwo: a self-training loop saves a model
// per fit, so the directory must not grow with the run.
func TestSaveCheckpointKeepsNewestTwo(t *testing.T) {
	dir := t.TempDir()
	m := trainedTestModel(t, 7)
	for v := uint64(1); v <= 5; v++ {
		if _, err := SaveCheckpoint(dir, &Checkpoint{
			Format: CheckpointFormat, Version: v, NumFeatures: 7, Rows: 10, Model: m,
		}); err != nil {
			t.Fatal(err)
		}
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range ents {
		names = append(names, e.Name())
	}
	if len(names) != 2 || names[0] != "model-v00000004.json" || names[1] != "model-v00000005.json" {
		t.Errorf("five saves left %v, want v4 and v5", names)
	}
	if _, v, err := LatestCheckpoint(dir); err != nil || v != 5 {
		t.Errorf("latest = v%d (err %v), want v5", v, err)
	}
}

func TestLoadGBDTRejectsCorruptModel(t *testing.T) {
	// A model whose tree splits on a feature outside its declared schema.
	broken := &GBDT{
		Base: 0, LR: 0.1, NumFeats: 2,
		Gain: make([]float64, 2), Splits: make([]int, 2),
		Trees: []*tree{{Nodes: []treeNode{
			{Feature: 5, Threshold: 0.5, Left: 1, Right: 2},
			{Left: -1, Right: -1, Value: 1},
			{Left: -1, Right: -1, Value: -1},
		}}},
	}
	var buf bytes.Buffer
	if err := broken.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadGBDT(&buf); err == nil {
		t.Fatal("loading a model with out-of-schema splits succeeded")
	}
	// And one that never declared a feature count.
	var buf2 bytes.Buffer
	noSchema := &GBDT{Base: 1, LR: 0.1}
	if err := noSchema.Save(&buf2); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadGBDT(&buf2); err == nil {
		t.Fatal("loading a model without a feature count succeeded")
	}
}

func TestDatasetTrimFront(t *testing.T) {
	var ds Dataset
	for i := 0; i < 10; i++ {
		ds.Append([]float64{float64(i)}, float64(i))
	}
	ds.TrimFront(4)
	if ds.Len() != 4 || ds.Y[0] != 6 || ds.Y[3] != 9 {
		t.Errorf("trim kept %v", ds.Y)
	}
	ds.TrimFront(100) // no-op
	if ds.Len() != 4 {
		t.Errorf("over-large trim shrank to %d", ds.Len())
	}
}
