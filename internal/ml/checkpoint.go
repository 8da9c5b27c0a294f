package ml

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
)

// CheckpointFormat is the checkpoint file format version; bump it when
// the envelope layout changes incompatibly.
const CheckpointFormat = 1

// Checkpoint is a trained GBDT wrapped with the metadata a later loader
// needs to use it safely: the feature schema it was trained against, how
// much data produced it, its held-out error, and a monotonically
// increasing model version. Files are self-describing JSON so `jq` can
// inspect a model directory.
type Checkpoint struct {
	Format       int      `json:"format"`
	Version      uint64   `json:"version"`
	NumFeatures  int      `json:"num_features"`
	FeatureNames []string `json:"feature_names,omitempty"`
	// Rows is how many training rows the model was fitted on.
	Rows int `json:"rows"`
	// ValMAE is the mean absolute error on the trainer's held-out split
	// (0 when no split was taken).
	ValMAE float64 `json:"val_mae"`
	// UnixNanos is the training completion time.
	UnixNanos int64 `json:"unix_nanos"`
	Model     *GBDT `json:"model"`
}

// Validate checks the envelope and the embedded model, including that
// the model's own feature count agrees with the envelope schema.
func (c *Checkpoint) Validate() error {
	if c.Format != CheckpointFormat {
		return fmt.Errorf("ml: checkpoint format %d, want %d", c.Format, CheckpointFormat)
	}
	if c.Model == nil {
		return fmt.Errorf("ml: checkpoint v%d has no model", c.Version)
	}
	if err := c.Model.Validate(); err != nil {
		return fmt.Errorf("ml: checkpoint v%d: %w", c.Version, err)
	}
	if c.Model.NumFeats != c.NumFeatures {
		return fmt.Errorf("ml: checkpoint v%d declares %d features but its model was trained on %d",
			c.Version, c.NumFeatures, c.Model.NumFeats)
	}
	return nil
}

// WriteCheckpoint serialises the checkpoint as JSON.
func WriteCheckpoint(w io.Writer, c *Checkpoint) error {
	if err := c.Validate(); err != nil {
		return err
	}
	return json.NewEncoder(w).Encode(c)
}

// ReadCheckpoint parses and structurally validates a checkpoint. It does
// NOT check the feature dimension against the host's schema — use
// LoadCheckpoint (or CheckCompatible on the model) for that.
func ReadCheckpoint(r io.Reader) (*Checkpoint, error) {
	var c Checkpoint
	if err := json.NewDecoder(r).Decode(&c); err != nil {
		return nil, fmt.Errorf("ml: read checkpoint: %w", err)
	}
	if err := c.Validate(); err != nil {
		return nil, err
	}
	return &c, nil
}

// LoadCheckpoint reads a checkpoint file and rejects it unless the model
// matches the caller's feature schema — a dimension mismatch must fail
// at load, not mispredict at serve time.
func LoadCheckpoint(path string, numFeatures int) (*Checkpoint, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("ml: load checkpoint: %w", err)
	}
	defer f.Close()
	c, err := ReadCheckpoint(f)
	if err != nil {
		return nil, fmt.Errorf("ml: load checkpoint %s: %w", path, err)
	}
	if err := c.Model.CheckCompatible(numFeatures); err != nil {
		return nil, fmt.Errorf("ml: load checkpoint %s: %w", path, err)
	}
	return c, nil
}

// checkpointName renders the canonical file name for a model version;
// zero-padding keeps lexical and numeric order identical.
func checkpointName(version uint64) string {
	return fmt.Sprintf("model-v%08d.json", version)
}

// keepCheckpoints is how many model files SaveCheckpoint leaves in a
// directory: the one just written and the one before it.
const keepCheckpoints = 2

// SaveCheckpoint persists a checkpoint under dir atomically and durably
// (temp file, fsync, rename, directory fsync: a crash leaves the old
// model or the new one, never an empty file a restart would load),
// prunes all but the newest keepCheckpoints, and returns the final path.
func SaveCheckpoint(dir string, c *Checkpoint) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("ml: save checkpoint: %w", err)
	}
	tmp, err := os.CreateTemp(dir, ".model-*.tmp")
	if err != nil {
		return "", fmt.Errorf("ml: save checkpoint: %w", err)
	}
	err = WriteCheckpoint(tmp, c)
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	path := filepath.Join(dir, checkpointName(c.Version))
	if err == nil {
		err = os.Rename(tmp.Name(), path)
	}
	if err != nil {
		os.Remove(tmp.Name())
		return "", fmt.Errorf("ml: save checkpoint: %w", err)
	}
	if err := syncDir(dir); err != nil {
		return "", fmt.Errorf("ml: save checkpoint: %w", err)
	}
	names, err := checkpointNames(dir)
	if err != nil {
		return "", err
	}
	for len(names) > keepCheckpoints {
		os.Remove(filepath.Join(dir, names[0])) //nolint:errcheck // the next save retries
		names = names[1:]
	}
	return path, nil
}

func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// checkpointNames lists a model directory's checkpoint files, oldest
// version first.
func checkpointNames(dir string) ([]string, error) {
	ents, err := os.ReadDir(dir)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("ml: scan checkpoints: %w", err)
	}
	var names []string
	for _, e := range ents {
		var v uint64
		if _, serr := fmt.Sscanf(e.Name(), "model-v%d.json", &v); serr == nil && !e.IsDir() {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	return names, nil
}

// LatestCheckpoint returns the highest-version checkpoint file in a
// model directory, or ("", 0, nil) when the directory is empty or
// absent — a cold start, not an error.
func LatestCheckpoint(dir string) (path string, version uint64, err error) {
	names, err := checkpointNames(dir)
	if err != nil || len(names) == 0 {
		return "", 0, err
	}
	last := names[len(names)-1]
	fmt.Sscanf(last, "model-v%d.json", &version) //nolint:errcheck // filtered above
	return filepath.Join(dir, last), version, nil
}
