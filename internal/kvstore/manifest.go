package kvstore

import (
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
)

// The manifest records the durable shape of the store — guard keys, the
// table files of every run, the file-number counter, and the generation
// the WAL's records are written in — as a JSON document installed after
// every flush, compaction and Wipe: written to a temp file and fsynced,
// renamed over the last one, and the directory fsynced. Only then does the
// store retire what the new manifest replaces: the log restarts in the
// named generation, and replaced tables are deleted (DB.installLocked).
// On open, the manifest is the source of truth; the WAL then replays
// whatever the last manifest missed, and files it does not name are
// swept.

const manifestName = "MANIFEST.json"

type manifestRun struct {
	Tables []string `json:"tables"`
}

type manifestLevel struct {
	GuardKeys []string      `json:"guard_keys"` // hex
	Sentinel  manifestRun   `json:"sentinel"`
	Guards    []manifestRun `json:"guards"`
}

type manifestGuard struct {
	Key      string `json:"key"` // hex
	MinLevel int    `json:"min_level"`
}

type manifest struct {
	NextFileNum uint64          `json:"next_file_num"`
	WALGen      uint32          `json:"wal_gen"`
	L0          []string        `json:"l0"`
	Levels      []manifestLevel `json:"levels"`
	Guards      []manifestGuard `json:"guards"`
}

func removeFile(path string) error {
	err := os.Remove(path)
	if err != nil && !os.IsNotExist(err) {
		return err
	}
	return nil
}

func (db *DB) manifestPath() string { return filepath.Join(db.dir, manifestName) }

// saveManifest durably installs the manifest of the current table set,
// naming walGen as the log's generation.
func (db *DB) saveManifest(walGen uint32) error {
	m := manifest{NextFileNum: db.nextFileNum, WALGen: walGen}
	for _, t := range db.l0 {
		m.L0 = append(m.L0, filepath.Base(t.path))
	}
	for _, lvl := range db.levels {
		ml := manifestLevel{}
		for _, k := range lvl.guardKeys {
			ml.GuardKeys = append(ml.GuardKeys, hex.EncodeToString(k))
		}
		for _, t := range lvl.sentinel.tables {
			ml.Sentinel.Tables = append(ml.Sentinel.Tables, filepath.Base(t.path))
		}
		for i := range lvl.guards {
			mr := manifestRun{}
			for _, t := range lvl.guards[i].tables {
				mr.Tables = append(mr.Tables, filepath.Base(t.path))
			}
			ml.Guards = append(ml.Guards, mr)
		}
		m.Levels = append(m.Levels, ml)
	}
	for _, g := range db.guards.keys {
		m.Guards = append(m.Guards, manifestGuard{Key: hex.EncodeToString(g.key), MinLevel: g.minLevel})
	}
	data, err := json.MarshalIndent(&m, "", " ")
	if err != nil {
		return fmt.Errorf("kvstore: encode manifest: %w", err)
	}
	tmp := db.manifestPath() + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return fmt.Errorf("kvstore: write manifest: %w", err)
	}
	if err := fsyncPath(tmp); err != nil {
		return fmt.Errorf("kvstore: write manifest: %w", err)
	}
	if err := os.Rename(tmp, db.manifestPath()); err != nil {
		return fmt.Errorf("kvstore: install manifest: %w", err)
	}
	if err := fsyncPath(db.dir); err != nil {
		return fmt.Errorf("kvstore: install manifest: %w", err)
	}
	return nil
}

// fsyncPath fsyncs the file or directory at path: a file's data, or the
// entries created, renamed or removed in a directory.
func fsyncPath(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	err = f.Sync()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// loadManifest opens the tables the manifest names and returns the log
// generation it names; a store with no manifest yet is empty, generation 0.
func (db *DB) loadManifest() (walGen uint32, err error) {
	data, err := os.ReadFile(db.manifestPath())
	if errors.Is(err, os.ErrNotExist) {
		return 0, nil // fresh store
	}
	if err != nil {
		return 0, fmt.Errorf("kvstore: read manifest: %w", err)
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return 0, fmt.Errorf("kvstore: parse manifest: %w", err)
	}
	db.nextFileNum = m.NextFileNum
	openAll := func(names []string) ([]*sstable, error) {
		var out []*sstable
		for _, name := range names {
			t, err := openSSTable(filepath.Join(db.dir, name))
			if err != nil {
				return nil, fmt.Errorf("kvstore: reopen %s: %w", name, err)
			}
			out = append(out, t)
		}
		return out, nil
	}
	if db.l0, err = openAll(m.L0); err != nil {
		return 0, err
	}
	for i, ml := range m.Levels {
		if i >= len(db.levels) {
			break
		}
		lvl := db.levels[i]
		for _, hk := range ml.GuardKeys {
			k, err := hex.DecodeString(hk)
			if err != nil {
				return 0, fmt.Errorf("kvstore: bad guard key in manifest: %w", err)
			}
			lvl.guardKeys = append(lvl.guardKeys, k)
		}
		if lvl.sentinel.tables, err = openAll(ml.Sentinel.Tables); err != nil {
			return 0, err
		}
		lvl.guards = make([]guardRun, len(lvl.guardKeys))
		for gi := range ml.Guards {
			if gi >= len(lvl.guards) {
				break
			}
			if lvl.guards[gi].tables, err = openAll(ml.Guards[gi].Tables); err != nil {
				return 0, err
			}
		}
	}
	for _, mg := range m.Guards {
		k, err := hex.DecodeString(mg.Key)
		if err != nil {
			return 0, fmt.Errorf("kvstore: bad guard in manifest: %w", err)
		}
		db.guards.keys = append(db.guards.keys, guardKey{key: k, minLevel: mg.MinLevel})
	}
	return m.WALGen, nil
}
