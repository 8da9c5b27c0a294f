package kvstore

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"
)

// FuzzOpenSSTable feeds arbitrary bytes to the table reader as a table
// file: open, point reads, a full scan. Whatever the bytes, the reader
// answers or returns an error — it never panics and never reads outside
// the buffers it sized from validated offsets. Seeds are real builder
// output, so mutations start from files that pass the checksum.
func FuzzOpenSSTable(f *testing.F) {
	tombs := seqEntries(40)
	for i := 0; i < len(tombs); i += 7 {
		tombs[i].tombstone, tombs[i].value = true, nil
	}
	for _, entries := range [][]walOp{seqEntries(1), tombs, seqEntries(300)} {
		dir := f.TempDir()
		b, err := newTableBuilder(filepath.Join(dir, "seed.sst"))
		if err != nil {
			f.Fatal(err)
		}
		for _, e := range entries {
			if err := b.add(e.key, e.value, e.tombstone); err != nil {
				f.Fatal(err)
			}
		}
		tbl, err := b.finish()
		if err != nil {
			f.Fatal(err)
		}
		tbl.close()
		data, err := os.ReadFile(tbl.path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data, false)
		f.Add(data, true)
	}
	f.Fuzz(func(t *testing.T, data []byte, fixCRC bool) {
		// With fixCRC the checksum is recomputed over whatever the footer
		// says is the filter/index region, so mutations of index and
		// footer reach the parser behind the checksum too.
		if n := len(data) - footerSize; fixCRC && n >= 0 {
			if off := binary.BigEndian.Uint64(data[n:]); off <= uint64(n) {
				sum := crc32.ChecksumIEEE(data[off : n+footerCRCOff])
				binary.BigEndian.PutUint32(data[n+footerCRCOff:], sum)
			}
		}
		path := filepath.Join(t.TempDir(), "fuzz.sst")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		tbl, err := openSSTable(path)
		if err != nil {
			if !errors.Is(err, ErrCorruptTable) {
				t.Fatalf("open failed with %v, want ErrCorruptTable", err)
			}
			return
		}
		defer tbl.close()
		probes := [][]byte{nil, tbl.minKey, tbl.maxKey, []byte("key00003"), []byte("\xff")}
		for _, e := range tbl.index {
			probes = append(probes, e.key)
		}
		for _, k := range probes {
			// An empty filter admits everything, so the block walk runs
			// even when the fuzzer zeroed the filter out.
			tbl.get(k, bloomHash(k), &readStats{})
			saved := tbl.filter
			tbl.filter = nil
			tbl.get(k, bloomHash(k), &readStats{})
			tbl.filter = saved
		}
		tableScan(tbl, nil, nil, func(_, _ []byte, _ bool) bool { return true })
		tableScan(tbl, []byte("key00010"), []byte("key00020"), func(_, _ []byte, _ bool) bool { return true })
	})
}

// FuzzLoadManifest opens a store whose manifest is arbitrary bytes beside
// real table files: Open fails or yields a store that can be read and
// closed. Seeded with the manifest the store itself wrote.
func FuzzLoadManifest(f *testing.F) {
	seedDir := f.TempDir()
	populate(f, seedDir, 2000)
	manifestBytes, err := os.ReadFile(filepath.Join(seedDir, manifestName))
	if err != nil {
		f.Fatal(err)
	}
	tables, err := filepath.Glob(filepath.Join(seedDir, "*.sst"))
	if err != nil || len(tables) == 0 {
		f.Fatalf("seed store has no tables (%v)", err)
	}
	f.Add(manifestBytes)
	f.Add([]byte(`{"next_file_num":3,"l0":["` + filepath.Base(tables[0]) + `"],"levels":[{"guard_keys":["6b"],"sentinel":{"tables":[]},"guards":[{"tables":["` + filepath.Base(tables[0]) + `"]},{"tables":[]}]}]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		for _, tbl := range tables {
			if err := os.Link(tbl, filepath.Join(dir, filepath.Base(tbl))); err != nil {
				t.Fatal(err)
			}
		}
		if err := os.WriteFile(filepath.Join(dir, manifestName), data, 0o644); err != nil {
			t.Fatal(err)
		}
		db, err := Open(dir, smallOpts())
		if err != nil {
			return
		}
		db.Get([]byte("k00042"))
		db.Get([]byte("zzz"))
		db.Scan([]byte("k00100"), []byte("k00200"), func(_, _ []byte) bool { return true })
		db.Scan(nil, nil, func(_, _ []byte) bool { return true })
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
	})
}
