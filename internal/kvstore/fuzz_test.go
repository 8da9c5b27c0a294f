package kvstore

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"runtime"
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
	for _, entries := range [][]testEntry{seqEntries(1), tombs, seqEntries(300)} {
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
			tbl.get(k, bloomHash(k), nil, &readStats{})
			saved := tbl.filter
			tbl.filter = nil
			tbl.get(k, bloomHash(k), nil, &readStats{})
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

// FuzzReplayWAL feeds arbitrary bytes to recovery as a write-ahead log of
// generation gen, which a manifest beside it names. Whatever the bytes:
// replay does not panic and allocates in proportion to the file, never to
// a length the file claims; it hands apply whole records only (a batch
// entirely or not at all); the offset it reports is a fixed point
// (replaying the log cut there finds the same records); and a store
// opened on the log holds exactly what replay applied, accepts a write,
// and still has that write after the next crash — which is what resuming
// the log behind a torn tail used to lose. Seeds are a real log whole,
// torn, zero-tailed and bit-flipped, and a recycled one: a second
// generation written over the first's longer log.
func FuzzReplayWAL(f *testing.F) {
	seedDir := f.TempDir()
	db, err := Open(seedDir, Options{})
	if err != nil {
		f.Fatal(err)
	}
	db.Put([]byte("a"), []byte("1"))
	db.Delete([]byte("a"))
	var b Batch
	b.Put([]byte("bx"), []byte("2"))
	b.Put([]byte("by"), []byte("3"))
	b.Delete([]byte("bz"))
	db.ApplyBatch(&b)
	db.Put([]byte("tail"), make([]byte, 300))
	db.wal.f.Close() // crash
	log, err := os.ReadFile(filepath.Join(seedDir, "wal.log"))
	if err != nil {
		f.Fatal(err)
	}
	log = log[:db.wal.size] // a size-ahead tail is the second seed
	flipped := append([]byte(nil), log...)
	flipped[30] ^= 0x40
	for _, seed := range [][]byte{log, append(append([]byte(nil), log...), make([]byte, 4096)...)} {
		f.Add(seed, uint32(0), false)
	}
	for _, cut := range []int{3, walHeaderSize, 40, len(log) - 300, len(log) - 1} {
		f.Add(append([]byte(nil), log[:cut]...), uint32(0), false)
	}
	f.Add(flipped, uint32(0), true)
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0, 1}, uint32(0), false)
	f.Add(make([]byte, 64), uint32(0), true)
	f.Add(recycledLog(f), uint32(1), false)

	f.Fuzz(func(t *testing.T, data []byte, gen uint32, fixCRC bool) {
		// With fixCRC every record the lengths delimit gets a valid
		// checksum, so payload mutations reach the op parser behind it.
		for off := 0; fixCRC && len(data)-off >= walHeaderSize; {
			n := binary.BigEndian.Uint32(data[off:])
			if n == 0 || uint64(n) > uint64(len(data)-off-walHeaderSize) {
				break
			}
			end := off + walHeaderSize + int(n)
			binary.BigEndian.PutUint32(data[off+4:], walChecksum(gen, data[off+walHeaderSize:end]))
			off = end
		}
		dir := t.TempDir()
		path := filepath.Join(dir, "wal.log")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		m, err := json.Marshal(manifest{WALGen: gen})
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, manifestName), m, 0o644); err != nil {
			t.Fatal(err)
		}

		// model is what the log says the store holds (nil = deleted).
		model := map[string][]byte{}
		records := 0
		apply := func(ops []byte, n int) {
			seen := 0
			whole := ForEachOp(ops, n, func(key, value []byte, tombstone bool) {
				seen++
				if tombstone {
					value = nil
				} else if value == nil {
					value = []byte{}
				}
				model[string(key)] = value
			})
			if !whole || seen != n {
				t.Fatalf("replay applied a partial record: %d of %d ops, whole=%v", seen, n, whole)
			}
			records++
		}
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		end, err := replayWAL(path, gen, apply)
		runtime.ReadMemStats(&m1)
		if err != nil {
			t.Fatal(err)
		}
		if grew := m1.TotalAlloc - m0.TotalAlloc; grew > uint64(8*len(data))+1<<20 {
			t.Fatalf("replay of %d bytes allocated %d", len(data), grew)
		}
		if end < 0 || end > int64(len(data)) {
			t.Fatalf("replay ended at %d of %d bytes", end, len(data))
		}
		if err := os.WriteFile(path, data[:end], 0o644); err != nil {
			t.Fatal(err)
		}
		again := 0
		if end2, err := replayWAL(path, gen, func([]byte, int) { again++ }); err != nil || end2 != end || again != records {
			t.Fatalf("log cut at its end %d replays to %d with %d records (was %d), err %v", end, end2, again, records, err)
		}

		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		check := func(db *DB, stage string) {
			for k, want := range model {
				got, found, err := db.Get([]byte(k))
				if err != nil || found != (want != nil) || (found && !bytes.Equal(got, want)) {
					t.Fatalf("%s: key %q = %q found=%v err=%v, log says %q", stage, k, got, found, err, want)
				}
			}
		}
		db, err := Open(dir, Options{MemtableBytes: 64 << 20})
		if err != nil {
			t.Fatalf("open on the log: %v", err)
		}
		check(db, "open")
		if got := db.Stats().WALBytes; got != end {
			t.Fatalf("log resumed at %d, replay ended at %d", got, end)
		}
		const after = "\xfffuzz-after"
		if err := db.Put([]byte(after), []byte("kept")); err != nil {
			t.Fatalf("write after recovery: %v", err)
		}
		db.wal.f.Close() // crash
		model[after] = []byte("kept")
		re, err := Open(dir, Options{MemtableBytes: 64 << 20})
		if err != nil {
			t.Fatalf("reopen: %v", err)
		}
		check(re, "reopen")
		if err := re.Close(); err != nil {
			t.Fatal(err)
		}
	})
}

// recycledLog is a real recycled log, cut where its first generation
// ended: generation 1's records at its head, then the zero pad of their
// last sector, then the rest of generation 0's longer log.
func recycledLog(f *testing.F) []byte {
	dir := f.TempDir()
	db, err := Open(dir, Options{})
	if err != nil {
		f.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		db.Put([]byte(fmt.Sprintf("old%d", i)), make([]byte, 100))
	}
	oldEnd := db.wal.size
	if err := db.Flush(); err != nil {
		f.Fatal(err)
	}
	db.Put([]byte("new"), []byte("1"))
	db.Delete([]byte("old3"))
	db.wal.f.Close() // crash
	log, err := os.ReadFile(filepath.Join(dir, "wal.log"))
	if err != nil {
		f.Fatal(err)
	}
	return log[:oldEnd]
}
