package kvstore

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// testEntry is one entry of a table under test.
type testEntry struct {
	key, value []byte
	tombstone  bool
}

func buildTestTable(t *testing.T, entries []testEntry) *sstable {
	t.Helper()
	path := filepath.Join(t.TempDir(), "t.sst")
	b, err := newTableBuilder(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if err := b.add(e.key, e.value, e.tombstone); err != nil {
			t.Fatal(err)
		}
	}
	tbl, err := b.finish()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { tbl.close() })
	return tbl
}

// tableGet is a point read the way DB.Get issues it.
func tableGet(t *sstable, key []byte) (value []byte, found, tombstone bool, err error) {
	return t.get(key, bloomHash(key), nil, &readStats{})
}

// tableScan visits the table's entries in [lo, hi) through the cursor.
func tableScan(t *sstable, lo, hi []byte, fn func(key, value []byte, tombstone bool) bool) error {
	c := newSSTCursor(t, lo, hi, &readStats{})
	defer c.close()
	for {
		k, v, tomb, ok, err := c.next()
		if err != nil || !ok || !fn(k, v, tomb) {
			return err
		}
	}
}

func seqEntries(n int) []testEntry {
	es := make([]testEntry, n)
	for i := range es {
		es[i] = testEntry{
			key:   []byte(fmt.Sprintf("key%05d", i)),
			value: []byte(fmt.Sprintf("value%d", i)),
		}
	}
	return es
}

func TestSSTableGet(t *testing.T) {
	tbl := buildTestTable(t, seqEntries(1000))
	for _, i := range []int{0, 1, 15, 16, 17, 500, 998, 999} {
		k := []byte(fmt.Sprintf("key%05d", i))
		v, found, tomb, err := tableGet(tbl, k)
		if err != nil {
			t.Fatal(err)
		}
		if !found || tomb || string(v) != fmt.Sprintf("value%d", i) {
			t.Errorf("get(%s) = (%q, %v, %v)", k, v, found, tomb)
		}
	}
	for _, k := range []string{"key99999", "aaa", "key00500x"} {
		_, found, _, err := tableGet(tbl, []byte(k))
		if err != nil {
			t.Fatal(err)
		}
		if found {
			t.Errorf("get(%q) found phantom key", k)
		}
	}
}

func TestSSTableTombstones(t *testing.T) {
	es := seqEntries(10)
	es[3].tombstone = true
	es[3].value = nil
	tbl := buildTestTable(t, es)
	_, found, tomb, err := tableGet(tbl, es[3].key)
	if err != nil {
		t.Fatal(err)
	}
	if !found || !tomb {
		t.Errorf("tombstone entry: found=%v tomb=%v", found, tomb)
	}
}

func TestSSTableScan(t *testing.T) {
	tbl := buildTestTable(t, seqEntries(100))
	var got []string
	err := tableScan(tbl, []byte("key00010"), []byte("key00015"), func(k, v []byte, tomb bool) bool {
		got = append(got, string(k))
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 5 || got[0] != "key00010" || got[4] != "key00014" {
		t.Errorf("scan = %v", got)
	}
}

func TestSSTableScanAll(t *testing.T) {
	tbl := buildTestTable(t, seqEntries(257)) // crosses index restart points
	n := 0
	if err := tableScan(tbl, nil, nil, func(k, v []byte, tomb bool) bool {
		n++
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if n != 257 {
		t.Errorf("full scan visited %d, want 257", n)
	}
}

func TestSSTableOutOfOrderAddFails(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.sst")
	b, err := newTableBuilder(path)
	if err != nil {
		t.Fatal(err)
	}
	defer b.abort()
	if err := b.add([]byte("b"), nil, false); err != nil {
		t.Fatal(err)
	}
	if err := b.add([]byte("a"), nil, false); err == nil {
		t.Error("out-of-order add should fail")
	}
	if err := b.add([]byte("b"), nil, false); err == nil {
		t.Error("duplicate add should fail")
	}
}

func TestSSTableOverlaps(t *testing.T) {
	tbl := buildTestTable(t, seqEntries(10)) // key00000..key00009
	cases := []struct {
		lo, hi string
		want   bool
	}{
		{"key00000", "key00005", true},
		{"key00009", "", true},
		{"key0000a", "", false}, // just above max
		{"a", "key00000", false},
		{"a", "key000000", true},
	}
	for _, c := range cases {
		var hi []byte
		if c.hi != "" {
			hi = []byte(c.hi)
		}
		if got := tbl.overlaps([]byte(c.lo), hi); got != c.want {
			t.Errorf("overlaps(%q, %q) = %v, want %v", c.lo, c.hi, got, c.want)
		}
	}
}

func TestSSTableReopenAfterClose(t *testing.T) {
	tbl := buildTestTable(t, seqEntries(50))
	path := tbl.path
	tbl.close()
	re, err := openSSTable(path)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer re.close()
	v, found, _, err := tableGet(re, []byte("key00042"))
	if err != nil || !found || string(v) != "value42" {
		t.Errorf("reopened get = (%q, %v, %v)", v, found, err)
	}
	if re.entries != 50 {
		t.Errorf("entries = %d, want 50", re.entries)
	}
}

// Every byte of filter block, index and footer is covered by the checksum
// or the magic: flipping any one of them must fail the open, as must a
// truncated file.
func TestSSTableCorruptionDetected(t *testing.T) {
	tbl := buildTestTable(t, seqEntries(50))
	path, dataEnd := tbl.path, int(tbl.dataEnd)
	tbl.close()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for off := dataEnd; off < len(data); off++ {
		bad := append([]byte(nil), data...)
		bad[off] ^= 0xff
		if err := os.WriteFile(path, bad, 0o644); err != nil {
			t.Fatal(err)
		}
		if re, err := openSSTable(path); !errors.Is(err, ErrCorruptTable) {
			if err == nil {
				re.close()
			}
			t.Fatalf("flipped byte %d of %d (data ends at %d): open returned %v, want ErrCorruptTable", off, len(data), dataEnd, err)
		}
	}
	for _, n := range []int{0, 10, dataEnd, len(data) - 1} {
		if err := os.WriteFile(path, data[:n], 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := openSSTable(path); !errors.Is(err, ErrCorruptTable) {
			t.Errorf("table truncated to %d bytes: open returned %v, want ErrCorruptTable", n, err)
		}
	}
}

// Data blocks carry no checksum of their own, so a damaged block is
// caught structurally: whatever byte is flipped, Get and a full scan
// return ErrCorruptTable or an answer — they never panic — and damage to
// a length field or the loss of the file's tail is always an error.
func TestSSTableDataCorruptionNeverPanics(t *testing.T) {
	entries := seqEntries(50)
	tbl := buildTestTable(t, entries)
	path, dataEnd := tbl.path, int(tbl.dataEnd)
	tbl.close()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	readAll := func(tbl *sstable) (firstErr error) {
		for _, e := range entries {
			if _, _, _, err := tableGet(tbl, e.key); err != nil && firstErr == nil {
				firstErr = err
			}
		}
		if err := tableScan(tbl, nil, nil, func(_, _ []byte, _ bool) bool { return true }); err != nil && firstErr == nil {
			firstErr = err
		}
		return firstErr
	}
	for off := 0; off < dataEnd; off++ {
		bad := append([]byte(nil), data...)
		bad[off] ^= 0xff
		if err := os.WriteFile(path, bad, 0o644); err != nil {
			t.Fatal(err)
		}
		re, err := openSSTable(path)
		if err != nil {
			t.Fatalf("flipped data byte %d: open failed (%v); data blocks are not part of the open", off, err)
		}
		if err := readAll(re); err != nil && !errors.Is(err, ErrCorruptTable) {
			t.Errorf("flipped data byte %d: %v, want ErrCorruptTable or no error", off, err)
		}
		re.close()
	}

	// The first entry's key length, blown up past its block.
	bad := append([]byte(nil), data...)
	bad[1] = 0x7f
	if err := os.WriteFile(path, bad, 0o644); err != nil {
		t.Fatal(err)
	}
	re, err := openSSTable(path)
	if err != nil {
		t.Fatal(err)
	}
	defer re.close()
	if _, _, _, err := tableGet(re, entries[3].key); !errors.Is(err, ErrCorruptTable) {
		t.Errorf("Get through an overlong key length: %v, want ErrCorruptTable", err)
	}
	if err := tableScan(re, nil, nil, func(_, _ []byte, _ bool) bool { return true }); !errors.Is(err, ErrCorruptTable) {
		t.Errorf("scan through an overlong key length: %v, want ErrCorruptTable", err)
	}

	// The file shrinks under an open table: the block read comes up short.
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	open2, err := openSSTable(path)
	if err != nil {
		t.Fatal(err)
	}
	defer open2.close()
	if err := os.Truncate(path, int64(dataEnd/2)); err != nil {
		t.Fatal(err)
	}
	if err := readAll(open2); !errors.Is(err, ErrCorruptTable) {
		t.Errorf("reads past the end of a truncated table: %v, want ErrCorruptTable", err)
	}
}
