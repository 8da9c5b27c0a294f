package kvstore

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

// Failure injection: the store must fail loudly (never silently lose or
// corrupt data) when its on-disk state is damaged, and recover cleanly
// from partial writes.

func populate(t testing.TB, dir string, n int) {
	t.Helper()
	db, err := Open(dir, smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := db.Put([]byte(fmt.Sprintf("k%05d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestOpenFailsOnMissingSSTable(t *testing.T) {
	dir := t.TempDir()
	populate(t, dir, 2000)
	// Delete one table referenced by the manifest.
	matches, _ := filepath.Glob(filepath.Join(dir, "*.sst"))
	if len(matches) == 0 {
		t.Skip("no tables flushed at this size")
	}
	os.Remove(matches[0])
	if _, err := Open(dir, smallOpts()); err == nil {
		t.Error("open succeeded with a missing table")
	}
}

func TestOpenFailsOnCorruptManifest(t *testing.T) {
	dir := t.TempDir()
	populate(t, dir, 2000)
	if err := os.WriteFile(filepath.Join(dir, manifestName), []byte("{broken"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, smallOpts()); err == nil {
		t.Error("open succeeded with a corrupt manifest")
	}
}

func TestOpenFailsOnCorruptTable(t *testing.T) {
	dir := t.TempDir()
	populate(t, dir, 2000)
	matches, _ := filepath.Glob(filepath.Join(dir, "*.sst"))
	if len(matches) == 0 {
		t.Skip("no tables flushed")
	}
	// Truncate a table to garbage.
	if err := os.WriteFile(matches[0], []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, smallOpts()); !errors.Is(err, ErrCorruptTable) {
		t.Errorf("open with a corrupt table: %v, want ErrCorruptTable", err)
	}
}

func TestCorruptWALRecordStopsReplayCleanly(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	db.Put([]byte("before"), []byte("1"))
	db.wal.f.Close() // crash without flushing to a table
	// Flip a byte inside the record payload.
	path := filepath.Join(dir, "wal.log")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[db.wal.size-1] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	re, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("reopen with corrupt WAL tail: %v", err)
	}
	defer re.Close()
	// The corrupted record is dropped — acceptable, it was never
	// acknowledged as flushed — and the store stays usable.
	if err := re.Put([]byte("after"), []byte("2")); err != nil {
		t.Fatal(err)
	}
	if _, found, _ := re.Get([]byte("after")); !found {
		t.Error("store unusable after WAL corruption recovery")
	}
}

func TestHalfWrittenBatchDroppedAtomically(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var b Batch
	b.Put([]byte("x"), []byte("1"))
	b.Put([]byte("y"), []byte("2"))
	if err := db.ApplyBatch(&b); err != nil {
		t.Fatal(err)
	}
	db.wal.f.Close()
	// Truncate mid-batch-record: the whole batch must vanish on replay,
	// never half of it.
	path := filepath.Join(dir, "wal.log")
	data, _ := os.ReadFile(path)
	if err := os.WriteFile(path, data[:db.wal.size-5], 0o644); err != nil {
		t.Fatal(err)
	}
	re, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	_, foundX, _ := re.Get([]byte("x"))
	_, foundY, _ := re.Get([]byte("y"))
	if foundX != foundY {
		t.Errorf("batch atomicity violated on torn WAL: x=%v y=%v", foundX, foundY)
	}
}

// TestTornBatchRecordEveryOffset is the exhaustive torn-batch recovery
// sweep backing the commit pipeline's atomic-frame promise: a batch
// record (one MethodBatch frame, one commit ack) that a crash tears at
// ANY byte offset must vanish atomically on replay — every record before
// it intact, no partial subset of the batch applied, and the reopened
// store fully writable.
func TestTornBatchRecordEveryOffset(t *testing.T) {
	src := t.TempDir()
	db, err := Open(src, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Put([]byte("before"), []byte("ok")); err != nil {
		t.Fatal(err)
	}
	batchStart := db.wal.size

	var b Batch
	batchKeys := [][]byte{[]byte("bx"), []byte("by"), []byte("bz")}
	for i, k := range batchKeys {
		b.Put(k, []byte{byte('0' + i)})
	}
	b.Delete([]byte("before-phantom")) // tombstones must tear atomically too
	if err := db.ApplyBatch(&b); err != nil {
		t.Fatal(err)
	}
	if err := db.wal.f.Close(); err != nil {
		t.Fatal(err)
	}
	wal, err := os.ReadFile(filepath.Join(src, "wal.log"))
	if err != nil {
		t.Fatal(err)
	}
	wal = wal[:db.wal.size] // the file's size is set ahead of the log's end
	if int64(len(wal)) <= batchStart {
		t.Fatalf("batch record did not grow the WAL (size %d, batch at %d)", len(wal), batchStart)
	}
	// No memtable flush happened, so the manifest may not exist yet; copy
	// it only when present.
	manifest, manifestErr := os.ReadFile(filepath.Join(src, manifestName))

	// Tear the WAL at every offset inside the batch record (cut == len(wal)
	// is the no-tear control: the whole batch must then survive).
	for cut := batchStart; cut <= int64(len(wal)); cut++ {
		dir := t.TempDir()
		if manifestErr == nil {
			if err := os.WriteFile(filepath.Join(dir, manifestName), manifest, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		if err := os.WriteFile(filepath.Join(dir, "wal.log"), wal[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		re, err := Open(dir, Options{})
		if err != nil {
			t.Fatalf("cut %d: reopen: %v", cut, err)
		}
		if _, found, err := re.Get([]byte("before")); err != nil || !found {
			t.Fatalf("cut %d: record before the tear lost (found=%v err=%v)", cut, found, err)
		}
		wantBatch := cut == int64(len(wal))
		for _, k := range batchKeys {
			_, found, err := re.Get(k)
			if err != nil {
				t.Fatalf("cut %d: get %s: %v", cut, k, err)
			}
			if found != wantBatch {
				t.Fatalf("cut %d: key %s found=%v, want %v (batch must be all-or-nothing)", cut, k, found, wantBatch)
			}
		}
		// The reopened store keeps working, including new batches.
		var nb Batch
		nb.Put([]byte("post"), []byte("1"))
		if err := re.ApplyBatch(&nb); err != nil {
			t.Fatalf("cut %d: batch after reopen: %v", cut, err)
		}
		if _, found, _ := re.Get([]byte("post")); !found {
			t.Fatalf("cut %d: write after reopen not visible", cut)
		}
		// A second crash: what was written behind the tear must be in
		// front of whatever the next replay stops at.
		if err := re.wal.f.Close(); err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		re2, err := Open(dir, Options{})
		if err != nil {
			t.Fatalf("cut %d: second reopen: %v", cut, err)
		}
		for _, k := range []string{"before", "post"} {
			if _, found, err := re2.Get([]byte(k)); err != nil || !found {
				t.Fatalf("cut %d: %q lost by the second crash (found=%v err=%v)", cut, k, found, err)
			}
		}
		if err := re2.Close(); err != nil {
			t.Fatalf("cut %d: close: %v", cut, err)
		}
	}
}

// TestTornTailThenAppendSurvivesSecondCrash: a write acknowledged after a
// recovery that found a torn tail must survive the next crash. It did not
// while the log was reopened in append mode: the new record landed behind
// the torn bytes, exactly where the next replay stops.
func TestTornTailThenAppendSurvivesSecondCrash(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, Options{SyncWAL: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Put([]byte("first"), []byte("1")); err != nil {
		t.Fatal(err)
	}
	if err := db.Put([]byte("torn"), []byte("2")); err != nil {
		t.Fatal(err)
	}
	db.wal.f.Close() // crash
	path := filepath.Join(dir, "wal.log")
	if err := os.Truncate(path, db.wal.size-5); err != nil {
		t.Fatal(err)
	}
	re, err := Open(dir, Options{SyncWAL: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, found, _ := re.Get([]byte("torn")); found {
		t.Fatal("the torn record was replayed")
	}
	if err := re.Put([]byte("after"), []byte("3")); err != nil { // acked after its fsync
		t.Fatal(err)
	}
	re.wal.f.Close() // second crash
	re2, err := Open(dir, Options{SyncWAL: true})
	if err != nil {
		t.Fatal(err)
	}
	defer re2.Close()
	for _, k := range []string{"first", "after"} {
		if _, found, err := re2.Get([]byte(k)); err != nil || !found {
			t.Errorf("%q lost by the second crash (found=%v err=%v)", k, found, err)
		}
	}
}

// TestReplayBoundsRecordLength: the length in a record header is whatever
// the disk says. Replay must not size a buffer by it before knowing the
// file holds that many bytes.
func TestReplayBoundsRecordLength(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Put([]byte("kept"), []byte("1")); err != nil {
		t.Fatal(err)
	}
	db.wal.f.Close() // crash
	f, err := os.OpenFile(filepath.Join(dir, "wal.log"), os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte{0xff, 0xff, 0xff, 0xff, 1, 2, 3, 4, 5}, db.wal.size); err != nil {
		t.Fatal(err)
	}
	f.Close()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	re, err := Open(dir, Options{})
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 64<<20 {
		t.Errorf("recovery allocated %d MiB on a header claiming 4 GiB", grew>>20)
	}
	if _, found, _ := re.Get([]byte("kept")); !found {
		t.Error("record before the lying header lost")
	}
	if got, want := re.Stats().WALBytes, db.wal.size; got != want {
		t.Errorf("log resumed at %d, want %d (the last intact record's end)", got, want)
	}
}

// TestReopenMidSectorThenCrashKeepsRecords: a log reopened at an end
// inside a sector writes that sector back, zero-padded, and zero-fills
// from the next sector boundary on. Zero-filling from the recovered end's
// own sector would wipe the records in front of the end; a crash before
// any new write would then lose them. The value sizes put the end inside
// the first sector, inside a later one, and on a boundary.
func TestReopenMidSectorThenCrashKeepsRecords(t *testing.T) {
	for _, vals := range [][]int{{40}, {300, 300, 100}, {512 - 19}} {
		t.Run(fmt.Sprint(vals), func(t *testing.T) {
			dir := t.TempDir()
			db, err := Open(dir, Options{SyncWAL: true})
			if err != nil {
				t.Fatal(err)
			}
			for i, n := range vals {
				if err := db.Put([]byte(fmt.Sprintf("k%d", i)), make([]byte, n)); err != nil {
					t.Fatal(err)
				}
			}
			end := db.wal.size
			db.wal.f.Close() // crash
			re, err := Open(dir, Options{SyncWAL: true})
			if err != nil {
				t.Fatal(err)
			}
			if got := re.wal.size; got != end {
				t.Fatalf("log resumed at %d, want %d", got, end)
			}
			re.wal.f.Close() // crash before any write
			re2, err := Open(dir, Options{SyncWAL: true})
			if err != nil {
				t.Fatal(err)
			}
			defer re2.Close()
			for i := range vals {
				if _, found, err := re2.Get([]byte(fmt.Sprintf("k%d", i))); err != nil || !found {
					t.Errorf("k%d lost by reopening at %d (sector offset %d) and crashing (found=%v err=%v)",
						i, end, end%walSector, found, err)
				}
			}
		})
	}
}

// TestAckedWritesInOneSectorSurviveCrashes: twenty acked SyncWAL writes
// small enough to share the log's first sector. Each sync rewrites that
// sector with one more record in it; a crash taken after any of them —
// the log file as it stands, opened in a directory of its own — must
// hold every write acked so far.
func TestAckedWritesInOneSectorSurviveCrashes(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, Options{SyncWAL: true})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	const writes = 20
	for i := 0; i < writes; i++ {
		if err := db.Put([]byte(fmt.Sprintf("k%02d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
		log, err := os.ReadFile(filepath.Join(dir, "wal.log"))
		if err != nil {
			t.Fatal(err)
		}
		crashed := t.TempDir()
		if err := os.WriteFile(filepath.Join(crashed, "wal.log"), log, 0o644); err != nil {
			t.Fatal(err)
		}
		re, err := Open(crashed, Options{SyncWAL: true})
		if err != nil {
			t.Fatal(err)
		}
		for j := 0; j <= i; j++ {
			k := []byte(fmt.Sprintf("k%02d", j))
			if _, found, err := re.Get(k); err != nil || !found {
				t.Fatalf("crash after write %d: acked %s lost (found=%v err=%v)", i, k, found, err)
			}
		}
		re.Close()
	}
	if db.wal.size > walSector {
		t.Fatalf("%d records take %d bytes, more than one sector", writes, db.wal.size)
	}
}
