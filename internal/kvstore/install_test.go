package kvstore

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

// TestFailedManifestInstallLosesNoAckedWrite: a flush whose manifest
// install fails must leave every acknowledged write recoverable. A
// directory at MANIFEST.json.tmp makes the install fail; the store is
// then abandoned, as a crash would, and the directory reopened. Retiring
// the log before the install lost the flushed writes; deleting a
// compaction's inputs before it left the old manifest naming tables that
// were gone.
func TestFailedManifestInstallLosesNoAckedWrite(t *testing.T) {
	for _, sync := range []bool{false, true} {
		for _, compact := range []bool{false, true} {
			t.Run(fmt.Sprintf("sync=%v/compact=%v", sync, compact), func(t *testing.T) {
				dir := t.TempDir()
				opts := smallOpts()
				opts.SyncWAL = sync
				db, err := Open(dir, opts)
				if err != nil {
					t.Fatal(err)
				}
				acked := map[string]string{}
				i := 0
				put := func() error {
					k, v := fmt.Sprintf("k%05d", i), fmt.Sprintf("v%d", i)
					i++
					err := db.Put([]byte(k), []byte(v))
					if err == nil {
						acked[k] = v
					}
					return err
				}
				// Installs that work: one table, or the L0 tables the next
				// flush compacts away.
				tables := 1
				if compact {
					tables = opts.MaxL0Tables
				}
				for db.Stats().TablesPerLevel[0] < tables {
					if err := put(); err != nil {
						t.Fatal(err)
					}
				}
				flushes := db.Stats().Flushes
				if err := os.Mkdir(filepath.Join(dir, manifestName+".tmp"), 0o755); err != nil {
					t.Fatal(err)
				}
				// Writes go on after the failure: they must not land where
				// the next replay cannot find them.
				failedAt := -1
				for n := 0; failedAt < 0 || n < failedAt+50; n++ {
					if n > 10000 {
						t.Fatal("no flush failed to install")
					}
					if put() != nil && failedAt < 0 {
						failedAt = n
					}
				}
				if got := db.Stats().Flushes; got == flushes {
					t.Fatal("the failing write flushed nothing")
				}
				if compact && db.Stats().Compactions == 0 {
					t.Fatal("the failing flush compacted nothing")
				}
				db.wal.f.Close() // abandon the store

				re, err := Open(dir, opts)
				if err != nil {
					t.Fatalf("reopen after a failed install: %v", err)
				}
				defer re.Close()
				lost := 0
				for k, want := range acked {
					v, found, err := re.Get([]byte(k))
					if err != nil || !found || string(v) != want {
						lost++
					}
				}
				if lost > 0 {
					t.Fatalf("%d of %d acknowledged keys lost after a failed install", lost, len(acked))
				}
			})
		}
	}
}

// TestOpenSweepsOrphans: Open deletes the files a crash leaves beside the
// manifest — a table it does not name and a temp manifest never renamed
// into place — and keeps every table it does name.
func TestOpenSweepsOrphans(t *testing.T) {
	dir := t.TempDir()
	populate(t, dir, 2000)
	live, err := filepath.Glob(filepath.Join(dir, "*.sst"))
	if err != nil || len(live) == 0 {
		t.Fatalf("no tables flushed (%v)", err)
	}
	data, err := os.ReadFile(live[0])
	if err != nil {
		t.Fatal(err)
	}
	orphan := filepath.Join(dir, "99999999.sst")
	tmp := filepath.Join(dir, manifestName+".tmp")
	for path, b := range map[string][]byte{orphan: data, tmp: []byte(`{"l0":[`)} {
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	db, err := Open(dir, smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	for _, path := range []string{orphan, tmp} {
		if _, err := os.Stat(path); !os.IsNotExist(err) {
			t.Errorf("%s survived Open (stat: %v)", filepath.Base(path), err)
		}
	}
	for _, path := range live {
		if _, err := os.Stat(path); err != nil {
			t.Errorf("live table %s: %v", filepath.Base(path), err)
		}
	}
	for i := 0; i < 2000; i++ {
		if _, found, err := db.Get([]byte(fmt.Sprintf("k%05d", i))); err != nil || !found {
			t.Fatalf("k%05d lost (found=%v err=%v)", i, found, err)
		}
	}
}

// sectorRecord puts key with a value that makes its record exactly one
// sector long.
func sectorRecord(t *testing.T, db *DB, key string, fill byte) {
	t.Helper()
	val := bytes.Repeat([]byte{fill}, walSector-walHeaderSize-9-len(key))
	if err := db.Put([]byte(key), val); err != nil {
		t.Fatal(err)
	}
}

// replayCount replays the log at path as generation gen and returns the
// records it applied and where it ended.
func replayCount(t *testing.T, path string, gen uint32) (records int, end int64) {
	t.Helper()
	end, err := replayWAL(path, gen, func([]byte, int) { records++ })
	if err != nil {
		t.Fatal(err)
	}
	return records, end
}

// TestRecycledLogTailHoldsOldGeneration: a flush restarts the log over the
// blocks it wrote, so past the new generation's end the previous one's
// records sit intact — and replay applies only the current generation's.
// Every record is one sector, so the new generation ends on a sector
// boundary with a whole old record behind it, not a zero pad.
func TestRecycledLogTailHoldsOldGeneration(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, Options{SyncWAL: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		sectorRecord(t, db, fmt.Sprintf("k%d", i), 'o')
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	for i := 2; i < 6; i++ { // overwrite k2..k5 in generation 1
		sectorRecord(t, db, fmt.Sprintf("k%d", i), 'n')
	}
	db.wal.f.Close() // crash
	path := filepath.Join(dir, "wal.log")
	if n, end := replayCount(t, path, 1); n != 4 || end != 4*walSector {
		t.Fatalf("generation 1 replays %d records to %d, want 4 to %d", n, end, 4*walSector)
	}
	log, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	stale := filepath.Join(t.TempDir(), "stale.log")
	if err := os.WriteFile(stale, log[4*walSector:6*walSector], 0o644); err != nil {
		t.Fatal(err)
	}
	if n, _ := replayCount(t, stale, 0); n != 2 {
		t.Fatalf("the tail holds %d intact generation-0 records, want 2", n)
	}
	re, err := Open(dir, Options{SyncWAL: true})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	for i := 0; i < 6; i++ {
		want := byte('o')
		if i >= 2 {
			want = 'n'
		}
		v, found, err := re.Get([]byte(fmt.Sprintf("k%d", i)))
		if err != nil || !found || v[0] != want {
			t.Errorf("k%d = %.1q found=%v err=%v, want %q", i, v, found, err, want)
		}
	}
}

// TestTornRecordOverStaleOneEndsReplay: a record of the current generation
// torn over the previous one's bytes — its second sector never written,
// so an intact old record shows through — ends replay in front of it, and
// a write acknowledged after that recovery survives the next crash.
func TestTornRecordOverStaleOneEndsReplay(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "wal.log")
	db, err := Open(dir, Options{SyncWAL: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		sectorRecord(t, db, fmt.Sprintf("k%d", i), 'o')
	}
	old, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	sectorRecord(t, db, "k0", 'n')
	if err := db.Put([]byte("big"), make([]byte, 2*walSector-walHeaderSize-9-3)); err != nil {
		t.Fatal(err)
	}
	db.wal.f.Close() // crash
	f, err := os.OpenFile(path, os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	// Tear "big": its second sector reverts to generation 0's k2.
	if _, err := f.WriteAt(old[2*walSector:3*walSector], 2*walSector); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if n, end := replayCount(t, path, 1); n != 1 || end != walSector {
		t.Fatalf("replay over a torn record applied %d records to %d, want 1 to %d", n, end, walSector)
	}
	re, err := Open(dir, Options{SyncWAL: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, found, _ := re.Get([]byte("big")); found {
		t.Fatal("the torn record was replayed")
	}
	if err := re.Put([]byte("after"), []byte("1")); err != nil {
		t.Fatal(err)
	}
	re.wal.f.Close() // second crash
	re2, err := Open(dir, Options{SyncWAL: true})
	if err != nil {
		t.Fatal(err)
	}
	defer re2.Close()
	if v, found, err := re2.Get([]byte("k0")); err != nil || !found || v[0] != 'n' {
		t.Errorf("k0 = %.1q found=%v err=%v, want the generation-1 value", v, found, err)
	}
	if _, found, err := re2.Get([]byte("after")); err != nil || !found {
		t.Errorf("write acked after recovery lost (found=%v err=%v)", found, err)
	}
}

// TestFlushWaitsOutInFlightWriteOut: a leader that cut sectors before a
// flush writes them after it; the flush must not restart the log until
// that write is done, or the old generation's sectors could land over the
// new one's.
func TestFlushWaitsOutInFlightWriteOut(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, Options{SyncWAL: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Put([]byte("k"), []byte("1")); err != nil {
		t.Fatal(err)
	}
	// A leader's cut of one more record, its write-out not yet made.
	db.writeMu.Lock()
	if err := db.wal.append(appendOpBody(nil, walKindPut, []byte("x"), []byte("1")), 1, false); err != nil {
		t.Fatal(err)
	}
	sectors, off := db.wal.cut()
	db.writeMu.Unlock()
	flushed := make(chan error, 1)
	go func() { flushed <- db.Flush() }()
	select {
	case err := <-flushed:
		t.Fatalf("the flush restarted the log during a write-out (err %v)", err)
	case <-time.After(50 * time.Millisecond):
	}
	if err := db.wal.sync(sectors, off); err != nil {
		t.Fatal(err)
	}
	if err := <-flushed; err != nil {
		t.Fatal(err)
	}
	if err := db.Put([]byte("after"), []byte("2")); err != nil {
		t.Fatal(err)
	}
	db.wal.f.Close() // crash
	re, err := Open(dir, Options{SyncWAL: true})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	for _, k := range []string{"k", "after"} {
		if _, found, err := re.Get([]byte(k)); err != nil || !found {
			t.Errorf("%q lost (found=%v err=%v)", k, found, err)
		}
	}
}

// TestSyncRacingFlushNeverLandsInRecycledLog: synced writers race flushes
// — the memtable's own and forced ones — so leaders cut sectors of one
// generation while the log restarts in the next. After a crash, every
// acknowledged write is there with its value: no write-out landed over
// a later generation's records. Run it under -race.
func TestSyncRacingFlushNeverLandsInRecycledLog(t *testing.T) {
	dir := t.TempDir()
	opts := Options{SyncWAL: true, MemtableBytes: 16 << 10}
	db, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	const writers, each = 4, 300
	acked := make([][]string, writers)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	flushes := make(chan error, 1)
	go func() {
		for {
			select {
			case <-stop:
				flushes <- nil
				return
			default:
			}
			if err := db.Flush(); err != nil {
				flushes <- err
				return
			}
			time.Sleep(200 * time.Microsecond)
		}
	}()
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				k := fmt.Sprintf("w%d-%04d", w, i)
				if err := db.Put([]byte(k), []byte(k)); err != nil {
					t.Error(err)
					return
				}
				acked[w] = append(acked[w], k)
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	if err := <-flushes; err != nil {
		t.Fatal(err)
	}
	// Some acked writes sit only in the last generation of the log.
	for i := 0; i < 20; i++ {
		k := fmt.Sprintf("last-%02d", i)
		if err := db.Put([]byte(k), []byte(k)); err != nil {
			t.Fatal(err)
		}
		acked[0] = append(acked[0], k)
	}
	if db.Stats().Flushes < 3 {
		t.Fatalf("only %d flushes raced the writers", db.Stats().Flushes)
	}
	db.wal.f.Close() // crash
	re, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	for _, keys := range acked {
		for _, k := range keys {
			if v, found, err := re.Get([]byte(k)); err != nil || !found || string(v) != k {
				t.Fatalf("acked %s lost (found=%v err=%v)", k, found, err)
			}
		}
	}
}

// TestRecycledLogWritesOnlySectors: once the first generation's step is
// zero-filled, a flush writes nothing to the log, and each sync of the
// next generation grows WALWriteBytes by its sector write-out alone.
func TestRecycledLogWritesOnlySectors(t *testing.T) {
	db := openTest(t, Options{SyncWAL: true})
	opened := db.Stats().WALWriteBytes
	for gen := 0; gen < 3; gen++ {
		for i := 0; i < 8; i++ {
			before := db.Stats().WALWriteBytes
			// A 200-byte record, as in TestWALWritesSectors.
			if err := db.Put([]byte(fmt.Sprintf("k%03d", i)), make([]byte, 179)); err != nil {
				t.Fatal(err)
			}
			if got := db.Stats().WALWriteBytes - before; got < walSector || got > 2*walSector {
				t.Errorf("generation %d: a 200-byte record wrote %d bytes, want 1 or 2 sectors", gen, got)
			}
		}
		before := db.Stats().WALWriteBytes
		if err := db.Flush(); err != nil {
			t.Fatal(err)
		}
		if got := db.Stats().WALWriteBytes - before; got != 0 {
			t.Errorf("flush %d wrote %d bytes to the log, want 0", gen, got)
		}
	}
	if got := db.Stats().WALWriteBytes - opened; got > 3*8*2*walSector {
		t.Errorf("three generations wrote %d bytes past the open's zero-fill", got)
	}
}
