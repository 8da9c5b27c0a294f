package kvstore

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"origami/internal/racedetect"
)

// smallOpts forces frequent flushes and compactions so tests exercise the
// whole LSM machinery with modest data volumes.
func smallOpts() Options {
	return Options{
		MemtableBytes:     4 << 10,
		MaxL0Tables:       2,
		MaxTablesPerGuard: 2,
		MaxLevels:         3,
	}
}

func openTest(t *testing.T, opts Options) *DB {
	t.Helper()
	db, err := Open(t.TempDir(), opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	return db
}

func TestStorePutGet(t *testing.T) {
	db := openTest(t, Options{})
	if err := db.Put([]byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	v, found, err := db.Get([]byte("k"))
	if err != nil || !found || string(v) != "v" {
		t.Fatalf("Get = (%q, %v, %v)", v, found, err)
	}
	_, found, err = db.Get([]byte("missing"))
	if err != nil || found {
		t.Fatalf("missing Get = (%v, %v)", found, err)
	}
}

func TestStoreDelete(t *testing.T) {
	db := openTest(t, Options{})
	db.Put([]byte("k"), []byte("v"))
	if err := db.Delete([]byte("k")); err != nil {
		t.Fatal(err)
	}
	_, found, _ := db.Get([]byte("k"))
	if found {
		t.Error("deleted key still found")
	}
	// Deleting absent key is fine.
	if err := db.Delete([]byte("ghost")); err != nil {
		t.Errorf("delete absent: %v", err)
	}
}

func TestStoreDeleteSurvivesFlush(t *testing.T) {
	db := openTest(t, smallOpts())
	db.Put([]byte("k"), []byte("v"))
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	db.Delete([]byte("k"))
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	_, found, _ := db.Get([]byte("k"))
	if found {
		t.Error("tombstone lost across flush: key resurfaced")
	}
}

func TestStoreManyKeysThroughCompaction(t *testing.T) {
	db := openTest(t, smallOpts())
	const n = 3000
	for i := 0; i < n; i++ {
		k := []byte(fmt.Sprintf("key%06d", i))
		if err := db.Put(k, []byte(fmt.Sprintf("val%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	st := db.Stats()
	if st.Flushes == 0 || st.Compactions == 0 {
		t.Fatalf("expected flushes and compactions, got %+v", st)
	}
	for _, i := range []int{0, 1, 999, 1500, n - 1} {
		k := []byte(fmt.Sprintf("key%06d", i))
		v, found, err := db.Get(k)
		if err != nil || !found || string(v) != fmt.Sprintf("val%d", i) {
			t.Fatalf("Get(%s) = (%q, %v, %v)", k, v, found, err)
		}
	}
}

func TestStoreOverwriteNewestWins(t *testing.T) {
	db := openTest(t, smallOpts())
	for round := 0; round < 5; round++ {
		for i := 0; i < 300; i++ {
			k := []byte(fmt.Sprintf("key%03d", i))
			db.Put(k, []byte(fmt.Sprintf("r%d", round)))
		}
		db.Flush()
	}
	for i := 0; i < 300; i++ {
		k := []byte(fmt.Sprintf("key%03d", i))
		v, found, _ := db.Get(k)
		if !found || string(v) != "r4" {
			t.Fatalf("Get(%s) = (%q, %v), want r4", k, v, found)
		}
	}
}

func TestStoreScan(t *testing.T) {
	db := openTest(t, smallOpts())
	for i := 0; i < 1000; i++ {
		db.Put([]byte(fmt.Sprintf("key%04d", i)), []byte(fmt.Sprintf("v%d", i)))
	}
	db.Delete([]byte("key0500"))
	var got []string
	err := db.Scan([]byte("key0498"), []byte("key0503"), func(k, v []byte) bool {
		got = append(got, string(k))
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"key0498", "key0499", "key0501", "key0502"}
	if len(got) != len(want) {
		t.Fatalf("Scan = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("Scan[%d] = %q, want %q", i, got[i], want[i])
		}
	}
}

func TestStoreScanEarlyStop(t *testing.T) {
	db := openTest(t, Options{})
	for i := 0; i < 100; i++ {
		db.Put([]byte(fmt.Sprintf("k%03d", i)), []byte("v"))
	}
	n := 0
	db.Scan(nil, nil, func(k, v []byte) bool {
		n++
		return n < 7
	})
	if n != 7 {
		t.Errorf("early stop visited %d", n)
	}
}

func TestStoreBatchAtomicVisible(t *testing.T) {
	db := openTest(t, Options{})
	var b Batch
	b.Put([]byte("a"), []byte("1"))
	b.Put([]byte("b"), []byte("2"))
	b.Delete([]byte("a"))
	if err := db.ApplyBatch(&b); err != nil {
		t.Fatal(err)
	}
	if _, found, _ := db.Get([]byte("a")); found {
		t.Error("batched delete did not apply")
	}
	v, found, _ := db.Get([]byte("b"))
	if !found || string(v) != "2" {
		t.Error("batched put did not apply")
	}
	if (&Batch{}).Len() != 0 {
		t.Error("empty batch Len != 0")
	}
}

func TestStoreRecoveryFromWAL(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	db.Put([]byte("durable"), []byte("yes"))
	db.Put([]byte("gone"), []byte("1"))
	db.Delete([]byte("gone"))
	// Simulate a crash: do NOT flush or close cleanly; reopen from disk.
	db.wal.f.Close()
	re, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer re.Close()
	v, found, _ := re.Get([]byte("durable"))
	if !found || string(v) != "yes" {
		t.Errorf("recovered Get = (%q, %v)", v, found)
	}
	if _, found, _ := re.Get([]byte("gone")); found {
		t.Error("recovered deleted key")
	}
}

func TestStoreRecoveryAfterFlushAndMore(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 500; i++ {
		db.Put([]byte(fmt.Sprintf("k%04d", i)), []byte(fmt.Sprintf("v%d", i)))
	}
	db.Flush()
	db.Put([]byte("post-flush"), []byte("1"))
	db.wal.f.Close() // crash
	re, err := Open(dir, smallOpts())
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer re.Close()
	for _, k := range []string{"k0000", "k0499", "post-flush"} {
		if _, found, _ := re.Get([]byte(k)); !found {
			t.Errorf("key %q lost in recovery", k)
		}
	}
}

func TestStoreTornWALTailIgnored(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	db.Put([]byte("good"), []byte("1"))
	db.wal.f.Close()
	// Garbage right behind the last record simulates a torn write.
	f, _ := os.OpenFile(filepath.Join(dir, "wal.log"), os.O_WRONLY, 0o644)
	f.WriteAt([]byte{9, 9, 9}, db.wal.size)
	f.Close()
	re, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("reopen with torn WAL: %v", err)
	}
	defer re.Close()
	if _, found, _ := re.Get([]byte("good")); !found {
		t.Error("record before torn tail lost")
	}
}

func TestStoreCloseIsIdempotentAndFinal(t *testing.T) {
	db := openTest(t, Options{})
	db.Put([]byte("k"), []byte("v"))
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Errorf("second close: %v", err)
	}
	if err := db.Put([]byte("x"), []byte("y")); err == nil {
		t.Error("put after close should fail")
	}
	if err := db.Delete([]byte("x")); err == nil {
		t.Error("delete after close should fail")
	}
}

func TestStoreReopenAfterCleanClose(t *testing.T) {
	dir := t.TempDir()
	db, _ := Open(dir, smallOpts())
	for i := 0; i < 1000; i++ {
		db.Put([]byte(fmt.Sprintf("k%04d", i)), []byte("v"))
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := Open(dir, smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	n := 0
	re.Scan(nil, nil, func(k, v []byte) bool { n++; return true })
	if n != 1000 {
		t.Errorf("reopened scan count = %d, want 1000", n)
	}
}

func TestStorePlainLeveledMode(t *testing.T) {
	opts := smallOpts()
	opts.PlainLeveled = true
	db := openTest(t, opts)
	for i := 0; i < 2000; i++ {
		db.Put([]byte(fmt.Sprintf("key%05d", i%500)), []byte(fmt.Sprintf("v%d", i)))
	}
	db.Flush()
	for i := 0; i < 500; i++ {
		k := []byte(fmt.Sprintf("key%05d", i))
		_, found, err := db.Get(k)
		if err != nil || !found {
			t.Fatalf("plain-leveled Get(%s): found=%v err=%v", k, found, err)
		}
	}
}

// TestStoreRandomizedAgainstMap drives a seeded random op mix through
// flushes and compactions, in both compaction modes, and verifies the DB
// against a model map: every present key and a disjoint set of absent
// keys through Get, the whole key space and random ranges through Scan,
// and — a bloom false negative would be silent data loss — that every key
// a table holds passes that table's filter.
func TestStoreRandomizedAgainstMap(t *testing.T) {
	for _, plain := range []bool{false, true} {
		t.Run(fmt.Sprintf("plainLeveled=%v", plain), func(t *testing.T) {
			opts := smallOpts()
			opts.PlainLeveled = plain
			db := openTest(t, opts)
			model := map[string]string{}
			rnd := rand.New(rand.NewSource(7))
			key := func(i int) string { return fmt.Sprintf("key%03d", i) }
			for i := 0; i < 8000; i++ {
				k := key(rnd.Intn(400))
				switch rnd.Intn(10) {
				case 0:
					if err := db.Delete([]byte(k)); err != nil {
						t.Fatal(err)
					}
					delete(model, k)
				case 1:
					if rnd.Intn(20) == 0 {
						if err := db.Flush(); err != nil {
							t.Fatal(err)
						}
					}
				default:
					v := fmt.Sprintf("v%d", i)
					if err := db.Put([]byte(k), []byte(v)); err != nil {
						t.Fatal(err)
					}
					model[k] = v
				}
			}
			if st := db.Stats(); st.Flushes == 0 || st.Compactions == 0 {
				t.Fatalf("the mix never reached the tables: %+v", st)
			}
			for i := 0; i < 400; i++ {
				// key%03d.5 sorts between two model keys and is never written.
				for _, k := range []string{key(i), key(i) + ".5"} {
					want, present := model[k]
					v, found, err := db.Get([]byte(k))
					if err != nil || found != present || string(v) != want {
						t.Fatalf("Get(%q) = (%q,%v,%v), want (%q,%v)", k, v, found, err, want, present)
					}
				}
			}
			scan := func(lo, hi []byte) {
				t.Helper()
				want := 0
				for k := range model {
					if bytes.Compare([]byte(k), lo) >= 0 && (hi == nil || bytes.Compare([]byte(k), hi) < 0) {
						want++
					}
				}
				n := 0
				var prev []byte
				err := db.Scan(lo, hi, func(k, v []byte) bool {
					if prev != nil && bytes.Compare(prev, k) >= 0 {
						t.Fatalf("scan [%q,%q) out of order: %q after %q", lo, hi, k, prev)
					}
					prev = append(prev[:0], k...)
					if model[string(k)] != string(v) {
						t.Fatalf("scan [%q,%q): %q = %q, model has %q", lo, hi, k, v, model[string(k)])
					}
					n++
					return true
				})
				if err != nil || n != want {
					t.Fatalf("scan [%q,%q) visited %d entries (err %v), model has %d", lo, hi, n, err, want)
				}
			}
			scan(nil, nil)
			for i := 0; i < 200; i++ {
				lo := rnd.Intn(400)
				scan([]byte(key(lo)), []byte(key(lo+rnd.Intn(60))))
			}
			scan([]byte(key(390)), nil)

			tables := allTables(db)
			if len(tables) < 2 {
				t.Fatalf("only %d table(s) on disk", len(tables))
			}
			for _, tbl := range tables {
				err := tableScan(tbl, nil, nil, func(k, _ []byte, _ bool) bool {
					if !tbl.filter.mayContain(bloomHash(k)) {
						t.Fatalf("%s: filter rejects its own key %q", tbl.path, k)
					}
					return true
				})
				if err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}

func TestStoreStats(t *testing.T) {
	db := openTest(t, Options{})
	db.Put([]byte("a"), []byte("1"))
	db.Delete([]byte("a"))
	db.Get([]byte("a"))
	st := db.Stats()
	if st.Puts != 1 || st.Deletes != 1 || st.Gets != 1 {
		t.Errorf("stats = %+v", st)
	}
	// No table holds "a", so the delete cancels the put outright.
	if st.MemtableEntries != 0 {
		t.Errorf("memtable entries = %d, want 0", st.MemtableEntries)
	}
	if len(st.TablesPerLevel) == 0 {
		t.Error("TablesPerLevel empty")
	}
	// A flushed key is deleted by a tombstone, which the memtable keeps.
	db.Put([]byte("b"), []byte("2"))
	db.Flush()
	db.Delete([]byte("b"))
	if st := db.Stats(); st.MemtableEntries != 1 || st.Deletes != 2 {
		t.Errorf("after deleting a flushed key: memtable entries = %d, deletes = %d; want 1, 2",
			st.MemtableEntries, st.Deletes)
	}
}

func TestGuardLevelDeterminism(t *testing.T) {
	for i := 0; i < 1000; i++ {
		k := []byte(fmt.Sprintf("key%d", i))
		if guardLevelOf(k) != guardLevelOf(k) {
			t.Fatal("guardLevelOf not deterministic")
		}
	}
}

func TestGuardSetOrderedUnique(t *testing.T) {
	var gs guardSet
	for i := 0; i < 20000; i++ {
		gs.observe([]byte(fmt.Sprintf("key%06d", i)))
	}
	keys := gs.forLevel(4)
	for i := 1; i < len(keys); i++ {
		if bytes.Compare(keys[i-1], keys[i]) >= 0 {
			t.Fatal("guard keys not strictly sorted")
		}
	}
	// Deeper levels must have at least as many guards.
	if len(gs.forLevel(1)) > len(gs.forLevel(2)) || len(gs.forLevel(2)) > len(gs.forLevel(3)) {
		t.Errorf("guard counts not monotone: L1=%d L2=%d L3=%d",
			len(gs.forLevel(1)), len(gs.forLevel(2)), len(gs.forLevel(3)))
	}
}

func TestGuardIndexFor(t *testing.T) {
	guards := [][]byte{[]byte("g"), []byte("m"), []byte("t")}
	cases := []struct {
		key  string
		want int
	}{
		{"a", -1}, {"g", 0}, {"h", 0}, {"m", 1}, {"s", 1}, {"t", 2}, {"z", 2},
	}
	for _, c := range cases {
		if got := guardIndexFor(guards, []byte(c.key)); got != c.want {
			t.Errorf("guardIndexFor(%q) = %d, want %d", c.key, got, c.want)
		}
	}
}

// When tombstones cancel a last-level run out completely, the rewrite
// leaves no table at all — and must still retire the tables it merged,
// or the deleted keys come back.
func TestCompactionDropsRunCancelledByTombstones(t *testing.T) {
	db := openTest(t, Options{MemtableBytes: 1 << 20, MaxL0Tables: 1, MaxLevels: 1})
	key := func(i int) []byte { return []byte(fmt.Sprintf("key%03d", i)) }
	flushed := func(write func(i int) error) {
		t.Helper()
		// Two flushes exceed MaxL0Tables, so the second one compacts into
		// L1, the last level.
		for half := 0; half < 2; half++ {
			for i := half * 50; i < half*50+50; i++ {
				if err := write(i); err != nil {
					t.Fatal(err)
				}
			}
			if err := db.Flush(); err != nil {
				t.Fatal(err)
			}
		}
	}
	flushed(func(i int) error { return db.Put(key(i), []byte("v")) })
	if st := db.Stats(); st.TablesPerLevel[0] != 0 || st.TablesPerLevel[1] == 0 {
		t.Fatalf("puts did not reach L1: %v", st.TablesPerLevel)
	}
	flushed(func(i int) error { return db.Delete(key(i)) })
	if st := db.Stats(); st.TablesPerLevel[0] != 0 || st.TablesPerLevel[1] != 0 {
		t.Fatalf("tables left after every key was deleted and compacted: %v", st.TablesPerLevel)
	}
	for i := 0; i < 100; i++ {
		if _, found, err := db.Get(key(i)); err != nil || found {
			t.Fatalf("Get(%s) after delete+compaction: found=%v err=%v", key(i), found, err)
		}
	}
	if files, _ := filepath.Glob(filepath.Join(db.dir, "*.sst")); len(files) != 0 {
		t.Fatalf("table files left on disk: %v", files)
	}
}

// TestApplyBatchAllocBudget pins what one durable one-put batch on a warm
// store may allocate: the batch's op bytes (which the memtable keeps), the
// skiplist node and its tower, and the durability-wait closure handed to
// the commit policy. The WAL record itself is assembled in the log's
// scratch buffer.
func TestApplyBatchAllocBudget(t *testing.T) {
	if racedetect.Enabled {
		t.Skip("allocation counts do not hold under the race detector")
	}
	const budget = 4
	db := openTest(t, Options{SyncWAL: true})
	const runs = 200
	keys := make([][]byte, runs+2)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("\x00\x00\x00\x00\x00\x00\x00\x02file%08d", i))
	}
	val := make([]byte, 80)
	i := 0
	put := func() {
		var b Batch
		b.Put(keys[i], val)
		i++
		if err := db.ApplyBatch(&b); err != nil {
			t.Fatal(err)
		}
	}
	put() // warm: the first record sizes the log's scratch buffer
	if got := testing.AllocsPerRun(runs, put); got > budget {
		t.Errorf("one-put ApplyBatch allocates %.1f objects, budget %d", got, budget)
	}
}
