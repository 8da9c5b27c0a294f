package kvstore

import (
	"bytes"
	"fmt"
	"testing"
)

// crash drops db the way a killed process leaves it: every logged record
// stays in the WAL, nothing is flushed, and the files are released so a
// second Open can take the directory over.
func crash(db *DB) {
	db.wal.f.Close()
	for _, t := range allTables(db) {
		t.close()
	}
}

// allTables lists every table of db: L0, then each level's runs.
func allTables(db *DB) []*sstable {
	tables := append([]*sstable(nil), db.l0...)
	for _, lvl := range db.levels {
		for _, run := range lvl.allRuns() {
			tables = append(tables, run.tables...)
		}
	}
	return tables
}

// levelEntries lists every entry the tables of level li hold, oldest
// table last, as "key" or "key†" for a tombstone.
func levelEntries(t *testing.T, db *DB, li int) []string {
	t.Helper()
	var out []string
	for _, run := range db.levels[li].allRuns() {
		for _, tbl := range run.tables {
			err := tableScan(tbl, nil, nil, func(k, _ []byte, tomb bool) bool {
				if tomb {
					out = append(out, string(k)+"†")
				} else {
					out = append(out, string(k))
				}
				return true
			})
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	return out
}

// scanSkips runs a full Scan and returns how many live entries it
// yielded and how many dead ones it walked past.
func scanSkips(t *testing.T, db *DB) (live int, skipped int64) {
	t.Helper()
	before := db.Stats().ScanSkips
	if err := db.Scan(nil, nil, func(_, _ []byte) bool { live++; return true }); err != nil {
		t.Fatal(err)
	}
	return live, db.Stats().ScanSkips - before
}

// underLocks runs one structural step the way the write path does.
func underLocks(t *testing.T, db *DB, step func() error) {
	t.Helper()
	db.writeMu.Lock()
	db.mu.Lock()
	err := step()
	db.mu.Unlock()
	db.writeMu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
}

func TestDeleteCancelsMemtablePut(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		k := []byte(fmt.Sprintf("churn%03d", i))
		if err := db.Put(k, []byte("v")); err != nil {
			t.Fatal(err)
		}
		if err := db.Delete(k); err != nil {
			t.Fatal(err)
		}
	}
	check := func(db *DB, stage string) {
		t.Helper()
		if n := db.Stats().MemtableEntries; n != 0 {
			t.Errorf("%s: %d memtable entries after put+delete pairs, want 0", stage, n)
		}
		if _, found, err := db.Get([]byte("churn042")); err != nil || found {
			t.Errorf("%s: Get of a deleted key = (%v, %v)", stage, found, err)
		}
		if live, skipped := scanSkips(t, db); live != 0 || skipped != 0 {
			t.Errorf("%s: scan yielded %d and walked %d dead entries, want 0 and 0", stage, live, skipped)
		}
	}
	check(db, "live")

	// The log still holds all 200 ops; replay applies them through the
	// same memtable apply and cancels them the same way.
	crash(db)
	if db, err = Open(dir, Options{}); err != nil {
		t.Fatal(err)
	}
	check(db, "replayed")

	// A clean close retires the log with no table to write.
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if db, err = Open(dir, Options{}); err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	check(db, "reopened")
	for li, n := range db.Stats().TablesPerLevel {
		if n != 0 {
			t.Errorf("level %d holds %d tables; a log of cancelled ops needs none", li, n)
		}
	}
}

func TestDeleteOfFlushedKeyKeepsTombstone(t *testing.T) {
	dir := t.TempDir()
	opts := Options{MaxL0Tables: 2} // a third L0 table compacts L0 into L1
	db, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	k := []byte("flushed")
	gone := func(stage string) {
		t.Helper()
		if v, found, err := db.Get(k); err != nil || found {
			t.Fatalf("%s: deleted key came back: (%q, %v, %v)", stage, v, found, err)
		}
		err := db.Scan(nil, nil, func(key, _ []byte) bool {
			if bytes.Equal(key, k) {
				t.Fatalf("%s: scan yields the deleted key", stage)
			}
			return true
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	memtable := func(stage string, want int) {
		t.Helper()
		if n := db.Stats().MemtableEntries; n != want {
			t.Fatalf("%s: memtable holds %d entries, want %d", stage, n, want)
		}
	}
	if err := db.Put(k, []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := db.Delete(k); err != nil {
		t.Fatal(err)
	}
	gone("memtable tombstone")
	memtable("a flushed key deleted", 1)

	crash(db)
	if db, err = Open(dir, opts); err != nil {
		t.Fatal(err)
	}
	gone("replayed tombstone")
	memtable("replayed", 1)

	// With the tombstone flushed above the value, the tables already read
	// the key as absent: a second put+delete leaves nothing behind.
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	gone("flushed tombstone")
	if err := db.Put(k, []byte("v2")); err != nil {
		t.Fatal(err)
	}
	if err := db.Delete(k); err != nil {
		t.Fatal(err)
	}
	gone("second delete")
	memtable("a key the tables hold only as a tombstone deleted", 0)

	if err := db.Put([]byte("other"), []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	st := db.Stats()
	if st.Compactions == 0 || st.TablesPerLevel[0] != 0 {
		t.Fatalf("the third flush did not compact L0 into L1: %+v", st)
	}
	gone("after L0->L1")
	if got := fmt.Sprint(levelEntries(t, db, 0)); got != "[other]" {
		t.Fatalf("L1 holds %s; the value and its tombstone should both be gone", got)
	}

	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if db, err = Open(dir, opts); err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	gone("reopened")
}

func TestCompactionDropsTombstoneWithNothingBelow(t *testing.T) {
	// Nothing compacts on its own; each step is driven below.
	db := openTest(t, Options{MaxL0Tables: 100, MaxTablesPerGuard: 100, MaxLevels: 3})
	put := func(keys ...string) {
		t.Helper()
		for _, k := range keys {
			if err := db.Put([]byte(k), []byte("v-"+k)); err != nil {
				t.Fatal(err)
			}
		}
		if err := db.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	compactL0 := func() { underLocks(t, db, db.compactL0Locked) }
	pushDown := func(li int) {
		for _, run := range db.levels[li].allRuns() {
			if len(run.tables) > 0 {
				underLocks(t, db, func() error { return db.compactRunLocked(li, run) })
			}
		}
	}
	same := func(stage string, got []string, want ...string) {
		t.Helper()
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("%s: %q, want %q", stage, got, want)
		}
	}

	put("deep")
	compactL0()
	pushDown(0) // L3 (the last level) is still empty below it
	put("g")
	compactL0()
	put("a")
	same("before", levelEntries(t, db, 1), "deep")
	same("before", levelEntries(t, db, 0), "g")

	// Every key has a table below the memtable, so every delete leaves a
	// tombstone there.
	for _, k := range []string{"a", "deep", "g"} {
		if err := db.Delete([]byte(k)); err != nil {
			t.Fatal(err)
		}
	}
	if n := db.Stats().MemtableEntries; n != 3 {
		t.Fatalf("memtable holds %d entries, want 3 tombstones", n)
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}

	// L0 -> L1: "a" is held only by the L0 table being merged, so its
	// tombstone goes; "deep" sits in L2 and "g" in the L1 run the output
	// lands on, so theirs stay.
	compactL0()
	same("L1 after L0->L1", levelEntries(t, db, 0), "deep†", "g†", "g")
	// L1 -> L2: "g" now has nothing beneath it; "deep" still does.
	pushDown(0)
	same("L2 after L1->L2", levelEntries(t, db, 1), "deep†", "deep")
	// L2 -> L3, the last level: nothing beneath, nothing survives.
	pushDown(1)
	for li := range db.levels {
		same(fmt.Sprintf("L%d at the end", li+1), levelEntries(t, db, li))
	}
	for _, k := range []string{"a", "deep", "g"} {
		if _, found, err := db.Get([]byte(k)); err != nil || found {
			t.Fatalf("Get(%q) = (%v, %v) after the delete", k, found, err)
		}
	}
}

// FuzzStoreAgainstMap drives a store through put, delete, batch, flush,
// crash and reopen steps decoded from the input — over 16 keys and a
// memtable small enough that flushes and compactions come every few
// steps — and checks Get and Scan against a map after every step. Each
// byte is one step: the low nibble picks the key, the high one the op.
func FuzzStoreAgainstMap(f *testing.F) {
	f.Add([]byte{0x01, 0x81, 0x02, 0xc0, 0x82, 0xc0, 0xe0})
	f.Add([]byte{0x00, 0x11, 0x22, 0x33, 0xc0, 0x80, 0x91, 0xd2, 0xf0, 0x80, 0xe0, 0x44})
	f.Add(bytes.Repeat([]byte{0x05, 0x85, 0x15, 0xc5, 0x95, 0xd5}, 12))
	f.Fuzz(func(t *testing.T, steps []byte) {
		if len(steps) > 256 {
			steps = steps[:256]
		}
		dir := t.TempDir()
		opts := Options{MemtableBytes: 256, MaxL0Tables: 2, MaxTablesPerGuard: 2, MaxLevels: 3}
		db, err := Open(dir, opts)
		if err != nil {
			t.Fatal(err)
		}
		defer func() { db.Close() }()
		model := map[string]string{}
		key := func(b byte) []byte { return []byte{'k', 'a' + b&15} }
		for i, b := range steps {
			k := key(b)
			v := bytes.Repeat([]byte{byte('A' + i%26)}, 1+i%9)
			switch op := b >> 4; {
			case op < 8:
				err = db.Put(k, v)
				model[string(k)] = string(v)
			case op < 12:
				err = db.Delete(k)
				delete(model, string(k))
			case op == 12:
				err = db.Flush()
			case op == 13: // one record that puts a key and deletes it
				var bt Batch
				bt.Put(k, v)
				bt.Delete(k)
				err = db.ApplyBatch(&bt)
				delete(model, string(k))
			case op == 14:
				crash(db)
				db, err = Open(dir, opts)
			default:
				if err = db.Close(); err == nil {
					db, err = Open(dir, opts)
				}
			}
			if err != nil {
				t.Fatalf("step %d (%#x): %v", i, b, err)
			}
			for j := byte(0); j < 16; j++ {
				want, present := model[string(key(j))]
				got, found, err := db.Get(key(j))
				if err != nil || found != present || string(got) != want {
					t.Fatalf("step %d (%#x): Get(%s) = (%q, %v, %v), want (%q, %v)",
						i, b, key(j), got, found, err, want, present)
				}
			}
			n := 0
			err = db.Scan(nil, nil, func(k, v []byte) bool {
				n++
				if want, ok := model[string(k)]; !ok || want != string(v) {
					t.Fatalf("step %d (%#x): scan yields %s=%q, model has (%q, %v)", i, b, k, v, want, ok)
				}
				return true
			})
			if err != nil || n != len(model) {
				t.Fatalf("step %d (%#x): scan yields %d entries (err %v), model has %d", i, b, n, err, len(model))
			}
		}
	})
}
