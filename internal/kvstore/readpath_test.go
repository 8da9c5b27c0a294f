package kvstore

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
)

// The read-path fixture: 50 000 keys written in a seeded random order
// through small memtables, so the store ends up as several overlapping L0
// tables above guarded levels — every Get has more than one table to
// consider and only the filters keep it to one block read. Keys are
// directory-shaped: 500 "directories" of 100 entries.
const (
	fixtureDirs    = 500
	fixturePerDir  = 100
	fixtureEntries = fixtureDirs * fixturePerDir
)

func fixtureKey(i int) []byte {
	return []byte(fmt.Sprintf("dir%04d/file%04d", i/fixturePerDir, i%fixturePerDir))
}

// fixtureAbsentKey sorts directly after fixtureKey(i) and is never written.
func fixtureAbsentKey(i int) []byte { return append(fixtureKey(i), '~') }

func openFixture(tb testing.TB) *DB {
	tb.Helper()
	db, err := Open(tb.TempDir(), Options{MemtableBytes: 256 << 10})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { db.Close() })
	val := bytes.Repeat([]byte("v"), 96) // about an encoded inode
	for _, i := range rand.New(rand.NewSource(11)).Perm(fixtureEntries) {
		if err := db.Put(fixtureKey(i), val); err != nil {
			tb.Fatal(err)
		}
	}
	if err := db.Flush(); err != nil {
		tb.Fatal(err)
	}
	st := db.Stats()
	tables := 0
	for _, n := range st.TablesPerLevel {
		tables += n
	}
	if st.MemtableEntries != 0 || tables < 4 {
		tb.Fatalf("fixture is not a flushed multi-table store: %+v", st)
	}
	return db
}

// TestReadPathCost pins what a read may cost on a flushed multi-table
// store: at most one ReadAt per table that key range and filter could not
// rule out, about one per present key overall, about none per absent key,
// and no per-entry allocation in a directory scan.
func TestReadPathCost(t *testing.T) {
	db := openFixture(t)
	delta := func(f func()) Stats {
		before := db.Stats()
		f()
		after := db.Stats()
		return Stats{
			Gets:        after.Gets - before.Gets,
			TableProbes: after.TableProbes - before.TableProbes,
			BloomSkips:  after.BloomSkips - before.BloomSkips,
			BlockReads:  after.BlockReads - before.BlockReads,
		}
	}
	rnd := rand.New(rand.NewSource(5))

	hit := delta(func() {
		for n := 0; n < 5000; n++ {
			k := fixtureKey(rnd.Intn(fixtureEntries))
			if v, found, err := db.Get(k); err != nil || !found || len(v) != 96 {
				t.Fatalf("Get(%s) = (%d bytes, %v, %v)", k, len(v), found, err)
			}
		}
	})
	t.Logf("present: gets %d, table probes %d, bloom skips %d, block reads %d", hit.Gets, hit.TableProbes, hit.BloomSkips, hit.BlockReads)
	if hit.BlockReads > hit.TableProbes-hit.BloomSkips {
		t.Errorf("present keys: %d block reads for %d probes the filters let through", hit.BlockReads, hit.TableProbes-hit.BloomSkips)
	}
	if per := float64(hit.BlockReads) / float64(hit.Gets); per > 1.1 {
		t.Errorf("present keys: %.3f block reads per get, want <= 1.1", per)
	}
	if hit.TableProbes <= hit.Gets {
		t.Errorf("fixture too easy: %d probes for %d gets, the filters had nothing to skip", hit.TableProbes, hit.Gets)
	}

	miss := delta(func() {
		for n := 0; n < 5000; n++ {
			k := fixtureAbsentKey(rnd.Intn(fixtureEntries))
			if _, found, err := db.Get(k); err != nil || found {
				t.Fatalf("Get(%s) of an absent key: found=%v err=%v", k, found, err)
			}
		}
	})
	t.Logf("absent: gets %d, table probes %d, bloom skips %d, block reads %d", miss.Gets, miss.TableProbes, miss.BloomSkips, miss.BlockReads)
	if per := float64(miss.BlockReads) / float64(miss.Gets); per > 0.05 {
		t.Errorf("absent keys: %.3f block reads per get, want <= 0.05", per)
	}

	// A directory scan: right entries, reads bounded by the tables the
	// range overlaps, allocations independent of the entry count.
	scanDir := func(dir, want int) func() {
		lo := []byte(fmt.Sprintf("dir%04d/", dir))
		hi := []byte(fmt.Sprintf("dir%04d0", dir))
		return func() {
			n := 0
			err := db.Scan(lo, hi, func(k, v []byte) bool {
				if !bytes.HasPrefix(k, lo) || len(v) != 96 {
					t.Fatalf("scan of %s yielded %q (%d-byte value)", lo, k, len(v))
				}
				n++
				return n < want
			})
			if err != nil || n != want {
				t.Fatalf("scan of %s: %d entries, err %v, want %d", lo, n, err, want)
			}
		}
	}
	guards := 0
	for _, lvl := range db.levels {
		guards += len(lvl.guardKeys)
	}
	if guards == 0 {
		t.Fatal("fixture has no guards: Scan's run pruning is not exercised")
	}
	for dir := 0; dir < fixtureDirs; dir++ {
		scanDir(dir, fixturePerDir)()
	}
	full := testing.AllocsPerRun(20, scanDir(123, fixturePerDir))
	short := testing.AllocsPerRun(20, scanDir(123, 5))
	t.Logf("allocs per scan: %v for 100 entries, %v for 5", full, short)
	if full > short+2 {
		t.Errorf("scan allocates per entry: %v allocs for 100 entries, %v for 5", full, short)
	}
}
