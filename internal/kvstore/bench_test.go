package kvstore

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// benchFill writes n sequential keys through a store configured to
// compact aggressively, then reports write amplification.
func benchFill(b *testing.B, plain bool) {
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		dir := b.TempDir()
		opts := Options{
			MemtableBytes:     64 << 10,
			MaxL0Tables:       3,
			MaxTablesPerGuard: 3,
			MaxLevels:         3,
			PlainLeveled:      plain,
		}
		db, err := Open(dir, opts)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		const n = 20000
		var logical int64
		for k := 0; k < n; k++ {
			key := []byte(fmt.Sprintf("inode/%08d", k))
			val := []byte(fmt.Sprintf("attrs-of-%d-padding-padding-padding", k))
			logical += int64(len(key) + len(val))
			if err := db.Put(key, val); err != nil {
				b.Fatal(err)
			}
		}
		if err := db.Flush(); err != nil {
			b.Fatal(err)
		}
		st := db.Stats()
		written := st.BytesFlushed + st.BytesCompacted
		b.ReportMetric(float64(written)/float64(logical), "write_amp")
		b.ReportMetric(float64(st.Compactions), "compactions")
		b.StopTimer()
		db.Close()
		b.StartTimer()
	}
}

// BenchmarkKVStoreFragmented measures the PebblesDB-style store: guard-
// partitioned compaction avoids rewriting destination tables, trading
// read fan-out for lower write amplification.
func BenchmarkKVStoreFragmented(b *testing.B) { benchFill(b, false) }

// BenchmarkKVStorePlainLeveled is the ablation: classic leveled
// compaction with destination rewrites.
func BenchmarkKVStorePlainLeveled(b *testing.B) { benchFill(b, true) }

// BenchmarkKVStoreGet measures point reads through a multi-level store.
func BenchmarkKVStoreGet(b *testing.B) {
	dir := b.TempDir()
	db, err := Open(dir, Options{MemtableBytes: 64 << 10})
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	const n = 20000
	for k := 0; k < n; k++ {
		db.Put([]byte(fmt.Sprintf("inode/%08d", k)), []byte("v"))
	}
	db.Flush()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		key := []byte(fmt.Sprintf("inode/%08d", i%n))
		if _, found, err := db.Get(key); err != nil || !found {
			b.Fatalf("get %s: found=%v err=%v", key, found, err)
		}
	}
}

// BenchmarkKVStoreScan measures directory-style range scans.
func BenchmarkKVStoreScan(b *testing.B) {
	dir := b.TempDir()
	db, err := Open(dir, Options{MemtableBytes: 64 << 10})
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	for k := 0; k < 10000; k++ {
		db.Put([]byte(fmt.Sprintf("dir%03d/%05d", k%100, k)), []byte("v"))
	}
	db.Flush()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lo := []byte(fmt.Sprintf("dir%03d/", i%100))
		hi := []byte(fmt.Sprintf("dir%03d0", i%100))
		n := 0
		db.Scan(lo, hi, func(k, v []byte) bool { n++; return true })
		if n == 0 {
			b.Fatal("empty scan")
		}
	}
}

// The three read-path layer benchmarks run on the read-path fixture
// (readpath_test.go): 50 000 keys flushed into overlapping tables.

// BenchmarkSSTableGetHit measures a point read of a present key served
// from the tables.
func BenchmarkSSTableGetHit(b *testing.B) {
	db := openFixture(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, found, err := db.Get(fixtureKey(i * 7919 % fixtureEntries)); err != nil || !found {
			b.Fatalf("found=%v err=%v", found, err)
		}
	}
}

// BenchmarkSSTableGetMiss measures a point read of an absent key that
// sorts inside the tables' key ranges — a create's existence check.
func BenchmarkSSTableGetMiss(b *testing.B) {
	db := openFixture(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, found, err := db.Get(fixtureAbsentKey(i * 7919 % fixtureEntries)); err != nil || found {
			b.Fatalf("found=%v err=%v", found, err)
		}
	}
}

// BenchmarkScan100 measures listing one 100-entry directory.
func BenchmarkScan100(b *testing.B) {
	db := openFixture(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dir := i * 131 % fixtureDirs
		n := 0
		err := db.Scan([]byte(fmt.Sprintf("dir%04d/", dir)), []byte(fmt.Sprintf("dir%04d0", dir)),
			func(k, v []byte) bool { n++; return true })
		if err != nil || n != fixturePerDir {
			b.Fatalf("scanned %d entries, err %v", n, err)
		}
	}
}

// BenchmarkWALAppendSync is one durable single-writer commit: a one-put
// batch the size of a file inode through the WAL and its fsync (-benchmem
// shows what the write path allocates on the way).
func BenchmarkWALAppendSync(b *testing.B) {
	db, err := Open(b.TempDir(), Options{SyncWAL: true})
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	val := make([]byte, 80)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var batch Batch
		batch.Put([]byte(fmt.Sprintf("\x00\x00\x00\x00\x00\x00\x00\x02file%08d", i)), val)
		if err := db.ApplyBatch(&batch); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGroupCommitWriters is the group-commit layer alone: w
// closed-loop SyncWAL writers, each pausing for a turnaround (a client
// round trip) between puts. ns/op is wall time per acknowledged put
// across all writers; puts/fsync is how many records one fsync carried.
func BenchmarkGroupCommitWriters(b *testing.B) {
	for _, writers := range []int{1, 2, 8, 32} {
		for _, pause := range []time.Duration{0, 40 * time.Microsecond} {
			name := fmt.Sprintf("w%d/turnaround=%v", writers, pause)
			b.Run(name, func(b *testing.B) {
				db, err := Open(b.TempDir(), Options{SyncWAL: true})
				if err != nil {
					b.Fatal(err)
				}
				defer db.Close()
				val := make([]byte, 80)
				var next atomic.Int64
				var wg sync.WaitGroup
				before := db.Stats()
				b.ResetTimer()
				for w := 0; w < writers; w++ {
					wg.Add(1)
					go func(w int) {
						defer wg.Done()
						for i := next.Add(1); i <= int64(b.N); i = next.Add(1) {
							if err := db.Put([]byte(fmt.Sprintf("w%02d/%010d", w, i)), val); err != nil {
								b.Error(err)
								return
							}
							turnaround(pause)
						}
					}(w)
				}
				wg.Wait()
				b.StopTimer()
				st := db.Stats()
				// A flush makes its records durable without a WAL fsync.
				if syncs := st.WALSyncs - before.WALSyncs; syncs > 0 && st.Flushes == before.Flushes {
					b.ReportMetric(float64(st.Puts-before.Puts)/float64(syncs), "puts/fsync")
				}
			})
		}
	}
}
