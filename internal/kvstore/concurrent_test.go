package kvstore

import (
	"bytes"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestConcurrentReadersRunInParallel blocks inside one Scan callback and
// requires a point Get on another goroutine to complete meanwhile — the
// property the shared read lock buys. With a plain mutex this deadlocks
// on the timeout.
func TestConcurrentReadersRunInParallel(t *testing.T) {
	db, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	for i := 0; i < 10; i++ {
		if err := db.Put([]byte(fmt.Sprintf("k%02d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	inScan := make(chan struct{})
	release := make(chan struct{})
	scanDone := make(chan error, 1)
	go func() {
		first := true
		scanDone <- db.Scan(nil, nil, func(k, v []byte) bool {
			if first {
				first = false
				close(inScan)
				<-release
			}
			return true
		})
	}()
	<-inScan
	getDone := make(chan struct{})
	go func() {
		if _, found, err := db.Get([]byte("k05")); err != nil || !found {
			t.Errorf("get under concurrent scan: found=%v err=%v", found, err)
		}
		close(getDone)
	}()
	select {
	case <-getDone:
	case <-time.After(5 * time.Second):
		t.Fatal("Get blocked behind an in-flight Scan: reads are serialised")
	}
	close(release)
	if err := <-scanDone; err != nil {
		t.Fatalf("scan: %v", err)
	}
}

// TestGroupCommitDurability runs concurrent writers under SyncWAL and
// checks (a) every acknowledged write survives a simulated crash —
// the durability contract group commit must not weaken — and (b)
// fsyncs were shared rather than paid per record.
func TestGroupCommitDurability(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, Options{SyncWAL: true})
	if err != nil {
		t.Fatal(err)
	}
	const writers = 8
	const perWriter = 25
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				k := []byte(fmt.Sprintf("w%d/k%03d", w, i))
				if err := db.Put(k, []byte("v")); err != nil {
					t.Errorf("put %s: %v", k, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	st := db.Stats()
	if st.WALSyncs == 0 && st.Flushes == 0 {
		t.Error("SyncWAL run recorded no WAL syncs and no flushes")
	}
	if st.WALSyncs > st.Puts {
		t.Errorf("WALSyncs = %d > Puts = %d: syncing more than once per record", st.WALSyncs, st.Puts)
	}
	t.Logf("group commit: %d puts over %d fsyncs (batching %.1fx)",
		st.Puts, st.WALSyncs, float64(st.Puts)/float64(st.WALSyncs))
	// Simulated crash: drop the handle without Close (no final flush);
	// recovery must replay every acknowledged record from the WAL.
	db.wal.f.Close()
	db2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	for w := 0; w < writers; w++ {
		for i := 0; i < perWriter; i++ {
			k := []byte(fmt.Sprintf("w%d/k%03d", w, i))
			if _, found, err := db2.Get(k); err != nil || !found {
				t.Fatalf("acknowledged write %s lost after crash: found=%v err=%v", k, found, err)
			}
		}
	}
}

// turnaround stands in for the time a closed-loop writer spends between
// an acknowledged write and its next one — a client round trip. It
// yields rather than sleeps: a sleep this short overshoots to the
// runtime's timer granularity, which on an idle Linux process is about
// a millisecond.
func turnaround(d time.Duration) {
	for start := time.Now(); time.Since(start) < d; {
		runtime.Gosched()
	}
}

// measureFsync times single-writer durable puts on db: one WAL append
// and one unshared fsync each.
func measureFsync(t testing.TB, db *DB) time.Duration {
	const n = 20
	start := time.Now()
	for i := 0; i < n; i++ {
		if err := db.Put([]byte(fmt.Sprintf("probe%02d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	return time.Since(start) / n
}

// TestGroupCommitSharesClosedLoopWriters runs two SyncWAL writers that,
// like the two workers of a create storm, pause between puts for a
// turnaround shorter than half an fsync. Each fsync must carry both
// writers' records: when one fsync completes, the writer it released is
// on its way back while the other, queued behind it, would lead the
// next fsync alone unless it waits for its cohort. A run can only show
// that if the writers overlap, so a host that ran them one after the
// other gets two more tries.
func TestGroupCommitSharesClosedLoopWriters(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		// A short fsync syscall keeps the only P (the runtime hands
		// it on only after a monitor tick), so the other writer never
		// appends while it runs and no cohort forms.
		t.Skip("needs GOMAXPROCS >= 2")
	}
	db, err := Open(t.TempDir(), Options{SyncWAL: true})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	pause := measureFsync(t, db) / 4
	const writers, perWriter = 2, 200
	per := 0.0
	for try := 0; try < 3 && per < 1.6; try++ {
		before := db.Stats()
		var wg sync.WaitGroup
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; i < perWriter; i++ {
					if err := db.Put([]byte(fmt.Sprintf("w%d/k%03d", w, i)), []byte("v")); err != nil {
						t.Error(err)
						return
					}
					turnaround(pause)
				}
			}(w)
		}
		wg.Wait()
		st := db.Stats()
		puts, syncs := st.Puts-before.Puts, st.WALSyncs-before.WALSyncs
		if st.Flushes != before.Flushes || syncs == 0 {
			t.Fatalf("run flushed %d times over %d fsyncs: the ratio would not measure group commit",
				st.Flushes-before.Flushes, syncs)
		}
		per = float64(puts) / float64(syncs)
		t.Logf("%d puts over %d fsyncs (%.2f per fsync), turnaround %v, leaders waited %v",
			puts, syncs, per, pause, time.Duration(st.WALSyncWaitNs-before.WALSyncWaitNs))
	}
	if per < 1.6 {
		t.Errorf("%.2f puts per fsync, want >= 1.6: the writer an fsync released missed the next one", per)
	}
}

// TestCloseReleasesWaitingLeader closes the store while an fsync leader
// waits for a cohort that will not come (the deadline is a minute away).
// Close must wake it: the write returns at once, acknowledged because
// Close's flush made its record durable, and later writes get the
// closed error.
func TestCloseReleasesWaitingLeader(t *testing.T) {
	db, err := Open(t.TempDir(), Options{SyncWAL: true})
	if err != nil {
		t.Fatal(err)
	}
	// As if the last fsync had served two writers and taken two
	// minutes: the next leader waits for one more record.
	db.gc.mu.Lock()
	db.gc.cohort, db.gc.cohortSeq, db.gc.cohortWait = 2, db.walSeq.Load(), time.Minute
	db.gc.mu.Unlock()
	put := make(chan error, 1)
	go func() { put <- db.Put([]byte("k"), []byte("v")) }()
	for deadline := time.Now().Add(5 * time.Second); db.gc.wakeAt.Load() == 0; {
		if time.Now().After(deadline) {
			t.Fatal("the writer never became a waiting leader")
		}
		time.Sleep(time.Millisecond)
	}
	if err := db.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	select {
	case err := <-put:
		if err != nil {
			t.Fatalf("put whose record Close flushed: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close left the waiting leader parked")
	}
	if err := db.Put([]byte("late"), nil); err == nil || !strings.Contains(err.Error(), "closed") {
		t.Fatalf("put after Close: err %v, want the closed error", err)
	}
}

// TestConcurrentStress hammers one DB with mixed writers, point readers,
// and range scanners across flush/compaction boundaries. Run under
// -race; the correctness assertions are (a) a reader never observes a
// torn or foreign value for a key and (b) after the storm every
// writer's final value is durable and visible.
func TestConcurrentStress(t *testing.T) {
	db, err := Open(t.TempDir(), Options{
		MemtableBytes: 8 << 10, // tiny memtable: force frequent flushes
		MaxL0Tables:   2,       // and frequent compactions
	})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	const (
		writers    = 4
		readers    = 4
		scanners   = 2
		keysPerW   = 64
		iterations = 200
	)
	key := func(w, k int) []byte { return []byte(fmt.Sprintf("w%d/k%03d", w, k)) }
	val := func(w, k, round int) []byte { return []byte(fmt.Sprintf("w%d/k%03d/r%06d", w, k, round)) }

	var wg sync.WaitGroup
	var stop atomic.Bool
	errs := make(chan error, writers+readers+scanners)

	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < iterations; r++ {
				k := r % keysPerW
				if r%10 == 9 {
					if err := db.Delete(key(w, k)); err != nil {
						errs <- err
						return
					}
					continue
				}
				if err := db.Put(key(w, k), val(w, k, r)); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; !stop.Load(); i++ {
				w, k := i%writers, i%keysPerW
				v, found, err := db.Get(key(w, k))
				if err != nil {
					errs <- err
					return
				}
				if found && !bytes.HasPrefix(v, []byte(fmt.Sprintf("w%d/k%03d/", w, k))) {
					errs <- fmt.Errorf("key %s returned foreign value %q", key(w, k), v)
					return
				}
			}
		}(g)
	}
	for g := 0; g < scanners; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				var last []byte
				err := db.Scan(nil, nil, func(k, v []byte) bool {
					if last != nil && bytes.Compare(k, last) <= 0 {
						errs <- fmt.Errorf("scan out of order: %q after %q", k, last)
						return false
					}
					last = append(last[:0], k...)
					return true
				})
				if err != nil {
					errs <- err
					return
				}
			}
		}()
	}

	writerDone := make(chan struct{})
	go func() {
		wg.Wait()
		close(writerDone)
	}()
	// Writers finish on their own; readers and scanners spin until told.
	for {
		select {
		case err := <-errs:
			t.Fatal(err)
		case <-time.After(10 * time.Millisecond):
		}
		if stop.Load() {
			break
		}
		// Writers are a subset of wg; approximate their completion by
		// checking all final values are in place, then stop the readers.
		if db.Stats().Puts >= writers*iterations*9/10 {
			stop.Store(true)
		}
	}
	<-writerDone
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}

	// Every writer's final round value (or tombstone) must be visible.
	for w := 0; w < writers; w++ {
		for k := 0; k < keysPerW; k++ {
			// The last write to key k was in round lastRound.
			lastRound := -1
			for r := 0; r < iterations; r++ {
				if r%keysPerW == k {
					lastRound = r
				}
			}
			if lastRound < 0 {
				continue
			}
			v, found, err := db.Get(key(w, k))
			if err != nil {
				t.Fatal(err)
			}
			if lastRound%10 == 9 {
				if found {
					t.Fatalf("key %s: deleted in round %d but still visible as %q", key(w, k), lastRound, v)
				}
				continue
			}
			if !found {
				t.Fatalf("key %s: final value lost", key(w, k))
			}
			if want := val(w, k, lastRound); !bytes.Equal(v, want) {
				t.Fatalf("key %s = %q, want %q", key(w, k), v, want)
			}
		}
	}
}
