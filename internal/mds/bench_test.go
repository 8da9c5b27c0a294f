package mds

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"origami/internal/kvstore"
	"origami/internal/namespace"
)

// buildIndexShard writes a shard of n inodes through ApplyRecord, in
// records of absorbChunk puts: n/100 directories under the root, each
// holding 99 files. It returns the first directory's ino.
func buildIndexShard(b *testing.B, dir string, n int) namespace.Ino {
	b.Helper()
	s, err := OpenStore(dir, 0, kvstore.Options{})
	if err != nil {
		b.Fatal(err)
	}
	var rec kvstore.Batch
	put := func(in *namespace.Inode) {
		rec.Put(namespace.EncodeKey(in.Parent, in.Name), namespace.EncodeInode(in))
		if rec.Len() == absorbChunk {
			if err := s.ApplyRecord(&rec); err != nil {
				b.Fatal(err)
			}
		}
	}
	put(&namespace.Inode{Ino: namespace.RootIno, Parent: namespace.RootIno, Type: namespace.TypeDir, Nlink: 2})
	first := namespace.Ino(2)
	ino := first
	for d := 0; d < n/100; d++ {
		dirIno := ino
		ino++
		put(&namespace.Inode{Ino: dirIno, Parent: namespace.RootIno, Name: fmt.Sprintf("d%06d", d), Type: namespace.TypeDir, Nlink: 2})
		for f := 0; f < 99; f++ {
			put(&namespace.Inode{Ino: ino, Parent: dirIno, Name: fmt.Sprintf("f%02d", f), Type: namespace.TypeFile, Nlink: 1})
			ino++
		}
	}
	if rec.Len() > 0 {
		if err := s.ApplyRecord(&rec); err != nil {
			b.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		b.Fatal(err)
	}
	return first
}

// liveHeap returns the live heap after two full collections: the first
// only moves the block buffers a scan leaves in kvstore's sync.Pool to
// the pool's victim cache, and the second frees them.
func liveHeap() int64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return int64(m.HeapAlloc)
}

// BenchmarkStoreIndex measures what the directory index costs a shard of
// 100 k and 1 M inodes, 1 % of them directories, per reopen: how long
// OpenStore takes (open_ms), the live heap it adds beyond what
// kvstore.Open alone adds (index_MB), and how long subtreeDirs takes for
// a subtree of one directory (subtree_us) — a migration prepare's freeze
// install. Run it with -benchtime 1x; the shard is built once per size.
func BenchmarkStoreIndex(b *testing.B) {
	for _, n := range []int{100_000, 1_000_000} {
		b.Run(fmt.Sprintf("inodes=%d", n), func(b *testing.B) {
			dir := b.TempDir()
			one := buildIndexShard(b, dir, n)
			var open, subtree time.Duration
			var heap int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				base := liveHeap()
				db, err := kvstore.Open(dir, kvstore.Options{})
				if err != nil {
					b.Fatal(err)
				}
				kvHeap := liveHeap() - base
				db.Close()
				base = liveHeap()
				start := time.Now()
				s, err := OpenStore(dir, 0, kvstore.Options{})
				if err != nil {
					b.Fatal(err)
				}
				open += time.Since(start)
				heap += liveHeap() - base - kvHeap
				start = time.Now()
				dirs, _, ok := s.subtreeDirs(one)
				subtree += time.Since(start)
				if !ok || len(dirs) != 1 {
					b.Fatalf("subtreeDirs(%d) = %d dirs (ok=%v), want 1", one, len(dirs), ok)
				}
				if got := s.Count(); got != n/100*100+1 {
					b.Fatalf("reopened shard counts %d inodes, want %d", got, n/100*100+1)
				}
				s.Close()
			}
			b.ReportMetric(float64(open)/1e6/float64(b.N), "open_ms")
			b.ReportMetric(float64(heap)/float64(b.N)/(1<<20), "index_MB")
			b.ReportMetric(float64(subtree)/1e3/float64(b.N), "subtree_us")
		})
	}
}
