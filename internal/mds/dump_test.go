package mds

import (
	"fmt"
	"math/rand"
	"testing"

	"origami/internal/kvstore"
	"origami/internal/namespace"
	"origami/internal/rpc"
)

// recordRows is what the dump must say about a shard, read the slow way:
// every directory found by a scan of all of the shard's records, with
// its files counted through ReadDir, and the number of inode records.
// The index is never consulted.
func recordRows(t *testing.T, st *Store) (map[namespace.Ino]DumpRow, int) {
	t.Helper()
	var dirs []*namespace.Inode
	records := 0
	err := st.SnapshotPairs(func(k, v []byte) bool {
		if len(k) > 0 && k[0] == 0xff {
			return true
		}
		records++
		in, err := namespace.DecodeInode(v)
		if err != nil {
			t.Errorf("undecodable record under key %x: %v", k, err)
			return false
		}
		if in.IsDir() {
			dirs = append(dirs, in)
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	rows := make(map[namespace.Ino]DumpRow, len(dirs))
	for _, d := range dirs {
		if _, dup := rows[d.Ino]; dup {
			t.Errorf("directory %d is stored under two keys", d.Ino)
		}
		row := DumpRow{Ino: d.Ino, Parent: d.Parent}
		children, err := st.ReadDir(d.Ino)
		if err != nil {
			t.Fatal(err)
		}
		for _, ch := range children {
			if !ch.IsDir() {
				row.ChildFiles++
			}
		}
		rows[d.Ino] = row
	}
	return rows, records
}

// checkDump compares a shard's dump rows, access counters aside, and its
// inode count with recordRows.
func checkDump(t *testing.T, stage string, s *Service) {
	t.Helper()
	body, err := s.handleDump(nil)
	if err != nil {
		t.Fatal(err)
	}
	_, rows, err := DecodeDump(body)
	if err != nil {
		t.Fatal(err)
	}
	want, records := recordRows(t, s.store)
	if n := s.store.Count(); n != records {
		t.Errorf("%s: MDS %d counts %d inodes, its records %d", stage, s.ID, n, records)
	}
	got := make(map[namespace.Ino]DumpRow, len(rows))
	for _, r := range rows {
		if _, dup := got[r.Ino]; dup {
			t.Errorf("%s: MDS %d dumps directory %d twice", stage, s.ID, r.Ino)
		}
		got[r.Ino] = DumpRow{Ino: r.Ino, Parent: r.Parent, ChildFiles: r.ChildFiles}
	}
	for ino, w := range want {
		if g, ok := got[ino]; !ok {
			t.Errorf("%s: MDS %d dump misses directory %+v", stage, s.ID, w)
		} else if g != w {
			t.Errorf("%s: MDS %d dump row %+v, records say %+v", stage, s.ID, g, w)
		}
	}
	for ino, g := range got {
		if _, ok := want[ino]; !ok {
			t.Errorf("%s: MDS %d dumps %+v, which no record holds", stage, s.ID, g)
		}
	}
	if len(want) < 2 {
		t.Errorf("%s: MDS %d holds %d directories; the churn built nothing", stage, s.ID, len(want))
	}
}

// churn applies n random frames of one to four sub-ops — creates of files
// and directories, removes, renames within and across directories,
// setattrs, and inserts (a cross-shard rename's landing leg) of fresh
// files and directories — under the directories in dirs, adding the
// directories it creates. Names come from a small pool, so creates
// collide, renames and inserts overwrite and removes hit non-empty
// directories; failed ops are part of the mix.
func churn(t *testing.T, s *Service, rnd *rand.Rand, dirs *[]namespace.Ino, n int) {
	t.Helper()
	name := func() string { return fmt.Sprintf("n%02d", rnd.Intn(24)) }
	dir := func() namespace.Ino { return (*dirs)[rnd.Intn(len(*dirs))] }
	for i := 0; i < n; i++ {
		subs := make([][]byte, 1+rnd.Intn(4))
		for j := range subs {
			switch k := rnd.Intn(12); {
			case k < 4:
				subs[j] = EncodeBatchCreate(0, dir(), name(), namespace.TypeFile)
			case k < 6:
				subs[j] = EncodeBatchCreate(0, dir(), name(), namespace.TypeDir)
			case k < 8:
				subs[j] = EncodeBatchRemove(0, dir(), name())
			case k < 10:
				subs[j] = EncodeBatchRename(0, dir(), name(), dir(), name())
			case k < 11:
				subs[j] = EncodeBatchSetattr(0, dir(), name(), rnd.Int63n(1<<20), 0o600)
			default:
				in := &namespace.Inode{Ino: s.store.AllocIno(), Parent: dir(), Name: name(),
					Type: namespace.FileType(rnd.Intn(2)), Nlink: 1} // a directory or a file
				subs[j] = EncodeBatchInsert(0, in)
			}
		}
		for _, res := range batchCall(t, s, 0, subs) {
			if res.Err == nil && res.Inode != nil && res.Inode.IsDir() {
				*dirs = append(*dirs, res.Inode.Ino)
			}
		}
	}
}

// TestDumpMatchesStore: the Data Collector rows built from the inode
// index equal the rows counted from the shard's records, through random
// churn, a reopen that rebuilds the index from disk, a cross-shard
// rename whose two legs land on one shard, and both shards of a
// migration at prepare and at commit.
func TestDumpMatchesStore(t *testing.T) {
	rnd := rand.New(rand.NewSource(1))

	// One shard: churn, then reopen.
	dir := t.TempDir()
	store, err := OpenStore(dir, 0, kvstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s := NewService(0, store, nil)
	dirs := []namespace.Ino{namespace.RootIno}
	churn(t, s, rnd, &dirs, 300)
	checkDump(t, "churn", s)
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
	if store, err = OpenStore(dir, 0, kvstore.Options{}); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { store.Close() })
	s = NewService(0, store, nil)
	checkDump(t, "reopen", s)
	churn(t, s, rnd, &dirs, 100)
	checkDump(t, "churn after reopen", s)

	// A cross-shard rename's insert and remove both landing here: the
	// remove must not unbind the ino the insert just re-bound.
	a := mustCreate(t, s, namespace.RootIno, "xa", namespace.TypeDir)
	b := mustCreate(t, s, namespace.RootIno, "xb", namespace.TypeDir)
	f := mustCreate(t, s, a.Ino, "f", namespace.TypeFile)
	moved := *f
	moved.Parent, moved.Name = b.Ino, "g"
	if res := applyOne(t, s, EncodeBatchInsert(0, &moved)); res.Err != nil {
		t.Fatal(res.Err)
	}
	if res := applyOne(t, s, EncodeBatchRemove(0, a.Ino, "f")); res.Err != nil {
		t.Fatal(res.Err)
	}
	if in, found, _ := s.store.Lookup(b.Ino, "g"); !found || in.Ino != f.Ino {
		t.Errorf("(%d, g) after the two legs: found=%v %+v, want ino %d", b.Ino, found, in, f.Ino)
	}
	if _, found, _ := s.store.Lookup(a.Ino, "f"); found {
		t.Errorf("(%d, f) survived the remove leg", a.Ino)
	}
	checkDump(t, "two-leg rename", s)

	// A directory renamed under a parent of higher ino: its files' keys
	// now sort before its own record.
	lo := mustCreate(t, s, namespace.RootIno, "lo", namespace.TypeDir)
	mustCreate(t, s, lo.Ino, "f", namespace.TypeFile)
	hi := mustCreate(t, s, namespace.RootIno, "hi", namespace.TypeDir)
	if res := applyOne(t, s, EncodeBatchRename(0, namespace.RootIno, "lo", hi.Ino, "lo")); res.Err != nil {
		t.Fatal(res.Err)
	}
	checkDump(t, "rename under a higher ino", s)

	// A replica: the shard's snapshot installed in key order, a few pairs
	// per record, so lo's files arrive in a record before lo's own.
	replica, err := OpenStore(t.TempDir(), 0, kvstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { replica.Close() })
	var rec kvstore.Batch
	var applyErr error
	err = s.store.SnapshotPairs(func(k, v []byte) bool {
		if rec.Put(k, v); rec.Len() == 3 {
			applyErr = replica.ApplyRecord(&rec)
		}
		return applyErr == nil
	})
	if err == nil && applyErr == nil {
		applyErr = replica.ApplyRecord(&rec)
	}
	if err != nil || applyErr != nil {
		t.Fatal(err, applyErr)
	}
	checkDump(t, "replica", NewService(0, replica, nil))

	// Two shards: migrate a churned subtree, checking both ends.
	src, dst := twoServices(t)
	proj := mustCreate(t, src, namespace.RootIno, "proj", namespace.TypeDir)
	srcDirs := []namespace.Ino{namespace.RootIno, proj.Ino}
	churn(t, src, rnd, &srcDirs, 300)
	var w rpc.Wire
	w.U64(uint64(proj.Ino)).U32(1)
	if _, err := src.handleMigratePrepare(w.Bytes()); err != nil {
		t.Fatalf("prepare: %v", err)
	}
	checkDump(t, "prepared", src)
	checkDump(t, "prepared", dst)
	var cw rpc.Wire
	cw.U64(uint64(proj.Ino))
	if _, err := src.handleMigrateCommit(cw.Bytes()); err != nil {
		t.Fatalf("commit: %v", err)
	}
	checkDump(t, "committed", src)
	checkDump(t, "committed", dst)
	var dstDirs []namespace.Ino
	for _, d := range srcDirs {
		if dst.store.HasIno(d) {
			dstDirs = append(dstDirs, d)
		}
	}
	churn(t, dst, rnd, &dstDirs, 200)
	churn(t, src, rnd, &[]namespace.Ino{namespace.RootIno}, 100)
	checkDump(t, "churn after migration", src)
	checkDump(t, "churn after migration", dst)
}
