package mds

import (
	"strings"
	"testing"
	"time"

	"origami/internal/kvstore"
	"origami/internal/namespace"
	"origami/internal/rpc"
)

// twoServices starts a source and destination service on loopback TCP
// with a working peer resolver.
func twoServices(t *testing.T) (src, dst *Service) {
	t.Helper()
	stores := make([]*Store, 2)
	services := make([]*Service, 2)
	addrs := make([]string, 2)
	conns := make([]*rpc.Client, 2)
	peers := func(id int) (*rpc.Client, error) {
		if conns[id] == nil {
			c, err := rpc.Dial(addrs[id])
			if err != nil {
				return nil, err
			}
			conns[id] = c
		}
		return conns[id], nil
	}
	for i := 0; i < 2; i++ {
		store, err := OpenStore(t.TempDir(), i, kvstore.Options{})
		if err != nil {
			t.Fatal(err)
		}
		stores[i] = store
		services[i] = NewService(i, store, peers)
		addr, err := services[i].Serve("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addrs[i] = addr
	}
	t.Cleanup(func() {
		for _, c := range conns {
			if c != nil {
				c.Close()
			}
		}
		for _, s := range services {
			s.Close()
		}
	})
	return services[0], services[1]
}

func TestMigratePrepareMissingSubtree(t *testing.T) {
	src, _ := twoServices(t)
	var w rpc.Wire
	w.U64(99999).U32(1)
	if _, err := src.handleMigratePrepare(w.Bytes()); err == nil || !strings.HasPrefix(err.Error(), CodeNoEnt) {
		t.Errorf("prepare of missing subtree err = %v, want ENOENT", err)
	}
	// The failed prepare released the freeze: the shard still serves.
	mustCreate(t, src, namespace.RootIno, "after", namespace.TypeFile)
}

func TestMigratePrepareNoPeers(t *testing.T) {
	store, err := OpenStore(t.TempDir(), 0, kvstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { store.Close() })
	s := NewService(0, store, nil)
	d := mustCreate(t, s, namespace.RootIno, "d", namespace.TypeDir)
	var w rpc.Wire
	w.U64(uint64(d.Ino)).U32(1)
	if _, err := s.handleMigratePrepare(w.Bytes()); err == nil {
		t.Error("prepare without peer resolver succeeded")
	}
}

func TestPinMapPersistence(t *testing.T) {
	dir := t.TempDir()
	store, err := OpenStore(dir, 0, kvstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s := NewService(0, store, nil)
	if _, err := s.handleSetMap(EncodeMap(5, []PinEntry{{Ino: 9, MDS: 2}})); err != nil {
		t.Fatal(err)
	}
	store.Close()
	// Reopen: the map must be served again.
	store2, err := OpenStore(dir, 0, kvstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { store2.Close() })
	s2 := NewService(0, store2, nil)
	body, err := s2.handleGetMap(nil)
	if err != nil {
		t.Fatal(err)
	}
	v, pins, err := DecodeMap(body)
	if err != nil {
		t.Fatal(err)
	}
	if v != 5 || len(pins) != 1 || pins[0].Ino != 9 || pins[0].MDS != 2 {
		t.Errorf("recovered map = v%d %v", v, pins)
	}
}

func TestMigratePrepareThenCommit(t *testing.T) {
	src, dst := twoServices(t)
	d := mustCreate(t, src, namespace.RootIno, "proj", namespace.TypeDir)
	sub := mustCreate(t, src, d.Ino, "sub", namespace.TypeDir)
	mustCreate(t, src, d.Ino, "f1", namespace.TypeFile)
	mustCreate(t, src, sub.Ino, "f2", namespace.TypeFile)

	var w rpc.Wire
	w.U64(uint64(d.Ino)).U32(1)
	out, err := src.handleMigratePrepare(w.Bytes())
	if err != nil {
		t.Fatalf("prepare: %v", err)
	}
	if n := rpc.NewReader(out).U32(); n != 4 {
		t.Errorf("prepared %d inodes, want 4", n)
	}
	// After prepare the destination holds the copy, but the source is
	// untouched: the subtree is frozen, not yet moved.
	if _, found, _ := dst.store.Lookup(sub.Ino, "f2"); !found {
		t.Error("destination missing shipped inode after prepare")
	}
	if in, found, _ := src.store.Lookup(namespace.RootIno, "proj"); !found || in.Type == namespace.TypeFake {
		t.Errorf("source boundary changed before commit: found=%v %+v", found, in)
	}

	var cw rpc.Wire
	cw.U64(uint64(d.Ino))
	out, err = src.handleMigrateCommit(cw.Bytes())
	if err != nil {
		t.Fatalf("commit: %v", err)
	}
	if n := rpc.NewReader(out).U32(); n != 4 {
		t.Errorf("committed %d inodes, want 4", n)
	}
	// Destination holds the data, none of it a redirect.
	for _, check := range []struct {
		parent namespace.Ino
		name   string
	}{{namespace.RootIno, "proj"}, {d.Ino, "sub"}, {d.Ino, "f1"}, {sub.Ino, "f2"}} {
		in, found, err := dst.store.Lookup(check.parent, check.name)
		if err != nil || !found {
			t.Errorf("dst missing (%d, %s): found=%v err=%v", check.parent, check.name, found, err)
		} else if in.Type == namespace.TypeFake {
			t.Errorf("dst holds a fake for %s", check.name)
		}
	}
	in, found, _ := src.store.Lookup(namespace.RootIno, "proj")
	if !found || in.Type != namespace.TypeFake || in.Size != 1 {
		t.Errorf("source boundary after commit = found=%v %+v, want fake -> 1", found, in)
	}
	if _, found, _ := src.store.Lookup(d.Ino, "f1"); found {
		t.Error("source still holds migrated child after commit")
	}
}

// TestMigrateRevokesLeases: shipping a subtree away must drop the source
// shard's lease state for every directory in it — clients still holding
// those grants re-resolve through the fake redirect (new shard, new
// lease incarnation) instead of trusting entries the source no longer
// owns.
func TestMigrateRevokesLeases(t *testing.T) {
	src, _ := twoServices(t)
	d := mustCreate(t, src, namespace.RootIno, "proj", namespace.TypeDir)
	sub := mustCreate(t, src, d.Ino, "sub", namespace.TypeDir)
	mustCreate(t, src, sub.Ino, "f", namespace.TypeFile)

	gd := src.leases.Grant(d.Ino)
	gs := src.leases.Grant(sub.Ino)
	if _, ok := src.leases.Epoch(d.Ino); !ok {
		t.Fatal("grant did not register in the lease table")
	}

	var w rpc.Wire
	w.U64(uint64(d.Ino)).U32(1)
	if _, err := src.handleMigratePrepare(w.Bytes()); err != nil {
		t.Fatalf("prepare: %v", err)
	}
	var cw rpc.Wire
	cw.U64(uint64(d.Ino))
	if _, err := src.handleMigrateCommit(cw.Bytes()); err != nil {
		t.Fatalf("commit: %v", err)
	}
	if _, ok := src.leases.Epoch(d.Ino); ok {
		t.Error("migrated root's lease survived the 2PC commit")
	}
	if _, ok := src.leases.Epoch(sub.Ino); ok {
		t.Error("migrated subdir's lease survived the 2PC commit")
	}
	// A later grant for the same ino (were the subtree migrated back)
	// must not resurrect the old lease identity.
	if g := src.leases.Grant(d.Ino); g.ID == gd.ID {
		t.Error("post-migration grant reused the revoked lease ID")
	}
	if g := src.leases.Grant(sub.Ino); g.ID == gs.ID {
		t.Error("post-migration grant reused the revoked lease ID")
	}
}

func TestMigrateAbortRollsBack(t *testing.T) {
	src, dst := twoServices(t)
	d := mustCreate(t, src, namespace.RootIno, "proj", namespace.TypeDir)
	mustCreate(t, src, d.Ino, "f1", namespace.TypeFile)

	var w rpc.Wire
	w.U64(uint64(d.Ino)).U32(1)
	if _, err := src.handleMigratePrepare(w.Bytes()); err != nil {
		t.Fatalf("prepare: %v", err)
	}
	var aw rpc.Wire
	aw.U64(uint64(d.Ino))
	if _, err := src.handleMigrateAbort(aw.Bytes()); err != nil {
		t.Fatalf("abort: %v", err)
	}
	// Rollback: source intact, destination copy evicted, abort counted.
	if in, found, _ := src.store.Lookup(namespace.RootIno, "proj"); !found || in.Type == namespace.TypeFake {
		t.Errorf("source damaged by abort: found=%v %+v", found, in)
	}
	if _, found, _ := dst.store.Lookup(namespace.RootIno, "proj"); found {
		t.Error("destination still holds evicted copy")
	}
	src.mu.Lock()
	aborts := src.MigrationAborts
	src.mu.Unlock()
	if aborts != 1 {
		t.Errorf("MigrationAborts = %d, want 1", aborts)
	}
	// The freeze lifted and the slot cleared: a new cycle must succeed.
	if _, err := src.handleMigratePrepare(w.Bytes()); err != nil {
		t.Fatalf("prepare after abort: %v", err)
	}
	var cw rpc.Wire
	cw.U64(uint64(d.Ino))
	if _, err := src.handleMigrateCommit(cw.Bytes()); err != nil {
		t.Fatalf("commit after abort: %v", err)
	}
}

func TestMigratePrepareTimeoutAutoAborts(t *testing.T) {
	src, dst := twoServices(t)
	d := mustCreate(t, src, namespace.RootIno, "proj", namespace.TypeDir)
	mustCreate(t, src, d.Ino, "f1", namespace.TypeFile)
	src.PrepareTimeout = 50 * time.Millisecond

	var w rpc.Wire
	w.U64(uint64(d.Ino)).U32(1)
	if _, err := src.handleMigratePrepare(w.Bytes()); err != nil {
		t.Fatalf("prepare: %v", err)
	}
	// A coordinator that dies here never sends commit or abort; the
	// source's timer must lift the freeze on its own.
	deadline := time.Now().Add(5 * time.Second)
	for {
		src.mu.Lock()
		aborts := src.MigrationAborts
		src.mu.Unlock()
		if aborts == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("prepare never timed out")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if _, found, _ := dst.store.Lookup(namespace.RootIno, "proj"); found {
		t.Error("destination still holds copy after auto-abort")
	}
	// A late commit for the expired prepare must be refused.
	var cw rpc.Wire
	cw.U64(uint64(d.Ino))
	if _, err := src.handleMigrateCommit(cw.Bytes()); err == nil || !strings.HasPrefix(err.Error(), CodeInvalid) {
		t.Errorf("late commit err = %v, want EINVAL", err)
	}
}

// TestMigrateCommitIsOneWALRecord pins the source's crash atomicity: the
// commit deletes every key of the subtree and puts the fake-inode in ONE
// WAL batch record, so a crash keeps the whole subtree or only the
// redirect, never part of a subtree with no redirect to its new home.
func TestMigrateCommitIsOneWALRecord(t *testing.T) {
	src, _ := twoServices(t)
	d := mustCreate(t, src, namespace.RootIno, "proj", namespace.TypeDir)
	sub := mustCreate(t, src, d.Ino, "sub", namespace.TypeDir)
	mustCreate(t, src, d.Ino, "f1", namespace.TypeFile)
	mustCreate(t, src, sub.Ino, "f2", namespace.TypeFile)
	var w rpc.Wire
	w.U64(uint64(d.Ino)).U32(1)
	if _, err := src.handleMigratePrepare(w.Bytes()); err != nil {
		t.Fatalf("prepare: %v", err)
	}
	before := src.store.DBStats()
	var cw rpc.Wire
	cw.U64(uint64(d.Ino))
	if _, err := src.handleMigrateCommit(cw.Bytes()); err != nil {
		t.Fatalf("commit: %v", err)
	}
	after := src.store.DBStats()
	if n := after.Batches - before.Batches; n != 1 {
		t.Errorf("commit wrote %d batch records, want 1", n)
	}
	if puts, dels := after.Puts-before.Puts, after.Deletes-before.Deletes; puts != 1 || dels != 4 {
		t.Errorf("commit wrote %d puts and %d deletes, want the fake and the 4 keys of the subtree", puts, dels)
	}
	if in, found, _ := src.store.Lookup(namespace.RootIno, d.Name); !found || in.Type != namespace.TypeFake || in.Ino != d.Ino {
		t.Errorf("root's key after commit holds %+v (found=%v), want the fake", in, found)
	}
	if src.store.HasIno(d.Ino) {
		t.Error("the fake is bound in the directory index")
	}
}

// TestIngestRefusesMetadataKeys: a migration record may carry only
// namespace entries; one holding a metadata key (which would clobber the
// destination's ino watermark or partition map) is refused before any of
// it applies.
func TestIngestRefusesMetadataKeys(t *testing.T) {
	s := localService(t)
	in := &namespace.Inode{Ino: 77, Parent: namespace.RootIno, Name: "f", Type: namespace.TypeFile}
	var b kvstore.Batch
	addSubtree(&b, []*namespace.Inode{in}, true)
	b.Put(metaNextInoKey, []byte{0, 0, 0, 0, 0, 0, 0, 1})
	var w rpc.Wire
	ops, n := b.Ops()
	AppendRecordList(&w, 1)
	AppendRecord(&w, ops, n)
	before := s.store.DBStats().Batches
	if _, err := callOp(infoOp(s.handleIngest), w.Bytes()); err == nil || !strings.HasPrefix(err.Error(), CodeInvalid) {
		t.Fatalf("ingest of a metadata key: err = %v, want EINVAL", err)
	}
	if _, found, _ := s.store.Lookup(namespace.RootIno, "f"); found || s.store.DBStats().Batches != before {
		t.Errorf("a refused record applied: batches %d -> %d, (root, f) stored %v", before, s.store.DBStats().Batches, found)
	}
}

func TestMigrateCommitWithoutPrepare(t *testing.T) {
	src, _ := twoServices(t)
	d := mustCreate(t, src, namespace.RootIno, "proj", namespace.TypeDir)
	var cw rpc.Wire
	cw.U64(uint64(d.Ino))
	if _, err := src.handleMigrateCommit(cw.Bytes()); err == nil || !strings.HasPrefix(err.Error(), CodeInvalid) {
		t.Errorf("commit without prepare err = %v, want EINVAL", err)
	}
}

// asyncOne sends one sub-op through handleBatch on its own goroutine and
// delivers its outcome on the returned channel.
func asyncOne(s *Service, sub []byte) <-chan error {
	done := make(chan error, 1)
	go func() {
		body, err := callOp(s.handleBatch, EncodeBatchRequest(0, [][]byte{sub}))
		if err == nil {
			var res []BatchResult
			if res, _, err = DecodeBatchResponse(body); err == nil {
				err = res[0].Err
			}
		}
		done <- err
	}()
	return done
}

// TestMigrateFreezeHoldsTheSubtreeOnly: a prepared migration freezes the
// subtree's directories and the root's own entry, nothing else. A
// mutation touching them waits — without an error — until the abort or
// commit lifts the freeze and is then admitted against what it left:
// applied after an abort, redirected after a commit. Everything else on
// the shard, reads of the subtree included, is served meanwhile, and
// every lifted freeze lands in mds.migration.freeze_ns.
func TestMigrateFreezeHoldsTheSubtreeOnly(t *testing.T) {
	src, _ := twoServices(t)
	root := namespace.RootIno
	proj := mustCreate(t, src, root, "proj", namespace.TypeDir)
	sub := mustCreate(t, src, proj.Ino, "sub", namespace.TypeDir)
	f := mustCreate(t, src, proj.Ino, "f", namespace.TypeFile)
	side := mustCreate(t, src, root, "side", namespace.TypeDir)
	mustCreate(t, src, side.Ino, "x", namespace.TypeFile)
	mustCreate(t, src, side.Ino, "w", namespace.TypeFile)
	prepare := func() {
		t.Helper()
		var w rpc.Wire
		w.U64(uint64(proj.Ino)).U32(1)
		if _, err := src.handleMigratePrepare(w.Bytes()); err != nil {
			t.Fatalf("prepare: %v", err)
		}
	}
	var rootBody rpc.Wire
	rootBody.U64(uint64(proj.Ino))
	freezes := src.reg.Histogram("mds.migration.freeze_ns")

	prepare()
	frozen := map[string]<-chan error{
		"create under the root":   asyncOne(src, EncodeBatchCreate(0, proj.Ino, "new", namespace.TypeFile)),
		"create under a subdir":   asyncOne(src, EncodeBatchCreate(0, sub.Ino, "new", namespace.TypeFile)),
		"setattr inside":          asyncOne(src, EncodeBatchSetattr(0, proj.Ino, f.Name, 7, 0o600)),
		"setattr of the root":     asyncOne(src, EncodeBatchSetattr(0, root, proj.Name, 0, 0o700)),
		"rename into the subtree": asyncOne(src, EncodeBatchRename(0, side.Ino, "x", proj.Ino, "x")),
	}
	for what, sub := range map[string][]byte{
		"create beside the subtree": EncodeBatchCreate(0, side.Ino, "y", namespace.TypeFile),
		"create beside the root":    EncodeBatchCreate(0, root, "proj2", namespace.TypeDir),
		"rename beside the subtree": EncodeBatchRename(0, side.Ino, "w", side.Ino, "w2"),
	} {
		if res := applyOne(t, src, sub); res.Err != nil {
			t.Errorf("%s during the freeze: %v", what, res.Err)
		}
	}
	var g rpc.Wire
	g.U64(uint64(sub.Ino))
	if _, err := callOp(src.handleGetattr, g.Bytes()); err != nil {
		t.Errorf("getattr inside the frozen subtree: %v", err)
	}
	time.Sleep(50 * time.Millisecond)
	for what, done := range frozen {
		select {
		case err := <-done:
			t.Fatalf("%s answered during the freeze: %v", what, err)
		default:
		}
	}
	if _, err := src.handleMigrateAbort(rootBody.Bytes()); err != nil {
		t.Fatalf("abort: %v", err)
	}
	for what, done := range frozen {
		if err := <-done; err != nil {
			t.Errorf("%s after the abort: %v", what, err)
		}
	}
	if n := freezes.Count(); n != 1 {
		t.Errorf("freeze_ns holds %d samples after an abort, want 1", n)
	}

	prepare()
	parked := asyncOne(src, EncodeBatchCreate(0, proj.Ino, "late", namespace.TypeFile))
	select {
	case err := <-parked:
		t.Fatalf("create answered during the second freeze: %v", err)
	case <-time.After(50 * time.Millisecond):
	}
	if _, err := src.handleMigrateCommit(rootBody.Bytes()); err != nil {
		t.Fatalf("commit: %v", err)
	}
	if err := <-parked; ErrCode(err) != CodeNotOwner {
		t.Errorf("create parked across the commit: %v, want ENOTOWNER", err)
	}
	if n := freezes.Count(); n != 2 {
		t.Errorf("freeze_ns holds %d samples after a commit, want 2", n)
	}
}

// TestOwnershipFlipsAtCommitAndRmdir: ownsEntry answers from the directory
// index, so the index must flip with the store — at a migration commit,
// where the subtree root turns into a fake and everything below it goes,
// at an rmdir, and across a reopen that rebuilds the index from disk.
// At every step it must agree with the same question read from the store.
func TestOwnershipFlipsAtCommitAndRmdir(t *testing.T) {
	src, dst := twoServices(t)
	d := mustCreate(t, src, namespace.RootIno, "proj", namespace.TypeDir)
	sub := mustCreate(t, src, d.Ino, "sub", namespace.TypeDir)
	f := mustCreate(t, src, sub.Ino, "f", namespace.TypeFile)
	check := func(step string, s *Service, ino namespace.Ino, want bool) {
		t.Helper()
		if got := s.ownsEntry(ino); got != want {
			t.Errorf("%s: MDS %d ownsEntry(%d) = %v, want %v", step, s.ID, ino, got, want)
		}
		if got := s.ownsStored(ino); got != want {
			t.Errorf("%s: MDS %d ownsStored(%d) = %v, want %v", step, s.ID, ino, got, want)
		}
	}
	for _, ino := range []namespace.Ino{namespace.RootIno, d.Ino, sub.Ino} {
		check("before", src, ino, true)
	}
	check("before", dst, d.Ino, false)

	var w rpc.Wire
	w.U64(uint64(d.Ino)).U32(1)
	if _, err := src.handleMigratePrepare(w.Bytes()); err != nil {
		t.Fatal(err)
	}
	check("prepared", src, d.Ino, true)
	var cw rpc.Wire
	cw.U64(uint64(d.Ino))
	if _, err := src.handleMigrateCommit(cw.Bytes()); err != nil {
		t.Fatal(err)
	}
	check("committed", src, d.Ino, false) // the fake redirect
	check("committed", src, sub.Ino, false)
	check("committed", src, namespace.RootIno, true)
	check("committed", dst, d.Ino, true)
	check("committed", dst, sub.Ino, true)

	for _, rm := range []struct {
		parent namespace.Ino
		name   string
	}{{sub.Ino, f.Name}, {d.Ino, sub.Name}} {
		if res := applyOne(t, dst, EncodeBatchRemove(0, rm.parent, rm.name)); res.Err != nil {
			t.Fatal(res.Err)
		}
	}
	check("rmdir", dst, sub.Ino, false)
	check("rmdir", dst, d.Ino, true)

	// The index OpenStore rebuilds binds no fake either.
	dir := t.TempDir()
	st, err := OpenStore(dir, 0, kvstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	moved := &namespace.Inode{Ino: 77, Parent: namespace.RootIno, Name: "moved", Type: namespace.TypeDir}
	commitRecord(t, st, nil, moved)
	fake := *moved
	fake.Type, fake.Size = namespace.TypeFake, 1
	commitRecord(t, st, []*namespace.Inode{moved}, &fake)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st, err = OpenStore(dir, 0, kvstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	s := NewService(0, st, nil)
	check("reopened", s, moved.Ino, false)
	check("reopened", s, namespace.RootIno, true)
}
