package replication

import (
	"bytes"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"origami/internal/kvstore"
	"origami/internal/mds"
	"origami/internal/namespace"
	"origami/internal/rpc"
	"origami/internal/telemetry"
)

// backupNode is one MDS acting as a replication target: a serving store,
// an RPC server, and a receiver registered on it.
type backupNode struct {
	store *mds.Store
	svc   *mds.Service
	rcv   *Receiver
	addr  string
}

func startBackup(t testing.TB, id int) *backupNode {
	t.Helper()
	return startBackupWith(t, id, kvstore.Options{})
}

// startBackupWith is startBackup whose replica stores open with
// replicaOpts.
func startBackupWith(t testing.TB, id int, replicaOpts kvstore.Options) *backupNode {
	t.Helper()
	store, err := mds.OpenStore(t.TempDir(), id, kvstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	svc := mds.NewService(id, store, nil)
	addr, err := svc.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	rcv := NewReceiver(id, t.TempDir(), store, replicaOpts, telemetry.NewRegistry())
	rcv.Register(svc.Server())
	t.Cleanup(func() {
		rcv.Close()
		svc.Close()
	})
	return &backupNode{store: store, svc: svc, rcv: rcv, addr: addr}
}

// dialerTo returns a Dial option resolving every id to the node's
// address, caching the client. down, when non-nil, simulates an
// unreachable backup while set.
func dialerTo(t testing.TB, node *backupNode, down *atomic.Bool) func(int) (*rpc.Client, error) {
	t.Helper()
	var mu sync.Mutex
	var cli *rpc.Client
	return func(int) (*rpc.Client, error) {
		if down != nil && down.Load() {
			return nil, fmt.Errorf("test: backup marked down")
		}
		mu.Lock()
		defer mu.Unlock()
		if cli == nil {
			c, err := rpc.Dial(node.addr)
			if err != nil {
				return nil, err
			}
			t.Cleanup(func() { c.Close() })
			cli = c
		}
		return cli, nil
	}
}

// shipRing streams primary's whole store the way a cluster does: a
// Fanout holds the commit hook and the shipper rides it as unit 0.
func shipRing(t testing.TB, primary *mds.Store, opts Options) *Shipper {
	t.Helper()
	sh := NewShipper(primary, opts)
	fan := NewFanout(primary)
	fan.Start()
	fan.AttachRing(sh)
	t.Cleanup(fan.Stop)
	return sh
}

func openPrimary(t testing.TB, id int) *mds.Store {
	t.Helper()
	store, err := mds.OpenStore(t.TempDir(), id, kvstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { store.Close() })
	return store
}

type rawPair struct{ k, v []byte }

func storePairs(t *testing.T, s *mds.Store) []rawPair {
	t.Helper()
	var out []rawPair
	err := s.SnapshotPairs(func(k, v []byte) bool {
		out = append(out, rawPair{append([]byte(nil), k...), append([]byte(nil), v...)})
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// requireConverged waits until the stream is caught up (no pending
// snapshot, zero lag) and the replica is byte-identical to the primary.
func requireConverged(t *testing.T, sh *Shipper, primary *mds.Store, node *backupNode) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		st := sh.Status()
		if !st.Syncing && st.Lag == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("stream never converged: %+v", st)
		}
		time.Sleep(5 * time.Millisecond)
	}
	rep := node.rcv.ReplicaStore(sh.opts.Primary)
	if rep == nil {
		t.Fatal("no replica store on the backup")
	}
	want, got := storePairs(t, primary), storePairs(t, rep)
	if len(want) != len(got) {
		t.Fatalf("replica has %d pairs, primary %d", len(got), len(want))
	}
	for i := range want {
		if !bytes.Equal(want[i].k, got[i].k) || !bytes.Equal(want[i].v, got[i].v) {
			t.Fatalf("replica diverges at pair %d", i)
		}
	}
}

func putFile(t *testing.T, s *mds.Store, ino namespace.Ino, name string) {
	t.Helper()
	err := s.Put(&namespace.Inode{
		Ino: ino, Parent: namespace.RootIno, Name: name,
		Type: namespace.TypeFile, Size: int64(ino),
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestSnapshotInstallThenTailReplay covers the full stream lifecycle:
// data written before Start arrives via snapshot bootstrap, data written
// after arrives via tail appends, and deletes/overwrites replay
// idempotently — the replica ends byte-identical to the primary.
func TestSnapshotInstallThenTailReplay(t *testing.T) {
	primary := openPrimary(t, 1)
	node := startBackup(t, 2)

	base := namespace.Ino(1) << 48 // MDS 1's ino range
	for i := 0; i < 100; i++ {
		putFile(t, primary, base+namespace.Ino(i), fmt.Sprintf("pre%03d", i))
	}

	sh := shipRing(t, primary, Options{
		Primary: 1, Backup: 2,
		RetryBackoff: 5 * time.Millisecond,
		SnapChunk:    16, // several chunks even at test scale
		Dial:         dialerTo(t, node, nil),
	})

	for i := 100; i < 250; i++ {
		putFile(t, primary, base+namespace.Ino(i), fmt.Sprintf("tail%03d", i))
	}
	for i := 0; i < 250; i += 5 { // deletes replay as tombstones
		if _, err := primary.RemoveEntry(namespace.RootIno, entryName(i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 1; i < 250; i += 9 { // overwrites are last-writer-wins
		putFile(t, primary, base+namespace.Ino(i), entryName(i))
	}
	requireConverged(t, sh, primary, node)

	if st := sh.Status(); st.Dropped != 0 {
		t.Fatalf("lossless run dropped %d records", st.Dropped)
	}
}

func entryName(i int) string {
	if i < 100 {
		return fmt.Sprintf("pre%03d", i)
	}
	return fmt.Sprintf("tail%03d", i)
}

// TestSyncModeAcksAfterBackupApply verifies sync-mode semantics: by the
// time a write returns, its record is applied on the backup replica.
func TestSyncModeAcksAfterBackupApply(t *testing.T) {
	primary := openPrimary(t, 1)
	node := startBackup(t, 2)
	shipRing(t, primary, Options{
		Primary: 1, Backup: 2, Sync: true,
		RetryBackoff: 5 * time.Millisecond,
		SyncTimeout:  5 * time.Second,
		Dial:         dialerTo(t, node, nil),
	})

	base := namespace.Ino(1) << 48
	for i := 0; i < 50; i++ {
		name := fmt.Sprintf("sync%03d", i)
		putFile(t, primary, base+namespace.Ino(i), name)
		rep := node.rcv.ReplicaStore(1)
		if rep == nil {
			t.Fatal("no replica after an acked sync write")
		}
		if _, found, err := rep.Lookup(namespace.RootIno, name); err != nil || !found {
			t.Fatalf("acked sync write %q not on backup (found=%v err=%v)", name, found, err)
		}
	}
}

// TestOverflowTriggersSnapshotResync forces the async backlog over its
// cap while the backup is unreachable: the shipper drops the buffer,
// counts the loss exposure, and resyncs by snapshot once the backup
// returns — converging to byte-identical state anyway (the store still
// held every dropped mutation).
func TestOverflowTriggersSnapshotResync(t *testing.T) {
	primary := openPrimary(t, 1)
	node := startBackup(t, 2)
	var down atomic.Bool
	down.Store(true)
	sh := shipRing(t, primary, Options{
		Primary: 1, Backup: 2,
		MaxBacklog:   8,
		RetryBackoff: 2 * time.Millisecond,
		Dial:         dialerTo(t, node, &down),
	})

	base := namespace.Ino(1) << 48
	for i := 0; i < 200; i++ {
		putFile(t, primary, base+namespace.Ino(i), fmt.Sprintf("f%03d", i))
	}
	if st := sh.Status(); st.Dropped == 0 {
		t.Fatalf("expected overflow drops with backup down, status %+v", st)
	}
	down.Store(false)
	requireConverged(t, sh, primary, node)
}

// TestReceiverRestartCausesGapResync bounces the backup: the fresh
// receiver has no session state, the next append is refused with a gap
// error, and the shipper recovers by re-bootstrapping a snapshot.
func TestReceiverRestartCausesGapResync(t *testing.T) {
	primary := openPrimary(t, 1)
	node := startBackup(t, 2)
	sh := shipRing(t, primary, Options{
		Primary: 1, Backup: 2,
		RetryBackoff: 5 * time.Millisecond,
		Dial:         dialerTo(t, node, nil),
	})

	base := namespace.Ino(1) << 48
	for i := 0; i < 50; i++ {
		putFile(t, primary, base+namespace.Ino(i), fmt.Sprintf("a%03d", i))
	}
	requireConverged(t, sh, primary, node)

	// Replace the receiver in place: same server, empty session table.
	node.rcv.Close()
	node.rcv = NewReceiver(2, t.TempDir(), node.store, kvstore.Options{}, telemetry.NewRegistry())
	node.rcv.Register(node.svc.Server())

	for i := 50; i < 120; i++ {
		putFile(t, primary, base+namespace.Ino(i), fmt.Sprintf("b%03d", i))
	}
	requireConverged(t, sh, primary, node)
}

// TestReplicaNeverHoldsHalfARecord ships a rename — one WAL record of two
// ops, delete old and put new — with Window 1 through a link on which
// every Append after the first fails. A frame carries whole records, so
// the one Append that gets through carries the whole rename: the replica
// holds exactly one of the names. Shipping ops instead of records would
// leave it holding the delete alone — neither name — which a backup
// promoted at that moment would serve as a lost, acknowledged rename.
func TestReplicaNeverHoldsHalfARecord(t *testing.T) {
	// MDS 0 serves the root, so the rename takes the real request path:
	// one MethodBatch sub-op, one WAL record.
	primary := openPrimary(t, 0)
	svc := mds.NewService(0, primary, nil)
	addr, err := svc.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { svc.Close() })
	cli, err := rpc.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cli.Close() })
	apply := func(op mds.SubOp) {
		t.Helper()
		var w rpc.Wire
		op.AppendTo(&w)
		body, err := cli.Call(mds.MethodBatch, mds.EncodeBatchRequest(1, [][]byte{w.Bytes()}))
		if err != nil {
			t.Fatal(err)
		}
		res, _, err := mds.DecodeBatchResponse(body)
		if err == nil {
			err = res[0].Err
		}
		if err != nil {
			t.Fatalf("%+v: %v", op, err)
		}
	}
	// "old" exists before the stream starts: it reaches the backup in the
	// bootstrap snapshot, so the rename is the first thing appended.
	apply(mds.SubOp{ID: 1, Kind: mds.BatchOpCreate, Parent: namespace.RootIno, Name: "old", Type: namespace.TypeFile})

	node := startBackup(t, 2)
	dial := dialerTo(t, node, nil)
	appendsFail := rpc.NewRuleInjector(1, rpc.Rule{
		Point: rpc.PointClientSend, Method: MethodAppend, Skip: 1, Action: rpc.FaultError,
	})
	sh := shipRing(t, primary, Options{
		Primary: 0, Backup: 2, Window: 1,
		RetryBackoff: 5 * time.Millisecond,
		Dial: func(id int) (*rpc.Client, error) {
			c, err := dial(id)
			if err == nil {
				c.SetFaultInjector(appendsFail)
			}
			return c, err
		},
	})
	waitStatus(t, sh, func(st Status) bool { return !st.Syncing && st.Session != 0 })

	apply(mds.SubOp{ID: 2, Kind: mds.BatchOpRename, Parent: namespace.RootIno, Name: "old",
		DstParent: namespace.RootIno, DstName: "new"})
	waitStatus(t, sh, func(st Status) bool { return st.AckedSeq >= 1 })
	rep := node.rcv.ReplicaStore(0)
	_, hasOld, _ := rep.Lookup(namespace.RootIno, "old")
	_, hasNew, _ := rep.Lookup(namespace.RootIno, "new")
	if hasOld == hasNew {
		t.Fatalf("replica holds old=%v new=%v after the one Append that got through (%+v): a rename arrives whole or not at all",
			hasOld, hasNew, sh.Status())
	}
}

// TestDeleteElisionIsPerStore: primary and backup apply the same records,
// but each decides against its own tables whether a delete needs a
// tombstone. The primary, whose copy of f never left its memtable, cancels
// the put; the backup, whose tables hold f, keeps a tombstone — and the
// promoted backup serves f as gone.
func TestDeleteElisionIsPerStore(t *testing.T) {
	primary := openPrimary(t, 1) // a default memtable: nothing flushes here
	// The backup's replica flushes every few records and never compacts,
	// so a tombstone it writes stays visible to its scans.
	node := startBackupWith(t, 2, kvstore.Options{MemtableBytes: 512, MaxL0Tables: 1 << 10})
	base := namespace.Ino(1) << 48
	putFile(t, primary, base, "f")
	sh := shipRing(t, primary, Options{
		Primary: 1, Backup: 2,
		RetryBackoff: 5 * time.Millisecond,
		Dial:         dialerTo(t, node, nil),
	})
	for i := 1; i <= 32; i++ {
		putFile(t, primary, base+namespace.Ino(i), fmt.Sprintf("pad%02d", i))
	}
	requireConverged(t, sh, primary, node)
	rep := node.rcv.ReplicaStore(1)
	if p, r := primary.DBStats().Flushes, rep.DBStats().Flushes; p != 0 || r == 0 {
		t.Fatalf("flushes: primary %d, replica %d; want f memtable-only on the primary and in the replica's tables", p, r)
	}

	// The dead entries one readdir walks past. The replica's count before
	// the remove is not 0: records the stream re-sent over its snapshot
	// left older copies of some pads in its tables.
	skips := func(s *mds.Store) int64 {
		t.Helper()
		before := s.DBStats().ScanSkips
		if _, err := s.ReadDir(namespace.RootIno); err != nil {
			t.Fatal(err)
		}
		return s.DBStats().ScanSkips - before
	}
	primaryBase, repBase := skips(primary), skips(rep)
	if _, err := primary.RemoveEntry(namespace.RootIno, "f"); err != nil {
		t.Fatal(err)
	}
	requireConverged(t, sh, primary, node)
	if n := skips(primary) - primaryBase; n != 0 {
		t.Errorf("primary readdir walks %d more dead entries; its delete of a memtable-only f should leave none", n)
	}
	if n := skips(rep) - repBase; n != 2 {
		t.Errorf("replica readdir walks %d more dead entries, want 2: f's tombstone and the version it hides", n)
	}

	cli, err := rpc.Dial(node.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	resp, err := cli.Call(MethodPromote, EncodePromote(1))
	if err != nil {
		t.Fatal(err)
	}
	if n, err := DecodePromoteResp(resp); err != nil || n != 32 {
		t.Fatalf("promotion absorbed %d inode records (err %v), want the 32 pads", n, err)
	}
	if _, found, err := node.store.Lookup(namespace.RootIno, "f"); err != nil || found {
		t.Fatalf("promoted backup serves f: found=%v err=%v", found, err)
	}
	if _, found, err := node.store.Lookup(namespace.RootIno, "pad07"); err != nil || !found {
		t.Fatalf("promoted backup lost pad07: found=%v err=%v", found, err)
	}
}

// waitStatus polls the stream until cond holds (10 s at most).
func waitStatus(t *testing.T, sh *Shipper, cond func(Status) bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond(sh.Status()) {
		if time.Now().After(deadline) {
			t.Fatalf("stream never reached the awaited state: %+v", sh.Status())
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestAttachSubtreeStreamsUnit: a subtree unit bootstraps its warm store
// on the host from a snapshot of the subtree alone, then tails only the
// records inside the subtree; dropping the unit on both ends removes the
// stream and the host's store.
func TestAttachSubtreeStreamsUnit(t *testing.T) {
	primary := openPrimary(t, 1)
	node := startBackup(t, 2)
	base := namespace.Ino(1) << 48
	put := func(ino, parent namespace.Ino, name string, typ namespace.FileType) {
		t.Helper()
		if err := primary.Put(&namespace.Inode{Ino: ino, Parent: parent, Name: name, Type: typ}); err != nil {
			t.Fatal(err)
		}
	}
	hot := base + 1
	put(hot, namespace.RootIno, "hot", namespace.TypeDir)
	put(base+2, hot, "pre", namespace.TypeFile)
	put(base+3, namespace.RootIno, "out", namespace.TypeFile)

	fan := NewFanout(primary)
	fan.Start()
	t.Cleanup(fan.Stop)
	sh, err := fan.AttachSubtree(hot, Options{
		Primary: 1, Backup: 2,
		RetryBackoff: 5 * time.Millisecond,
		Dial:         dialerTo(t, node, nil),
	})
	if err != nil {
		t.Fatal(err)
	}
	waitStatus(t, sh, func(st Status) bool { return !st.Syncing && st.Session != 0 })
	boot := sh.Status().LastSeq
	put(base+4, hot, "tail", namespace.TypeFile)
	put(base+5, namespace.RootIno, "out2", namespace.TypeFile)
	waitStatus(t, sh, func(st Status) bool { return st.AckedSeq > boot && st.Lag == 0 })

	unit := node.rcv.UnitStore(1, uint64(hot))
	if unit == nil {
		t.Fatal("no unit store on the host")
	}
	for _, e := range []struct {
		dir  namespace.Ino
		name string
		want bool
	}{{hot, "pre", true}, {hot, "tail", true}, {namespace.RootIno, "out", false}, {namespace.RootIno, "out2", false}} {
		if _, found, err := unit.Lookup(e.dir, e.name); err != nil || found != e.want {
			t.Errorf("unit store has %q = %v (err %v), want %v", e.name, found, err, e.want)
		}
	}

	fan.DropSubtree(hot)
	node.rcv.DropUnit(1, uint64(hot))
	if units := fan.Units(); len(units) != 0 {
		t.Errorf("fanout still holds units %v", units)
	}
	if node.rcv.UnitStore(1, uint64(hot)) != nil {
		t.Error("host still holds the dropped unit's store")
	}
}

// TestSubtreeFilterKeepsRecordsWhole: a subtree unit gets the part of a
// record inside its subtree as ONE record — never split, never reordered —
// the whole record when all of it is inside, and nothing when none is.
func TestSubtreeFilterKeepsRecordsWhole(t *testing.T) {
	const dir, other = namespace.Ino(50), namespace.Ino(60)
	flt := &subtreeFilter{dirs: map[namespace.Ino]bool{dir: true}, rootKey: namespace.EncodeKey(1, "d")}
	sub := &namespace.Inode{Ino: 51, Parent: dir, Name: "sub", Type: namespace.TypeDir}
	var b kvstore.Batch
	b.Put(namespace.EncodeKey(dir, "sub"), namespace.EncodeInode(sub))
	b.Delete(namespace.EncodeKey(other, "x"))
	b.Delete(namespace.EncodeKey(sub.Ino, "y")) // under a directory the record itself created
	ops, n := b.Ops()
	got, gotN := flt.apply(ops, n)
	var keys []string
	kvstore.ForEachOp(got, gotN, func(key, _ []byte, _ bool) { keys = append(keys, fmt.Sprintf("%x", key)) })
	want := []string{fmt.Sprintf("%x", namespace.EncodeKey(dir, "sub")), fmt.Sprintf("%x", namespace.EncodeKey(sub.Ino, "y"))}
	if fmt.Sprint(keys) != fmt.Sprint(want) {
		t.Errorf("filtered record keys %v, want %v", keys, want)
	}
	var inside kvstore.Batch
	inside.Delete(namespace.EncodeKey(dir, "a"))
	inside.Delete(namespace.EncodeKey(1, "d"))
	ops, n = inside.Ops()
	if got, gotN := flt.apply(ops, n); gotN != n || &got[0] != &ops[0] {
		t.Errorf("a record wholly inside came back as %d ops of a copy, want itself", gotN)
	}
	var outside kvstore.Batch
	outside.Delete(namespace.EncodeKey(other, "a"))
	ops, n = outside.Ops()
	if _, gotN := flt.apply(ops, n); gotN != 0 {
		t.Errorf("a record wholly outside kept %d ops", gotN)
	}
}

// BenchmarkReplicationAppend is one shipped record on the sync-repl ack
// path: a one-put record fed to a Sync shipper, framed, sent over
// loopback, decoded and applied on the backup, and acked back. ns/op and
// allocs/op are per record, both ends together; the primary's own write
// is not in it.
func BenchmarkReplicationAppend(b *testing.B) {
	primary := openPrimary(b, 1)
	node := startBackup(b, 2)
	sh := shipRing(b, primary, Options{
		Primary: 1, Backup: 2, Sync: true,
		SyncTimeout: 10 * time.Second,
		Dial:        dialerTo(b, node, nil),
	})
	for sh.Status().Syncing {
		time.Sleep(time.Millisecond)
	}
	recs := make([][]byte, b.N)
	for i := range recs {
		in := &namespace.Inode{Ino: namespace.Ino(1<<48 + i), Parent: namespace.RootIno, Name: fmt.Sprintf("f%08d", i), Type: namespace.TypeFile}
		var rec kvstore.Batch
		rec.Put(namespace.EncodeKey(in.Parent, in.Name), namespace.EncodeInode(in))
		recs[i], _ = rec.Ops()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for _, ops := range recs {
		if err := sh.Feed(nil, ops, 1)(); err != nil {
			b.Fatal(err)
		}
	}
}
