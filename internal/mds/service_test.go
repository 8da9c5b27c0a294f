package mds

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"origami/internal/kvstore"
	"origami/internal/namespace"
	"origami/internal/rpc"
	"origami/internal/telemetry"
)

// localService builds a service without a listener: handlers are invoked
// directly, which keeps protocol-robustness tests fast and deterministic.
func localService(t *testing.T) *Service {
	t.Helper()
	store, err := OpenStore(t.TempDir(), 0, kvstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { store.Close() })
	return NewService(0, store, nil)
}

// callOp runs a handler the way the rpc layer does — appending to a
// response Wire — and returns the body it built.
func callOp(h opHandler, body []byte) ([]byte, error) {
	var resp rpc.Wire
	if err := h(telemetry.SpanContext{}, body, &resp); err != nil {
		return nil, err
	}
	return resp.Bytes(), nil
}

// infoOp adapts an rpc.InfoHandler to callOp.
func infoOp(h rpc.InfoHandler) opHandler {
	return func(_ telemetry.SpanContext, body []byte, resp *rpc.Wire) error {
		return h(rpc.CallInfo{}, body, resp)
	}
}

// commitRecord applies, through the store's one record apply, what a
// migration commit writes: a delete of every key of a collected subtree
// and, when fake is set, the fake-inode redirect at its root.
func commitRecord(t *testing.T, st *Store, inos []*namespace.Inode, fake *namespace.Inode) {
	t.Helper()
	var b kvstore.Batch
	addSubtree(&b, inos, false)
	if fake != nil {
		addSubtree(&b, []*namespace.Inode{fake}, true)
	}
	if err := st.ApplyRecord(&b); err != nil {
		t.Fatal(err)
	}
}

// Shorthands for the sub-ops the tests send; the SDK states them as SubOp
// values.

func encodeSubOp(o SubOp) []byte {
	var w rpc.Wire
	o.AppendTo(&w)
	return w.Bytes()
}

// EncodeBatchRemove encodes one remove sub-op.
func EncodeBatchRemove(opID uint64, parent namespace.Ino, name string) []byte {
	return encodeSubOp(SubOp{ID: opID, Kind: BatchOpRemove, Parent: parent, Name: name})
}

// EncodeBatchSetattr encodes one setattr sub-op.
func EncodeBatchSetattr(opID uint64, parent namespace.Ino, name string, size int64, mode uint16) []byte {
	return encodeSubOp(SubOp{ID: opID, Kind: BatchOpSetattr, Parent: parent, Name: name, Size: size, Mode: mode})
}

// EncodeBatchRename encodes one same-shard rename sub-op.
func EncodeBatchRename(opID uint64, srcParent namespace.Ino, srcName string, dstParent namespace.Ino, dstName string) []byte {
	return encodeSubOp(SubOp{ID: opID, Kind: BatchOpRename, Parent: srcParent, Name: srcName, DstParent: dstParent, DstName: dstName})
}

// EncodeBatchInsert encodes one insert sub-op: in lands at (in.Parent,
// in.Name) on the shard owning in.Parent.
func EncodeBatchInsert(opID uint64, in *namespace.Inode) []byte {
	return encodeSubOp(SubOp{ID: opID, Kind: BatchOpInsert, Inode: in})
}

// applyOne runs one sub-op through handleBatch as a frame of one — what
// the SDK sends for every unbatched mutation.
func applyOne(t *testing.T, s *Service, sub []byte) BatchResult {
	t.Helper()
	return batchCall(t, s, 0, [][]byte{sub})[0]
}

func mustCreate(t *testing.T, s *Service, parent namespace.Ino, name string, typ namespace.FileType) *namespace.Inode {
	t.Helper()
	res := applyOne(t, s, EncodeBatchCreate(0, parent, name, typ))
	if res.Err != nil {
		t.Fatalf("create %q: %v", name, res.Err)
	}
	return res.Inode
}

func TestHandlersRejectTruncatedBodies(t *testing.T) {
	s := localService(t)
	noCtx := func(h opHandler) rpc.Handler {
		return func(body []byte) ([]byte, error) { return callOp(h, body) }
	}
	handlers := map[string]rpc.Handler{
		"getattr":         noCtx(s.handleGetattr),
		"readdir":         noCtx(s.handleReaddir),
		"resolve_path":    noCtx(s.handleResolvePath),
		"batch":           noCtx(s.handleBatch),
		"migrate_prepare": s.handleMigratePrepare,
		"migrate_commit":  s.handleMigrateCommit,
		"ingest":          noCtx(infoOp(s.handleIngest)),
		"setmap":          s.handleSetMap,
	}
	for name, h := range handlers {
		for _, body := range [][]byte{nil, {1}, {1, 2, 3}} {
			if _, err := h(body); err == nil {
				t.Errorf("%s accepted truncated body %v", name, body)
			}
		}
	}
}

func TestCreateSemantics(t *testing.T) {
	s := localService(t)
	d := mustCreate(t, s, namespace.RootIno, "dir", namespace.TypeDir)
	f := mustCreate(t, s, d.Ino, "f", namespace.TypeFile)
	for _, tc := range []struct {
		what   string
		parent namespace.Ino
		name   string
		want   string
	}{
		{"duplicate", d.Ino, "f", CodeExist},
		{"empty name", d.Ino, "", CodeInvalid},
		// A shard knows a file only by (parent, name), so a file's ino is
		// as unknown to it as a foreign directory's: both draw the
		// not-owner redirect. The SDK answers ENOTDIR for an op under a
		// file without sending it (client.TestOpsUnderAFileAreNotDir).
		{"under a file", f.Ino, "x", CodeNotOwner},
		{"under a foreign dir", 99999, "x", CodeNotOwner},
	} {
		res := applyOne(t, s, EncodeBatchCreate(0, tc.parent, tc.name, namespace.TypeFile))
		if ErrCode(res.Err) != tc.want {
			t.Errorf("create %s: err = %v, want %s", tc.what, res.Err, tc.want)
		}
	}
}

func TestRemoveSemantics(t *testing.T) {
	s := localService(t)
	d := mustCreate(t, s, namespace.RootIno, "dir", namespace.TypeDir)
	mustCreate(t, s, d.Ino, "f", namespace.TypeFile)
	rmdir := EncodeBatchRemove(0, namespace.RootIno, "dir")
	unlink := EncodeBatchRemove(0, d.Ino, "f")
	// Non-empty dir refuses.
	if res := applyOne(t, s, rmdir); ErrCode(res.Err) != CodeNotEmpty {
		t.Errorf("rmdir non-empty err = %v, want ENOTEMPTY", res.Err)
	}
	// Remove file, then dir.
	if res := applyOne(t, s, unlink); res.Err != nil {
		t.Fatal(res.Err)
	}
	if res := applyOne(t, s, rmdir); res.Err != nil {
		t.Fatal(res.Err)
	}
	// Missing entry.
	if res := applyOne(t, s, unlink); res.Err == nil {
		t.Error("remove of missing entry succeeded")
	}
}

func TestDumpResetsCounters(t *testing.T) {
	s := localService(t)
	d := mustCreate(t, s, namespace.RootIno, "dir", namespace.TypeDir)
	var w rpc.Wire
	w.U64(uint64(d.Ino))
	if _, err := callOp(s.handleReaddir, w.Bytes()); err != nil {
		t.Fatal(err)
	}
	body, err := s.handleDump(nil)
	if err != nil {
		t.Fatal(err)
	}
	st, rows, err := DecodeDump(body)
	if err != nil {
		t.Fatal(err)
	}
	if st.Ops == 0 {
		t.Error("dump shows no ops")
	}
	if len(rows) < 2 { // root + dir
		t.Errorf("dump rows = %d", len(rows))
	}
	// Second dump: counters were reset.
	body, _ = s.handleDump(nil)
	st, _, _ = DecodeDump(body)
	if st.Ops != 0 {
		t.Errorf("counters not reset: %+v", st)
	}
}

func TestSetMapVersioning(t *testing.T) {
	s := localService(t)
	if _, err := s.handleSetMap(EncodeMap(2, []PinEntry{{Ino: 5, MDS: 1}})); err != nil {
		t.Fatal(err)
	}
	// Stale push ignored.
	if _, err := s.handleSetMap(EncodeMap(1, []PinEntry{{Ino: 5, MDS: 2}})); err != nil {
		t.Fatal(err)
	}
	body, err := s.handleGetMap(nil)
	if err != nil {
		t.Fatal(err)
	}
	v, pins, err := DecodeMap(body)
	if err != nil {
		t.Fatal(err)
	}
	if v != 2 || len(pins) != 1 || pins[0].MDS != 1 {
		t.Errorf("map = v%d %v, stale push applied?", v, pins)
	}
}

func TestLookupOnFakeRedirects(t *testing.T) {
	s := localService(t)
	d := mustCreate(t, s, namespace.RootIno, "moved", namespace.TypeDir)
	mustCreate(t, s, d.Ino, "f", namespace.TypeFile)
	// Simulate a completed migration: replace the subtree with a fake.
	inos, err := s.store.CollectSubtree(d.Ino)
	if err != nil {
		t.Fatal(err)
	}
	fake := *inos[0]
	fake.Type = namespace.TypeFake
	fake.Size = 2 // destination MDS
	commitRecord(t, s.store, inos, &fake)
	// A one-component resolve of the moved dir itself returns the fake
	// (the client follows the redirect).
	resolveOne := func(parent namespace.Ino, name string) ([]byte, error) {
		var w rpc.Wire
		w.U64(uint64(parent)).U32(1).Str(name)
		return callOp(s.handleResolvePath, w.Bytes())
	}
	body, err := resolveOne(namespace.RootIno, "moved")
	if err != nil {
		t.Fatal(err)
	}
	r := rpc.NewReader(body)
	if n := r.U32(); n != 1 {
		t.Fatalf("resolve of migrated dir returned a chain of %d", n)
	}
	in, _ := namespace.DecodeInode(r.Blob())
	if in.Type != namespace.TypeFake || in.Size != 2 {
		t.Errorf("lookup of migrated dir = %+v, want fake with dest 2", in)
	}
	// Lookups *under* the moved dir must yield not-owner, not ENOENT.
	if _, err := resolveOne(d.Ino, "f"); err == nil || !strings.HasPrefix(err.Error(), CodeNotOwner) {
		t.Errorf("lookup under fake err = %v, want ENOTOWNER", err)
	}
}

func TestPing(t *testing.T) {
	s := localService(t)
	out, err := s.handlePing(nil)
	if err != nil || string(out) != "pong" {
		t.Errorf("ping = %q, %v", out, err)
	}
}

// TestGroupCommitGauges reads group commit off the shard registry, the
// way /metrics shows it: a lone writer's leaders never wait for a
// cohort, and two concurrent writers share fsyncs (records per fsync =
// kvstore.wal.records / kvstore.wal.syncs above 1).
func TestGroupCommitGauges(t *testing.T) {
	store, err := OpenStore(t.TempDir(), 0, kvstore.Options{SyncWAL: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { store.Close() })
	s := NewService(0, store, nil)
	gauge := func(name string) float64 {
		s.refreshStoreGauges()
		return s.Registry().Gauge(name).Value()
	}
	var dirs [2]*namespace.Inode
	for i := range dirs {
		dirs[i] = mustCreate(t, s, namespace.RootIno, fmt.Sprintf("d%d", i), namespace.TypeDir)
	}
	for i := 0; i < 20; i++ {
		mustCreate(t, s, dirs[0].Ino, fmt.Sprintf("lone%02d", i), namespace.TypeFile)
	}
	if w := gauge("kvstore.wal.leader_wait_ns"); w != 0 {
		t.Errorf("one writer: kvstore.wal.leader_wait_ns = %v, want 0", w)
	}
	records, syncs := gauge("kvstore.wal.records"), gauge("kvstore.wal.syncs")
	if syncs == 0 || records < 22 {
		t.Fatalf("after 22 durable creates: kvstore.wal.records = %v, kvstore.wal.syncs = %v", records, syncs)
	}
	// The open zero-fills one extend step; every sync writes sectors.
	if wrote := gauge("kvstore.wal.write_bytes"); wrote <= 1<<20 {
		t.Errorf("after %v WAL syncs: kvstore.wal.write_bytes = %v, want past the 1 MiB zero-fill", syncs, wrote)
	}

	const perWriter = 100
	errs := make(chan error, len(dirs))
	for _, d := range dirs {
		go func(dir namespace.Ino) {
			for i := 0; i < perWriter; i++ {
				sub := EncodeBatchCreate(0, dir, fmt.Sprintf("pair%03d", i), namespace.TypeFile)
				body, err := callOp(s.handleBatch, EncodeBatchRequest(0, [][]byte{sub}))
				if err == nil {
					var res []BatchResult
					if res, _, err = DecodeBatchResponse(body); err == nil && res[0].Err != nil {
						err = res[0].Err
					}
				}
				if err != nil {
					errs <- err
					return
				}
			}
			errs <- nil
		}(d.Ino)
	}
	for range dirs {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	per := (gauge("kvstore.wal.records") - records) / (gauge("kvstore.wal.syncs") - syncs)
	if per <= 1 {
		t.Errorf("two writers: %.2f WAL records per fsync, want > 1", per)
	}
	t.Logf("two writers: %.2f WAL records per fsync, leaders waited %v", per,
		time.Duration(gauge("kvstore.wal.leader_wait_ns")))
}
