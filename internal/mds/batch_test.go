package mds

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"origami/internal/kvstore"
	"origami/internal/namespace"
	"origami/internal/rpc"
	"origami/internal/telemetry"
)

// MethodBatch semantics: atomic multi-op apply, per-op validation, and
// idempotent replay — the shard-side half of the commit pipeline's
// pipelined-submission contract.

func batchCall(t *testing.T, s *Service, clientID uint64, subs [][]byte) []BatchResult {
	t.Helper()
	body, err := callOp(s.handleBatch, EncodeBatchRequest(clientID, subs))
	if err != nil {
		t.Fatalf("handleBatch: %v", err)
	}
	res, _, err := DecodeBatchResponse(body)
	if err != nil {
		t.Fatalf("decode batch response: %v", err)
	}
	if len(res) != len(subs) {
		t.Fatalf("%d results for %d ops", len(res), len(subs))
	}
	return res
}

func TestBatchApplyPerOpValidation(t *testing.T) {
	s := localService(t)
	root := namespace.RootIno
	subs := [][]byte{
		EncodeBatchCreate(1, root, "a", namespace.TypeFile),
		EncodeBatchCreate(2, root, "a", namespace.TypeFile), // dup inside the frame
		EncodeBatchCreate(3, root, "b", namespace.TypeFile),
		EncodeBatchRemove(4, root, "missing"), // never existed
		EncodeBatchCreate(5, root, "d", namespace.TypeDir),
	}
	before := s.store.db.Stats().Batches
	res := batchCall(t, s, 7, subs)
	if res[0].Err != nil || res[0].Inode == nil || res[0].Inode.Name != "a" {
		t.Errorf("op 0: %+v", res[0])
	}
	if ErrCode(res[1].Err) != CodeExist {
		t.Errorf("op 1 (in-frame duplicate name): err %v, want EEXIST", res[1].Err)
	}
	if res[2].Err != nil || res[2].Inode == nil {
		t.Errorf("op 2: %+v", res[2])
	}
	if ErrCode(res[3].Err) != CodeNoEnt {
		t.Errorf("op 3 (remove of missing): err %v, want ENOENT", res[3].Err)
	}
	if res[4].Err != nil || res[4].Inode == nil || !res[4].Inode.IsDir() {
		t.Errorf("op 4: %+v", res[4])
	}
	// A failing op must not poison its frame: the valid ops are visible.
	for _, name := range []string{"a", "b", "d"} {
		if _, found, err := s.store.Lookup(root, name); err != nil || !found {
			t.Errorf("lookup %q after batch: found=%v err=%v", name, found, err)
		}
	}
	// The whole frame was one atomic kvstore record.
	if batches := s.store.db.Stats().Batches - before; batches != 1 {
		t.Errorf("%d kvstore batch records for one frame, want 1", batches)
	}
}

// TestCommitSmokeBatchReplayIdempotent is the replay-table proof: a
// frame re-sent byte for byte (same clientID, same opIDs) — what the
// SDK does after a transport failure or failover — is answered from the
// replay table with the original payloads, and nothing applies twice.
func TestCommitSmokeBatchReplayIdempotent(t *testing.T) {
	s := localService(t)
	root := namespace.RootIno
	const clientID = 42
	subs := [][]byte{
		EncodeBatchCreate(100, root, "x", namespace.TypeFile),
		EncodeBatchCreate(101, root, "y", namespace.TypeFile),
		EncodeBatchRemove(102, root, "x"),
	}
	first := batchCall(t, s, clientID, subs)
	for i, r := range first {
		if r.Err != nil {
			t.Fatalf("first send op %d: %v", i, r.Err)
		}
		if r.Replayed {
			t.Fatalf("first send op %d marked replayed", i)
		}
	}
	batchesAfterFirst := s.store.db.Stats().Batches

	second := batchCall(t, s, clientID, subs)
	for i, r := range second {
		if !r.Replayed {
			t.Errorf("resent op %d not answered from the replay table: %+v", i, r)
		}
		if r.Err != nil {
			t.Errorf("resent op %d: %v", i, r.Err)
		}
	}
	// The create payloads must be the original inodes, byte-identical
	// (same ino, same timestamps) — not a fresh second apply.
	if second[1].Inode == nil || first[1].Inode == nil || second[1].Inode.Ino != first[1].Inode.Ino {
		t.Errorf("replayed create returned a different inode: first=%+v second=%+v", first[1].Inode, second[1].Inode)
	}
	if got := s.store.db.Stats().Batches; got != batchesAfterFirst {
		t.Errorf("resend grew the kvstore batch count %d -> %d; nothing may re-apply", batchesAfterFirst, got)
	}
	// State check: x was created then removed; y persists exactly once.
	if _, found, _ := s.store.Lookup(root, "x"); found {
		t.Error("x exists after replayed remove")
	}
	if _, found, _ := s.store.Lookup(root, "y"); !found {
		t.Error("y missing after replay")
	}
	if n := s.reg.Counter("commit.ops.replayed").Value(); n != 3 {
		t.Errorf("commit.ops.replayed = %d, want 3", n)
	}

	// A different client re-using the same opIDs is NOT a replay: replay
	// identity is (clientID, opID), so client 43's create of "y" must get
	// its own verdict (EEXIST) rather than client 42's cached payload.
	other := batchCall(t, s, 43, [][]byte{EncodeBatchCreate(101, root, "y", namespace.TypeFile)})
	if other[0].Replayed {
		t.Error("different client answered from another client's replay entry")
	}
	if ErrCode(other[0].Err) != CodeExist {
		t.Errorf("cross-client create of existing name: %v, want EEXIST", other[0].Err)
	}
}

func TestReplayTableEvictsFIFO(t *testing.T) {
	tab := &replayTable{}
	for i := 0; i < replayTableCap+10; i++ {
		tab.store(1, uint64(i), &namespace.Inode{Ino: namespace.Ino(i + 2)})
	}
	if _, ok := tab.lookup(1, 0); ok {
		t.Error("oldest entry survived past the cap")
	}
	if _, ok := tab.lookup(1, 10); !ok {
		t.Error("entry within the cap evicted early")
	}
	if _, ok := tab.lookup(1, replayTableCap+9); !ok {
		t.Error("newest entry missing")
	}
	held := 0
	for _, set := range tab.sets {
		for _, e := range set {
			if e.client != 0 {
				held++
			}
		}
	}
	if held != replayTableCap {
		t.Errorf("table holds %d entries, cap %d", held, replayTableCap)
	}
	// Every surviving entry still holds its own record, although stores
	// recycle the buffers of the entries they push out.
	for i := 10; i < replayTableCap+10; i++ {
		p, _ := tab.lookup(1, uint64(i))
		if in, err := namespace.DecodeInode(p); err != nil || in.Ino != namespace.Ino(i+2) {
			t.Fatalf("entry %d holds %v (%v), want ino %d", i, in, err, i+2)
		}
	}
	// A re-store keeps the original verdict.
	tab.store(1, replayTableCap+9, &namespace.Inode{Ino: 1})
	if p, _ := tab.lookup(1, replayTableCap+9); !bytes.Equal(p, namespace.EncodeInode(&namespace.Inode{Ino: replayTableCap + 11})) {
		t.Error("duplicate store replaced the original payload")
	}
	// Client 0 is the "no identity" sentinel: never stored, never found.
	tab.store(0, 1, &namespace.Inode{Ino: 1})
	if _, ok := tab.lookup(0, 1); ok {
		t.Error("client 0 must not participate in replay")
	}
}

func TestBatchRejectsOversizedFrame(t *testing.T) {
	s := localService(t)
	subs := make([][]byte, batchMaxOps+1)
	for i := range subs {
		subs[i] = EncodeBatchCreate(uint64(i), namespace.RootIno, fmt.Sprintf("f%d", i), namespace.TypeFile)
	}
	// Handler errors are coded strings on this side of the wire (ErrCode
	// only decodes RemoteErrors, which the RPC layer materialises).
	if _, err := callOp(s.handleBatch, EncodeBatchRequest(1, subs)); err == nil || !strings.HasPrefix(err.Error(), CodeInvalid) {
		t.Errorf("oversized frame: %v, want %s", err, CodeInvalid)
	}
	if _, err := callOp(s.handleBatch, EncodeBatchRequest(1, nil)); err == nil || !strings.HasPrefix(err.Error(), CodeInvalid) {
		t.Errorf("empty frame: %v, want %s", err, CodeInvalid)
	}
}

// renameFixture builds the namespace the rename cases run against:
//
//	/a/f /a/g (files)  /a/d (empty dir)
//	/b/empty (empty dir)  /b/full/child
func renameFixture(t *testing.T) (s *Service, a, b *namespace.Inode) {
	t.Helper()
	s = localService(t)
	a = mustCreate(t, s, namespace.RootIno, "a", namespace.TypeDir)
	b = mustCreate(t, s, namespace.RootIno, "b", namespace.TypeDir)
	mustCreate(t, s, a.Ino, "f", namespace.TypeFile)
	mustCreate(t, s, a.Ino, "g", namespace.TypeFile)
	mustCreate(t, s, a.Ino, "d", namespace.TypeDir)
	mustCreate(t, s, b.Ino, "empty", namespace.TypeDir)
	full := mustCreate(t, s, b.Ino, "full", namespace.TypeDir)
	mustCreate(t, s, full.Ino, "child", namespace.TypeFile)
	return s, a, b
}

// TestBatchRenameSemantics drives rename sub-ops through the one apply
// path: each case is a frame, the per-op verdicts it must get, and the
// entries that must (not) exist afterwards.
func TestBatchRenameSemantics(t *testing.T) {
	type entry struct {
		dir  string // "a" or "b"
		name string
	}
	const ok = ""
	cases := []struct {
		name   string
		frame  func(a, b namespace.Ino) [][]byte
		want   []string // per-op error code, ok = applied
		moved  entry    // where /a/f (or /a/d) must have landed, same ino
		from   entry    // which entry moved
		absent []entry
		gone   *entry // entry the rename replaced
	}{
		{
			name:   "same dir",
			frame:  func(a, b namespace.Ino) [][]byte { return [][]byte{EncodeBatchRename(1, a, "f", a, "f2")} },
			want:   []string{ok},
			from:   entry{"a", "f"},
			moved:  entry{"a", "f2"},
			absent: []entry{{"a", "f"}},
		},
		{
			name:   "cross dir",
			frame:  func(a, b namespace.Ino) [][]byte { return [][]byte{EncodeBatchRename(1, a, "f", b, "f")} },
			want:   []string{ok},
			from:   entry{"a", "f"},
			moved:  entry{"b", "f"},
			absent: []entry{{"a", "f"}},
		},
		{
			name:   "replace file",
			frame:  func(a, b namespace.Ino) [][]byte { return [][]byte{EncodeBatchRename(1, a, "f", a, "g")} },
			want:   []string{ok},
			from:   entry{"a", "f"},
			moved:  entry{"a", "g"},
			absent: []entry{{"a", "f"}},
			gone:   &entry{"a", "g"},
		},
		{
			name:   "replace empty dir",
			frame:  func(a, b namespace.Ino) [][]byte { return [][]byte{EncodeBatchRename(1, a, "d", b, "empty")} },
			want:   []string{ok},
			from:   entry{"a", "d"},
			moved:  entry{"b", "empty"},
			absent: []entry{{"a", "d"}},
			gone:   &entry{"b", "empty"},
		},
		{
			name:  "replace non-empty dir",
			frame: func(a, b namespace.Ino) [][]byte { return [][]byte{EncodeBatchRename(1, a, "d", b, "full")} },
			want:  []string{CodeNotEmpty},
			from:  entry{"a", "d"},
			moved: entry{"a", "d"}, // untouched
		},
		{
			name:  "missing source",
			frame: func(a, b namespace.Ino) [][]byte { return [][]byte{EncodeBatchRename(1, a, "nope", b, "x")} },
			want:  []string{CodeNoEnt},
			from:  entry{"a", "f"},
			moved: entry{"a", "f"},
		},
		{
			name:  "empty destination name",
			frame: func(a, b namespace.Ino) [][]byte { return [][]byte{EncodeBatchRename(1, a, "f", b, "")} },
			want:  []string{CodeInvalid},
			from:  entry{"a", "f"},
			moved: entry{"a", "f"},
		},
		{
			name: "rename then create of the vacated name in one frame",
			frame: func(a, b namespace.Ino) [][]byte {
				return [][]byte{
					EncodeBatchRename(1, a, "f", a, "f2"),
					EncodeBatchCreate(2, a, "f", namespace.TypeFile),
					EncodeBatchCreate(3, a, "f2", namespace.TypeFile), // now taken
				}
			},
			want:  []string{ok, ok, CodeExist},
			from:  entry{"a", "f"},
			moved: entry{"a", "f2"},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s, a, b := renameFixture(t)
			dir := func(e entry) namespace.Ino {
				if e.dir == "a" {
					return a.Ino
				}
				return b.Ino
			}
			src, found, err := s.store.Lookup(dir(tc.from), tc.from.name)
			if err != nil || !found {
				t.Fatalf("fixture entry %v: found=%v err=%v", tc.from, found, err)
			}
			var goneDir namespace.Ino
			if tc.gone != nil {
				in, found, _ := s.store.Lookup(dir(*tc.gone), tc.gone.name)
				if !found {
					t.Fatalf("fixture entry %v missing", *tc.gone)
				}
				if in.IsDir() {
					goneDir = in.Ino
				}
			}
			before := s.store.DBStats()
			res := batchCall(t, s, 9, tc.frame(a.Ino, b.Ino))
			for i, want := range tc.want {
				if got := ErrCode(res[i].Err); got != want {
					t.Errorf("op %d: code %q (%v), want %q", i, got, res[i].Err, want)
				}
			}
			// Whatever a frame does is one WAL record; a rename inside it
			// is a delete and a put of that record, never records of its own.
			after := s.store.DBStats()
			if tc.want[0] == ok {
				if d := after.Batches - before.Batches; d != 1 {
					t.Errorf("%d kvstore batch records for the frame, want 1", d)
				}
				if res[0].Inode == nil || res[0].Inode.Ino != src.Ino || res[0].Inode.Name != tc.moved.name {
					t.Errorf("rename result inode = %+v, want ino %d named %q", res[0].Inode, src.Ino, tc.moved.name)
				}
			} else if d := after.Puts + after.Deletes - before.Puts - before.Deletes; d != 0 {
				t.Errorf("failed rename wrote %d mutations", d)
			}
			in, found, err := s.store.Lookup(dir(tc.moved), tc.moved.name)
			if err != nil || !found || in.Ino != src.Ino {
				t.Errorf("entry at %v = %+v (found=%v err=%v), want ino %d", tc.moved, in, found, err, src.Ino)
			}
			if got, found, _ := s.store.getattr(src.Ino); src.IsDir() && (!found || got.Name != tc.moved.name || got.Parent != dir(tc.moved)) {
				t.Errorf("directory index binds %d to %+v, want %v", src.Ino, got, tc.moved)
			}
			for _, e := range tc.absent {
				if _, found, _ := s.store.Lookup(dir(e), e.name); found {
					t.Errorf("entry %v survived", e)
				}
			}
			if goneDir != 0 && s.store.HasIno(goneDir) {
				t.Errorf("replaced directory %d still indexed", goneDir)
			}
			checkDump(t, tc.name, s)
		})
	}
}

// TestBatchRenameIsOneWALRecord pins the crash-atomicity fix: a same-shard
// rename over an existing destination — delete-dst, delete-src, put-moved
// — reaches the WAL as exactly one batch record carrying two mutations
// (the put overwrites the destination key).
func TestBatchRenameIsOneWALRecord(t *testing.T) {
	s, a, _ := renameFixture(t)
	before := s.store.DBStats()
	if res := applyOne(t, s, EncodeBatchRename(1, a.Ino, "f", a.Ino, "g")); res.Err != nil {
		t.Fatal(res.Err)
	}
	after := s.store.DBStats()
	if d := after.Batches - before.Batches; d != 1 {
		t.Errorf("rename wrote %d batch records, want 1", d)
	}
	if puts, dels := after.Puts-before.Puts, after.Deletes-before.Deletes; puts != 1 || dels != 1 {
		t.Errorf("rename wrote %d puts and %d deletes, want 1 and 1 inside the one record", puts, dels)
	}
}

// TestTornRenameRecordRecoversOldXorNew extends the torn-batch WAL crash
// suite to the rename record: a crash that tears it at ANY byte offset
// must recover to the old name or the new name — never neither (the file
// lost) and never both (the inode duplicated).
func TestTornRenameRecordRecoversOldXorNew(t *testing.T) {
	src := t.TempDir()
	s, err := OpenStore(src, 0, kvstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	d := &namespace.Inode{Ino: s.AllocIno(), Parent: namespace.RootIno, Name: "d", Type: namespace.TypeDir}
	if err := s.Put(d); err != nil {
		t.Fatal(err)
	}
	f := &namespace.Inode{Ino: s.AllocIno(), Parent: d.Ino, Name: "old", Type: namespace.TypeFile}
	if err := s.CreateEntry(f); err != nil {
		t.Fatal(err)
	}
	// The log's logical size: the file's own is set ahead of it.
	recordStart := s.DBStats().WALBytes
	op := [1]batchOp{{kind: BatchOpRename, parent: d.Ino, name: "old", dstParent: d.Ino, dstName: "new"}}
	s.applyBatchOps(telemetry.SpanContext{}, op[:])
	if op[0].err != nil {
		t.Fatal(op[0].err)
	}
	wal, err := os.ReadFile(filepath.Join(src, "wal.log"))
	if err != nil {
		t.Fatal(err)
	}
	wal = wal[:s.DBStats().WALBytes]
	if int64(len(wal)) <= recordStart {
		t.Fatalf("rename did not grow the WAL (size %d, record at %d)", len(wal), recordStart)
	}
	for cut := recordStart; cut <= int64(len(wal)); cut++ {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "wal.log"), wal[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		re, err := OpenStore(dir, 0, kvstore.Options{})
		if err != nil {
			t.Fatalf("cut %d: reopen: %v", cut, err)
		}
		_, oldFound, _ := re.Lookup(d.Ino, "old")
		in, newFound, _ := re.Lookup(d.Ino, "new")
		if oldFound == newFound {
			t.Fatalf("cut %d: old=%v new=%v, want exactly one name", cut, oldFound, newFound)
		}
		if wantNew := cut == int64(len(wal)); newFound != wantNew {
			t.Fatalf("cut %d: new name present=%v, want %v", cut, newFound, wantNew)
		}
		if newFound && in.Ino != f.Ino {
			t.Fatalf("cut %d: new name holds ino %d, want %d", cut, in.Ino, f.Ino)
		}
		if n := re.Count(); n != 2 {
			t.Fatalf("cut %d: the rebuilt index counts %d inodes, want 2 (d and its file)", cut, n)
		}
		re.Close()
	}
}

// TestBatchShapeChangeRetriesInsideStore races removes and renames of
// one name against workers that keep flipping it between a file and a
// directory. An op whose target changes shape between the unlocked
// pre-pass and the stripe locks must be retried inside the applier: the
// only verdicts that may come back are the sequential ones, never a
// conflict code. Meaningful under -race.
func TestBatchShapeChangeRetriesInsideStore(t *testing.T) {
	s := localService(t)
	d := mustCreate(t, s, namespace.RootIno, "d", namespace.TypeDir)
	const rounds = 300
	allowed := map[string]bool{"": true, CodeExist: true, CodeNoEnt: true, CodeNotEmpty: true}
	run := func(subs func(i int) [][]byte) func() error {
		return func() error {
			for i := 0; i < rounds; i++ {
				body, err := callOp(s.handleBatch, EncodeBatchRequest(0, subs(i)))
				if err != nil {
					return err
				}
				res, _, err := DecodeBatchResponse(body)
				if err != nil {
					return err
				}
				for _, r := range res {
					if !allowed[ErrCode(r.Err)] {
						return fmt.Errorf("verdict %v", r.Err)
					}
				}
			}
			return nil
		}
	}
	workers := []func() error{
		run(func(int) [][]byte { return [][]byte{EncodeBatchCreate(0, d.Ino, "x", namespace.TypeDir)} }),
		run(func(int) [][]byte { return [][]byte{EncodeBatchCreate(0, d.Ino, "x", namespace.TypeFile)} }),
		run(func(int) [][]byte { return [][]byte{EncodeBatchRemove(0, d.Ino, "x")} }),
		run(func(i int) [][]byte {
			// A two-op frame: the rename may have to wait for a round of
			// its own while the create before it commits.
			return [][]byte{
				EncodeBatchCreate(0, d.Ino, fmt.Sprintf("y%d", i), namespace.TypeFile),
				EncodeBatchRename(0, d.Ino, fmt.Sprintf("y%d", i), d.Ino, "x"),
			}
		}),
	}
	errs := make(chan error, len(workers))
	for _, w := range workers {
		go func(w func() error) { errs <- w() }(w)
	}
	for range workers {
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}
	// The directory index and the keyspace must still agree entry for
	// entry: each directory bound where it is stored, each file counted.
	kids, err := s.store.ReadDir(d.Ino)
	if err != nil {
		t.Fatal(err)
	}
	for _, in := range kids {
		if got, found, _ := s.store.getattr(in.Ino); in.IsDir() && (!found || got.Name != in.Name) {
			t.Errorf("directory %q (ino %d) not reachable through the index: %+v", in.Name, in.Ino, got)
		}
	}
	if want := len(kids) + 2; s.store.Count() != want { // + root and d
		t.Errorf("index counts %d inodes, keyspace %d", s.store.Count(), want)
	}
	checkDump(t, "shape churn", s)
}

// TestBatchDirectoryUnlinkSeesFrameSiblings: an emptiness check only sees
// committed state, so an op that unlinks a directory runs in a round of
// its own — after the frame's earlier ops committed, before its later
// ones are validated.
func TestBatchDirectoryUnlinkSeesFrameSiblings(t *testing.T) {
	s := localService(t)
	d := mustCreate(t, s, namespace.RootIno, "d", namespace.TypeDir)
	res := batchCall(t, s, 0, [][]byte{
		EncodeBatchCreate(0, d.Ino, "child", namespace.TypeFile),
		EncodeBatchRemove(0, namespace.RootIno, "d"), // no longer empty
		EncodeBatchRemove(0, d.Ino, "child"),
		EncodeBatchRemove(0, namespace.RootIno, "d"), // empty again
		EncodeBatchCreate(0, d.Ino, "late", namespace.TypeFile),
	})
	// The last create was admitted (d existed at decode time) but d was
	// gone when its round ran: the parent is no live directory.
	want := []string{"", CodeNotEmpty, "", "", CodeNotDir}
	for i, w := range want {
		if got := ErrCode(res[i].Err); got != w {
			t.Errorf("op %d: code %q (%v), want %q", i, got, res[i].Err, w)
		}
	}
	if s.store.HasIno(d.Ino) {
		t.Error("removed directory still indexed")
	}
	if kids, _ := s.store.ReadDir(d.Ino); len(kids) != 0 {
		t.Errorf("%d orphans under the removed directory", len(kids))
	}
}

// TestBatchInsertChecksOwnershipUnderTheFreeze is the acked-rename-loss
// regression: the insert leg of a cross-shard rename used to bypass both
// the migration freeze and the ownership check, so an insert racing a
// migration of the destination directory landed on the old owner, where
// nothing would ever find it. Now it is a MethodBatch op like any other:
// it waits out the freeze and is then refused with ENOTOWNER.
func TestBatchInsertChecksOwnershipUnderTheFreeze(t *testing.T) {
	services, addrs := concurrentCluster(t)
	old := services[0]
	conn, err := rpc.Dial(addrs[0])
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	dst, err := callCreate(conn, namespace.RootIno, "dst", namespace.TypeDir)
	if err != nil {
		t.Fatal(err)
	}
	var p rpc.Wire
	p.U64(uint64(dst.Ino)).U32(1)
	if _, err := old.handleMigratePrepare(p.Bytes()); err != nil {
		t.Fatalf("prepare: %v", err)
	}
	moved := &namespace.Inode{Ino: 4242, Parent: dst.Ino, Name: "x", Type: namespace.TypeFile}
	type reply struct {
		res []BatchResult
		err error
	}
	done := make(chan reply, 1)
	go func() {
		body, err := conn.Call(MethodBatch, EncodeBatchRequest(7, [][]byte{EncodeBatchInsert(1, moved)}))
		if err != nil {
			done <- reply{err: err}
			return
		}
		res, _, err := DecodeBatchResponse(body)
		done <- reply{res, err}
	}()
	select {
	case r := <-done:
		t.Fatalf("insert answered while the shard was frozen: %+v", r)
	case <-time.After(100 * time.Millisecond):
	}
	var c rpc.Wire
	c.U64(uint64(dst.Ino))
	if _, err := old.handleMigrateCommit(c.Bytes()); err != nil {
		t.Fatalf("commit: %v", err)
	}
	r := <-done
	if r.err != nil {
		t.Fatal(r.err)
	}
	if got := ErrCode(r.res[0].Err); got != CodeNotOwner {
		t.Fatalf("insert on the old owner: %v, want ENOTOWNER", r.res[0].Err)
	}
	if _, found, _ := old.store.Lookup(dst.Ino, "x"); found {
		t.Error("refused insert left an entry on the old owner")
	}
	// The new owner accepts the same op.
	conn1, err := rpc.Dial(addrs[1])
	if err != nil {
		t.Fatal(err)
	}
	defer conn1.Close()
	body, err := conn1.Call(MethodBatch, EncodeBatchRequest(7, [][]byte{EncodeBatchInsert(1, moved)}))
	if err != nil {
		t.Fatal(err)
	}
	if res, _, err := DecodeBatchResponse(body); err != nil || res[0].Err != nil {
		t.Fatalf("insert on the new owner: %v %v", err, res)
	}
	if in, found, _ := services[1].store.Lookup(dst.Ino, "x"); !found || in.Ino != moved.Ino {
		t.Errorf("insert on the new owner not visible: found=%v %+v", found, in)
	}
}
