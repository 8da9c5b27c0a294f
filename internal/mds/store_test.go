package mds

import (
	"errors"
	"fmt"
	"runtime"
	"testing"

	"origami/internal/kvstore"
	"origami/internal/namespace"
	"origami/internal/rpc"
)

func openTestStore(t *testing.T, id int) *Store {
	t.Helper()
	s, err := OpenStore(t.TempDir(), id, kvstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func TestStorePutLookupGetattr(t *testing.T) {
	s := openTestStore(t, 0)
	in := &namespace.Inode{Ino: 100, Parent: 1, Name: "f", Type: namespace.TypeFile, Size: 42}
	if err := s.Put(in); err != nil {
		t.Fatal(err)
	}
	got, found, err := s.Lookup(1, "f")
	if err != nil || !found {
		t.Fatalf("Lookup: found=%v err=%v", found, err)
	}
	if got.Size != 42 {
		t.Errorf("size = %d", got.Size)
	}
	got, found, err = s.Getattr(100)
	if err != nil || !found || got.Name != "f" {
		t.Errorf("Getattr = %+v found=%v err=%v", got, found, err)
	}
	if !s.HasIno(100) || s.HasIno(101) {
		t.Error("HasIno wrong")
	}
}

func TestStoreAllocInoRange(t *testing.T) {
	s3 := openTestStore(t, 3)
	ino := s3.AllocIno()
	if uint64(ino)>>inoRangeBits != 3 {
		t.Errorf("allocated ino %d not in MDS 3's range", ino)
	}
	if s3.AllocIno() == ino {
		t.Error("AllocIno repeated")
	}
}

func TestStoreAllocSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenStore(dir, 2, kvstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	first := s.AllocIno()
	second := s.AllocIno()
	s.Close()
	re, err := OpenStore(dir, 2, kvstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	third := re.AllocIno()
	if third <= second || third <= first {
		t.Errorf("alloc went backwards after restart: %d %d then %d", first, second, third)
	}
}

func TestStoreReadDir(t *testing.T) {
	s := openTestStore(t, 0)
	for i := 0; i < 5; i++ {
		in := &namespace.Inode{Ino: namespace.Ino(10 + i), Parent: 5, Name: fmt.Sprintf("c%d", i), Type: namespace.TypeFile}
		if err := s.Put(in); err != nil {
			t.Fatal(err)
		}
	}
	// An entry in another directory must not leak into the listing.
	s.Put(&namespace.Inode{Ino: 99, Parent: 6, Name: "other", Type: namespace.TypeFile})
	children, err := s.ReadDir(5)
	if err != nil {
		t.Fatal(err)
	}
	if len(children) != 5 {
		t.Errorf("ReadDir = %d entries, want 5", len(children))
	}
}

func TestStoreDelete(t *testing.T) {
	s := openTestStore(t, 0)
	s.Put(&namespace.Inode{Ino: 7, Parent: 1, Name: "x", Type: namespace.TypeFile})
	if _, err := s.RemoveEntry(1, "x"); err != nil {
		t.Fatal(err)
	}
	if _, found, _ := s.Lookup(1, "x"); found {
		t.Error("deleted entry still found")
	}
	if s.HasIno(7) {
		t.Error("ino index not cleaned")
	}
}

func TestStoreCollectSubtree(t *testing.T) {
	s := openTestStore(t, 0)
	// root(1) -> d(2) -> {f(3), e(4) -> g(5)}
	s.Put(&namespace.Inode{Ino: 2, Parent: 1, Name: "d", Type: namespace.TypeDir})
	s.Put(&namespace.Inode{Ino: 3, Parent: 2, Name: "f", Type: namespace.TypeFile})
	s.Put(&namespace.Inode{Ino: 4, Parent: 2, Name: "e", Type: namespace.TypeDir})
	s.Put(&namespace.Inode{Ino: 5, Parent: 4, Name: "g", Type: namespace.TypeFile})
	inos, err := s.CollectSubtree(2)
	if err != nil {
		t.Fatal(err)
	}
	if len(inos) != 4 {
		t.Fatalf("collected %d inodes, want 4", len(inos))
	}
	if inos[0].Ino != 2 {
		t.Errorf("first collected = %d, want subtree root", inos[0].Ino)
	}
	commitRecord(t, s, inos, nil)
	for _, in := range []namespace.Ino{2, 3, 4, 5} {
		if s.HasIno(in) {
			t.Errorf("ino %d survived the subtree's delete record", in)
		}
	}
}

// record builds a kvstore batch from puts (an inode) and deletes (a
// (parent, name) key) — a record as another store would ship it.
func record(ops ...any) *kvstore.Batch {
	var b kvstore.Batch
	for _, op := range ops {
		switch op := op.(type) {
		case *namespace.Inode:
			b.Put(namespace.EncodeKey(op.Parent, op.Name), namespace.EncodeInode(op))
		case []byte:
			b.Delete(op)
		}
	}
	return &b
}

// TestApplyRecordKeepsIndexInStep: the ino index follows each key's last
// op in record order, and a put over an entry unbinds the ino it replaced.
func TestApplyRecordKeepsIndexInStep(t *testing.T) {
	s := openTestStore(t, 0)
	f := &namespace.Inode{Ino: 10, Parent: 1, Name: "f", Type: namespace.TypeFile}
	g := &namespace.Inode{Ino: 11, Parent: 1, Name: "g", Type: namespace.TypeFile}
	d := &namespace.Inode{Ino: 12, Parent: 1, Name: "d", Type: namespace.TypeDir}
	apply := func(b *kvstore.Batch) {
		t.Helper()
		if err := s.ApplyRecord(nil, b); err != nil {
			t.Fatal(err)
		}
	}
	apply(record(f, g, d))
	// A rename of f over g: delete the source, put the moved inode at the
	// destination, replacing g.
	moved := *f
	moved.Name = "g"
	apply(record(namespace.EncodeKey(1, "f"), &moved))
	if got, found, _ := s.Getattr(10); !found || got.Name != "g" {
		t.Errorf("renamed ino = %+v (found=%v), want it at (1, g)", got, found)
	}
	if s.HasIno(11) {
		t.Error("the replaced ino is still indexed")
	}
	// A put then a delete of one key inside a record leaves it unbound; a
	// delete then a put leaves it bound.
	h := &namespace.Inode{Ino: 13, Parent: d.Ino, Name: "h", Type: namespace.TypeFile}
	apply(record(h, namespace.EncodeKey(d.Ino, "h")))
	if s.HasIno(13) {
		t.Error("a put and a delete of one key left its ino indexed")
	}
	apply(record(namespace.EncodeKey(1, "d"), d))
	if got, found, _ := s.Getattr(12); !found || !got.IsDir() {
		t.Errorf("a delete then a put of one key: ino = %+v (found=%v), want the directory", got, found)
	}
	if s.Count() != 2 {
		t.Errorf("index holds %d inodes, want 2 (g, d)", s.Count())
	}
}

// TestApplyRecordRefusesBadRecords: a record with a key that is neither a
// metadata key nor a (parent, name) key, or with a put whose inode does
// not sit at its key, applies nothing at all.
func TestApplyRecordRefusesBadRecords(t *testing.T) {
	s := openTestStore(t, 0)
	good := &namespace.Inode{Ino: 20, Parent: 1, Name: "ok", Type: namespace.TypeFile}
	misplaced := &namespace.Inode{Ino: 21, Parent: 1, Name: "x", Type: namespace.TypeFile}
	misplacedRec := record(good)
	misplacedRec.Put(namespace.EncodeKey(1, "y"), namespace.EncodeInode(misplaced))
	shortKey := record(good)
	shortKey.Delete([]byte{1, 2})
	garbage := record(good)
	garbage.Put(namespace.EncodeKey(1, "z"), []byte("not an inode"))
	for name, b := range map[string]*kvstore.Batch{"misplaced inode": misplacedRec, "short key": shortKey, "garbage value": garbage} {
		before := s.DBStats().Batches
		if err := s.ApplyRecord(nil, b); !errors.Is(err, ErrBadRecord) {
			t.Errorf("%s: err = %v, want ErrBadRecord", name, err)
		}
		if got := s.DBStats().Batches; got != before || s.HasIno(20) {
			t.Errorf("%s: a refused record applied", name)
		}
	}
	// Metadata keys travel verbatim and are never indexed.
	meta := record(good)
	meta.Put(metaPinMapKey, []byte("map"))
	if err := s.ApplyRecord(nil, meta); err != nil {
		t.Fatal(err)
	}
	if data, _ := s.LoadPinMap(); string(data) != "map" || s.Count() != 1 {
		t.Errorf("metadata key applied as %q, index holds %d", data, s.Count())
	}
}

func TestStoreCollectSubtreeMissing(t *testing.T) {
	s := openTestStore(t, 0)
	if _, err := s.CollectSubtree(12345); err == nil {
		t.Error("collecting a missing subtree succeeded")
	}
}

func TestErrCodeParsing(t *testing.T) {
	err := CodedError(CodeNoEnt, "missing %q", "x")
	if err.Error() != `ENOENT: missing "x"` {
		t.Errorf("coded error = %q", err.Error())
	}
	// ErrCode only recognises RemoteError (transported errors).
	if ErrCode(err) != "" {
		t.Errorf("local error should not parse as remote code")
	}
}

func TestDumpRoundTrip(t *testing.T) {
	st := StatsSnapshot{Ops: 10, RPCs: 12, ServiceNS: 999, Inodes: 3}
	rows := []DumpRow{
		{Ino: 2, Parent: 1, Reads: 5, Writes: 1, Lookups: 7, ServiceNS: 100, ChildFiles: 2, ChildDirs: 1},
	}
	gotSt, gotRows, err := DecodeDump(EncodeDump(st, rows))
	if err != nil {
		t.Fatal(err)
	}
	if gotSt != st {
		t.Errorf("stats = %+v", gotSt)
	}
	if len(gotRows) != 1 || gotRows[0] != rows[0] {
		t.Errorf("rows = %+v", gotRows)
	}
}

func TestMapRoundTrip(t *testing.T) {
	pins := []PinEntry{{Ino: 5, MDS: 2}, {Ino: 9, MDS: 0}}
	v, got, err := DecodeMap(EncodeMap(7, pins))
	if err != nil {
		t.Fatal(err)
	}
	if v != 7 || len(got) != 2 || got[0] != pins[0] || got[1] != pins[1] {
		t.Errorf("map round trip: v=%d pins=%v", v, got)
	}
}

// TestDecodeMapRejectsOversizedCount: a map body whose pin count promises
// more pins than it carries bytes for is refused before the decoder
// allocates for the count.
func TestDecodeMapRejectsOversizedCount(t *testing.T) {
	var w rpc.Wire
	w.U64(3).U32(0x00ffffff) // 12 bytes claiming 16M pins
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, pins, err := DecodeMap(w.Bytes())
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatalf("oversized count decoded into %d pins", len(pins))
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Errorf("refusing a 12-byte map allocated %d bytes", grew)
	}
}

// TestDecodeDumpRejectsOversizedCount: a dump whose row count promises
// more rows than it carries bytes for is refused before the decoder
// allocates for the count, and so is a dump with bytes after its rows.
func TestDecodeDumpRejectsOversizedCount(t *testing.T) {
	var w rpc.Wire
	w.I64(1).I64(2).I64(3).I64(4).U32(1 << 20) // 36 bytes claiming 1M rows
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, rows, err := DecodeDump(w.Bytes())
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatalf("oversized count decoded into %d rows", len(rows))
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Errorf("refusing a 36-byte dump allocated %d bytes", grew)
	}
	body := append(EncodeDump(StatsSnapshot{Ops: 1}, []DumpRow{{Ino: 5, Parent: 1}}), 0)
	if _, _, err := DecodeDump(body); err == nil {
		t.Error("dump with a trailing byte accepted")
	}
}
