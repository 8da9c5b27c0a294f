package namespace

import (
	"bytes"
	"testing"
	"testing/quick"
)

func TestEncodeDecodeKey(t *testing.T) {
	k := EncodeKey(42, "hello")
	parent, name, err := DecodeKey(k)
	if err != nil {
		t.Fatalf("DecodeKey: %v", err)
	}
	if parent != 42 || name != "hello" {
		t.Errorf("decoded (%d, %q), want (42, hello)", parent, name)
	}
}

func TestDecodeKeyTooShort(t *testing.T) {
	if _, _, err := DecodeKey([]byte{1, 2, 3}); err == nil {
		t.Error("DecodeKey on short key should fail")
	}
}

func TestKeyOrderingGroupsSiblings(t *testing.T) {
	// All children of dir 5 must sort inside the directory's scan range.
	lo, hi := EncodeKey(5, ""), EncodeKey(6, "")
	for _, name := range []string{"", "a", "zzzz", "\xff\xff"} {
		k := EncodeKey(5, name)
		if bytes.Compare(k, lo) < 0 || bytes.Compare(k, hi) >= 0 {
			t.Errorf("key (5, %q) outside dir range", name)
		}
	}
	other := EncodeKey(6, "a")
	if bytes.Compare(other, hi) < 0 {
		t.Errorf("key of dir 6 sorts inside dir 5's range")
	}
}

func TestKeyRoundTripProperty(t *testing.T) {
	f := func(parent uint64, name string) bool {
		p, n, err := DecodeKey(EncodeKey(Ino(parent), name))
		return err == nil && p == Ino(parent) && n == name
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestEncodeDecodeInode(t *testing.T) {
	in := &Inode{
		Ino: 7, Parent: 3, Name: "report.txt", Type: TypeFile,
		Mode: 0o640, Uid: 1000, Gid: 100, Size: 123456, Nlink: 1,
		Atime: 10, Mtime: 20, Ctime: 30,
	}
	got, err := DecodeInode(EncodeInode(in))
	if err != nil {
		t.Fatalf("DecodeInode: %v", err)
	}
	if *got != *in {
		t.Errorf("round trip mismatch:\n got %+v\nwant %+v", got, in)
	}
}

func TestDecodeInodeCorrupt(t *testing.T) {
	if _, err := DecodeInode([]byte{1, 2, 3}); err == nil {
		t.Error("short record should fail")
	}
	in := &Inode{Ino: 1, Name: "abc"}
	enc := EncodeInode(in)
	if _, err := DecodeInode(enc[:len(enc)-2]); err == nil {
		t.Error("truncated name should fail")
	}
}

func TestInodeRoundTripProperty(t *testing.T) {
	f := func(ino, parent uint64, name string, size int64, mode uint16) bool {
		in := &Inode{
			Ino: Ino(ino), Parent: Ino(parent), Name: name,
			Type: TypeDir, Mode: mode, Size: size,
		}
		got, err := DecodeInode(EncodeInode(in))
		return err == nil && *got == *in
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
