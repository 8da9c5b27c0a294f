package namespace

import (
	"testing"

	"origami/internal/racedetect"
)

// TestCodecAllocBudget: the append-style encoders and the decode-into
// form exist so a metadata server checks parents and victims on its
// stack. None of them may allocate given a buffer with room.
func TestCodecAllocBudget(t *testing.T) {
	if racedetect.Enabled {
		t.Skip("allocation counts do not hold under the race detector")
	}
	in := &Inode{Ino: 7, Parent: 2, Name: "file00000042", Type: TypeFile, Mode: 0o644, Nlink: 1}
	rec := EncodeInode(in)
	var kb [72]byte
	var vb [160]byte
	var out Inode
	for name, fn := range map[string]func(){
		"AppendKey":       func() { _ = AppendKey(kb[:0], in.Parent, in.Name) },
		"AppendInode":     func() { _ = AppendInode(vb[:0], in) },
		"DecodeInodeInto": func() { _, _ = DecodeInodeInto(&out, rec) },
		"ParentPath":      func() { _, _ = ParentPath("/cs/w0/t00000042") },
		"NextComponent":   func() { _, _, _ = NextComponent("/cs/w0/t00000042", 3) },
	} {
		if got := testing.AllocsPerRun(200, fn); got != 0 {
			t.Errorf("%s allocates %.1f objects, want 0", name, got)
		}
	}
	if out.Ino != in.Ino || out.Mode != in.Mode {
		t.Errorf("DecodeInodeInto = %+v, want the fields of %+v", out, in)
	}
}
