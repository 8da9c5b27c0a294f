package namespace

import (
	"errors"
	"testing"
)

func mustCreate(t *testing.T, tr *Tree, parent Ino, name string, typ FileType) *Inode {
	t.Helper()
	in, err := tr.Create(parent, name, typ, 0)
	if err != nil {
		t.Fatalf("Create(%d, %q): %v", parent, name, err)
	}
	return in
}

// buildSample builds /a/{b/{f1,f2}, c/f3} and returns the tree plus
// interesting inodes.
func buildSample(t *testing.T) (*Tree, map[string]Ino) {
	t.Helper()
	tr := NewTree()
	a := mustCreate(t, tr, RootIno, "a", TypeDir)
	b := mustCreate(t, tr, a.Ino, "b", TypeDir)
	c := mustCreate(t, tr, a.Ino, "c", TypeDir)
	f1 := mustCreate(t, tr, b.Ino, "f1", TypeFile)
	f2 := mustCreate(t, tr, b.Ino, "f2", TypeFile)
	f3 := mustCreate(t, tr, c.Ino, "f3", TypeFile)
	return tr, map[string]Ino{
		"a": a.Ino, "b": b.Ino, "c": c.Ino,
		"f1": f1.Ino, "f2": f2.Ino, "f3": f3.Ino,
	}
}

func TestNewTreeHasRoot(t *testing.T) {
	tr := NewTree()
	if tr.NumInodes() != 1 {
		t.Fatalf("NumInodes = %d, want 1", tr.NumInodes())
	}
	root, err := tr.Get(RootIno)
	if err != nil {
		t.Fatalf("Get(root): %v", err)
	}
	if !root.IsDir() {
		t.Errorf("root is not a directory: %v", root)
	}
}

func TestCreateAndLookup(t *testing.T) {
	tr, m := buildSample(t)
	in, err := tr.Lookup(m["b"], "f1")
	if err != nil {
		t.Fatalf("Lookup: %v", err)
	}
	if in.Ino != m["f1"] {
		t.Errorf("Lookup got ino %d, want %d", in.Ino, m["f1"])
	}
	if in.Type != TypeFile {
		t.Errorf("Lookup type = %v, want file", in.Type)
	}
}

func TestCreateDuplicateFails(t *testing.T) {
	tr, m := buildSample(t)
	if _, err := tr.Create(m["b"], "f1", TypeFile, 0); !errors.Is(err, ErrExist) {
		t.Errorf("duplicate create err = %v, want ErrExist", err)
	}
}

func TestCreateInFileFails(t *testing.T) {
	tr, m := buildSample(t)
	if _, err := tr.Create(m["f1"], "x", TypeFile, 0); !errors.Is(err, ErrNotDir) {
		t.Errorf("create in file err = %v, want ErrNotDir", err)
	}
}

func TestCreateEmptyNameFails(t *testing.T) {
	tr := NewTree()
	if _, err := tr.Create(RootIno, "", TypeFile, 0); !errors.Is(err, ErrInvalid) {
		t.Errorf("create empty name err = %v, want ErrInvalid", err)
	}
}

func TestCreateInMissingParentFails(t *testing.T) {
	tr := NewTree()
	if _, err := tr.Create(9999, "x", TypeFile, 0); !errors.Is(err, ErrNotFound) {
		t.Errorf("create under missing parent err = %v, want ErrNotFound", err)
	}
}

func TestLookupMissing(t *testing.T) {
	tr, m := buildSample(t)
	if _, err := tr.Lookup(m["b"], "nope"); !errors.Is(err, ErrNotFound) {
		t.Errorf("missing lookup err = %v, want ErrNotFound", err)
	}
}

func TestRemoveFile(t *testing.T) {
	tr, m := buildSample(t)
	if err := tr.Remove(m["b"], "f1", 1); err != nil {
		t.Fatalf("Remove: %v", err)
	}
	if _, err := tr.Lookup(m["b"], "f1"); !errors.Is(err, ErrNotFound) {
		t.Errorf("lookup after remove err = %v, want ErrNotFound", err)
	}
	if _, err := tr.Get(m["f1"]); !errors.Is(err, ErrNotFound) {
		t.Errorf("Get after remove err = %v, want ErrNotFound", err)
	}
}

func TestRemoveNonEmptyDirFails(t *testing.T) {
	tr, m := buildSample(t)
	if err := tr.Remove(m["a"], "b", 1); !errors.Is(err, ErrNotEmpty) {
		t.Errorf("remove non-empty dir err = %v, want ErrNotEmpty", err)
	}
}

func TestRemoveEmptyDir(t *testing.T) {
	tr, m := buildSample(t)
	if err := tr.Remove(m["b"], "f1", 1); err != nil {
		t.Fatal(err)
	}
	if err := tr.Remove(m["b"], "f2", 1); err != nil {
		t.Fatal(err)
	}
	if err := tr.Remove(m["a"], "b", 1); err != nil {
		t.Errorf("remove empty dir: %v", err)
	}
}

func TestRenameFile(t *testing.T) {
	tr, m := buildSample(t)
	if err := tr.Rename(m["b"], "f1", m["c"], "f1moved", 1); err != nil {
		t.Fatalf("Rename: %v", err)
	}
	in, err := tr.Lookup(m["c"], "f1moved")
	if err != nil {
		t.Fatalf("Lookup after rename: %v", err)
	}
	if in.Ino != m["f1"] {
		t.Errorf("renamed ino = %d, want %d", in.Ino, m["f1"])
	}
	if in.Parent != m["c"] {
		t.Errorf("renamed parent = %d, want %d", in.Parent, m["c"])
	}
	if _, err := tr.Lookup(m["b"], "f1"); !errors.Is(err, ErrNotFound) {
		t.Errorf("old name still resolves")
	}
}

func TestRenameDirIntoOwnSubtreeFails(t *testing.T) {
	tr, m := buildSample(t)
	if err := tr.Rename(RootIno, "a", m["b"], "a2", 1); !errors.Is(err, ErrInvalid) {
		t.Errorf("rename into own subtree err = %v, want ErrInvalid", err)
	}
}

func TestRenameOverExistingFile(t *testing.T) {
	tr, m := buildSample(t)
	if err := tr.Rename(m["b"], "f1", m["b"], "f2", 1); err != nil {
		t.Fatalf("Rename over file: %v", err)
	}
	if _, err := tr.Get(m["f2"]); !errors.Is(err, ErrNotFound) {
		t.Errorf("replaced inode still present")
	}
	in, err := tr.Lookup(m["b"], "f2")
	if err != nil || in.Ino != m["f1"] {
		t.Errorf("lookup f2 after replace: in=%v err=%v", in, err)
	}
}

func TestRenameDirOverNonEmptyDirFails(t *testing.T) {
	tr, m := buildSample(t)
	if err := tr.Rename(m["a"], "b", m["a"], "c", 1); !errors.Is(err, ErrNotEmpty) {
		t.Errorf("rename over non-empty dir err = %v, want ErrNotEmpty", err)
	}
}

func TestRenameOntoItselfNoop(t *testing.T) {
	tr, m := buildSample(t)
	if err := tr.Rename(m["b"], "f1", m["b"], "f1", 1); err != nil {
		t.Errorf("self rename: %v", err)
	}
	if _, err := tr.Lookup(m["b"], "f1"); err != nil {
		t.Errorf("self rename lost entry: %v", err)
	}
}

func TestResolvePath(t *testing.T) {
	tr, m := buildSample(t)
	chain, err := tr.ResolvePath("/a/b/f1")
	if err != nil {
		t.Fatalf("ResolvePath: %v", err)
	}
	if len(chain) != 4 {
		t.Fatalf("chain length = %d, want 4", len(chain))
	}
	want := []Ino{RootIno, m["a"], m["b"], m["f1"]}
	for i, in := range chain {
		if in.Ino != want[i] {
			t.Errorf("chain[%d] = %d, want %d", i, in.Ino, want[i])
		}
	}
}

func TestResolvePathMissing(t *testing.T) {
	tr, _ := buildSample(t)
	if _, err := tr.ResolvePath("/a/zzz/f1"); !errors.Is(err, ErrNotFound) {
		t.Errorf("resolve missing err = %v, want ErrNotFound", err)
	}
}

func TestPathOfRoundTrip(t *testing.T) {
	tr, m := buildSample(t)
	for name, ino := range m {
		p, err := tr.PathOf(ino)
		if err != nil {
			t.Fatalf("PathOf(%s): %v", name, err)
		}
		chain, err := tr.ResolvePath(p)
		if err != nil {
			t.Fatalf("ResolvePath(%q): %v", p, err)
		}
		if got := chain[len(chain)-1].Ino; got != ino {
			t.Errorf("round trip %q: got ino %d, want %d", p, got, ino)
		}
	}
	if p, _ := tr.PathOf(RootIno); p != "/" {
		t.Errorf("PathOf(root) = %q, want /", p)
	}
}

func TestDepthOf(t *testing.T) {
	tr, m := buildSample(t)
	cases := []struct {
		ino  Ino
		want int
	}{{RootIno, 0}, {m["a"], 1}, {m["b"], 2}, {m["f1"], 3}}
	for _, c := range cases {
		d, err := tr.DepthOf(c.ino)
		if err != nil {
			t.Fatalf("DepthOf(%d): %v", c.ino, err)
		}
		if d != c.want {
			t.Errorf("DepthOf(%d) = %d, want %d", c.ino, d, c.want)
		}
	}
}

func TestReadDirSorted(t *testing.T) {
	tr, m := buildSample(t)
	ents, err := tr.ReadDir(m["a"])
	if err != nil {
		t.Fatalf("ReadDir: %v", err)
	}
	if len(ents) != 2 || ents[0].Name != "b" || ents[1].Name != "c" {
		t.Errorf("ReadDir = %v, want [b c]", ents)
	}
	if _, err := tr.ReadDir(m["f1"]); !errors.Is(err, ErrNotDir) {
		t.Errorf("ReadDir on file err = %v, want ErrNotDir", err)
	}
}

func TestStatsOf(t *testing.T) {
	tr, m := buildSample(t)
	s, err := tr.StatsOf(m["a"])
	if err != nil {
		t.Fatalf("StatsOf: %v", err)
	}
	if s.Files != 3 || s.Dirs != 3 {
		t.Errorf("StatsOf(a) = %+v, want 3 files 3 dirs", s)
	}
	if s.Depth != 1 {
		t.Errorf("Depth = %d, want 1", s.Depth)
	}
	if s.MaxDepth != 2 {
		t.Errorf("MaxDepth = %d, want 2", s.MaxDepth)
	}
	if s.Inodes() != 6 {
		t.Errorf("Inodes = %d, want 6", s.Inodes())
	}
}

func TestWalkSubtreePrune(t *testing.T) {
	tr, m := buildSample(t)
	var seen int
	err := tr.WalkSubtree(m["a"], func(in *Inode, rel int) bool {
		seen++
		return in.Ino != m["b"] // prune b's children
	})
	if err != nil {
		t.Fatalf("WalkSubtree: %v", err)
	}
	// a, b, c, f3 visited; f1, f2 pruned.
	if seen != 4 {
		t.Errorf("visited %d nodes, want 4", seen)
	}
}

func TestIsAncestor(t *testing.T) {
	tr, m := buildSample(t)
	if !tr.IsAncestor(m["a"], m["f1"]) {
		t.Error("a should be ancestor of f1")
	}
	if !tr.IsAncestor(m["b"], m["b"]) {
		t.Error("b should be ancestor of itself")
	}
	if tr.IsAncestor(m["c"], m["f1"]) {
		t.Error("c should not be ancestor of f1")
	}
	if !tr.IsAncestor(RootIno, m["f3"]) {
		t.Error("root should be ancestor of everything")
	}
}

func TestDirList(t *testing.T) {
	tr, _ := buildSample(t)
	dirs := tr.DirList()
	if len(dirs) != 4 { // root, a, b, c
		t.Errorf("DirList = %v, want 4 dirs", dirs)
	}
}

func TestAncestorChain(t *testing.T) {
	tr, m := buildSample(t)
	chain, err := tr.AncestorChain(m["f1"])
	if err != nil {
		t.Fatalf("AncestorChain: %v", err)
	}
	want := []Ino{RootIno, m["a"], m["b"], m["f1"]}
	if len(chain) != len(want) {
		t.Fatalf("chain = %v, want %v", chain, want)
	}
	for i := range want {
		if chain[i] != want[i] {
			t.Errorf("chain[%d] = %d, want %d", i, chain[i], want[i])
		}
	}
}

func TestNlinkMaintenance(t *testing.T) {
	tr := NewTree()
	root, _ := tr.Get(RootIno)
	if root.Nlink != 2 {
		t.Fatalf("fresh root nlink = %d, want 2", root.Nlink)
	}
	d := mustCreate(t, tr, RootIno, "d", TypeDir)
	root, _ = tr.Get(RootIno)
	if root.Nlink != 3 {
		t.Errorf("root nlink after mkdir = %d, want 3", root.Nlink)
	}
	if err := tr.Remove(RootIno, "d", 0); err != nil {
		t.Fatal(err)
	}
	root, _ = tr.Get(RootIno)
	if root.Nlink != 2 {
		t.Errorf("root nlink after rmdir = %d, want 2", root.Nlink)
	}
	_ = d
}

func TestSetAttrAndTouch(t *testing.T) {
	tr, m := buildSample(t)
	if err := tr.SetAttr(m["f1"], 4096, 0o600, 42); err != nil {
		t.Fatalf("SetAttr: %v", err)
	}
	in, _ := tr.Get(m["f1"])
	if in.Size != 4096 || in.Mode != 0o600 || in.Ctime != 42 {
		t.Errorf("SetAttr result = %+v", in)
	}
	tr.Touch(m["f1"], 99)
	in, _ = tr.Get(m["f1"])
	if in.Atime != 99 {
		t.Errorf("Touch atime = %d, want 99", in.Atime)
	}
	if err := tr.SetAttr(12345, 0, 0, 0); !errors.Is(err, ErrNotFound) {
		t.Errorf("SetAttr missing err = %v", err)
	}
}
