package namespace

import (
	"errors"
	"fmt"
	"sort"
)

// Namespace errors. They correspond to the POSIX errno a metadata server
// would return for the equivalent failed operation.
var (
	ErrNotFound = errors.New("namespace: no such file or directory") // ENOENT
	ErrExist    = errors.New("namespace: file exists")               // EEXIST
	ErrNotDir   = errors.New("namespace: not a directory")           // ENOTDIR
	ErrIsDir    = errors.New("namespace: is a directory")            // EISDIR
	ErrNotEmpty = errors.New("namespace: directory not empty")       // ENOTEMPTY
	ErrInvalid  = errors.New("namespace: invalid argument")          // EINVAL
)

type node struct {
	inode    Inode
	children map[string]Ino // non-nil only for directories
}

// Tree is an in-memory hierarchical namespace: an inode table plus the
// directory structure connecting it. It is the authoritative namespace in
// the simulator and the in-memory working set of a single MDS in the
// networked server.
//
// Tree is not safe for concurrent use; callers that share one across
// goroutines must synchronise externally (the discrete-event simulator is
// single-threaded by construction; the TCP server wraps each Tree in its
// own lock).
type Tree struct {
	nodes   map[Ino]*node
	nextIno Ino
}

// NewTree returns a namespace containing only the root directory.
func NewTree() *Tree {
	t := &Tree{nodes: make(map[Ino]*node), nextIno: RootIno + 1}
	t.nodes[RootIno] = &node{
		inode: Inode{
			Ino:   RootIno,
			Name:  "",
			Type:  TypeDir,
			Mode:  0o755,
			Nlink: 2,
		},
		children: make(map[string]Ino),
	}
	return t
}

// NumInodes returns the total number of inodes, including the root.
func (t *Tree) NumInodes() int { return len(t.nodes) }

// Get returns the inode with the given number.
func (t *Tree) Get(ino Ino) (*Inode, error) {
	n, ok := t.nodes[ino]
	if !ok {
		return nil, fmt.Errorf("ino %d: %w", ino, ErrNotFound)
	}
	return &n.inode, nil
}

// Lookup resolves one path component: the child of parent named name.
func (t *Tree) Lookup(parent Ino, name string) (*Inode, error) {
	pn, ok := t.nodes[parent]
	if !ok {
		return nil, fmt.Errorf("parent ino %d: %w", parent, ErrNotFound)
	}
	if !pn.inode.IsDir() {
		return nil, fmt.Errorf("lookup %q in ino %d: %w", name, parent, ErrNotDir)
	}
	ci, ok := pn.children[name]
	if !ok {
		return nil, fmt.Errorf("lookup %q in ino %d: %w", name, parent, ErrNotFound)
	}
	return &t.nodes[ci].inode, nil
}

// Create inserts a new child entry under parent. It returns the new inode.
func (t *Tree) Create(parent Ino, name string, typ FileType, now int64) (*Inode, error) {
	if name == "" {
		return nil, fmt.Errorf("create: empty name: %w", ErrInvalid)
	}
	pn, ok := t.nodes[parent]
	if !ok {
		return nil, fmt.Errorf("create %q: parent ino %d: %w", name, parent, ErrNotFound)
	}
	if !pn.inode.IsDir() {
		return nil, fmt.Errorf("create %q in ino %d: %w", name, parent, ErrNotDir)
	}
	if _, ok := pn.children[name]; ok {
		return nil, fmt.Errorf("create %q in ino %d: %w", name, parent, ErrExist)
	}
	ino := t.nextIno
	t.nextIno++
	n := &node{inode: Inode{
		Ino:    ino,
		Parent: parent,
		Name:   name,
		Type:   typ,
		Mode:   0o644,
		Nlink:  1,
		Atime:  now,
		Mtime:  now,
		Ctime:  now,
	}}
	if typ == TypeDir {
		n.inode.Mode = 0o755
		n.inode.Nlink = 2
		n.children = make(map[string]Ino)
		pn.inode.Nlink++
	}
	t.nodes[ino] = n
	pn.children[name] = ino
	pn.inode.Mtime = now
	pn.inode.Ctime = now
	return &n.inode, nil
}

// Remove deletes the child entry of parent named name. Directories must be
// empty.
func (t *Tree) Remove(parent Ino, name string, now int64) error {
	pn, ok := t.nodes[parent]
	if !ok {
		return fmt.Errorf("remove %q: parent ino %d: %w", name, parent, ErrNotFound)
	}
	ci, ok := pn.children[name]
	if !ok {
		return fmt.Errorf("remove %q in ino %d: %w", name, parent, ErrNotFound)
	}
	cn := t.nodes[ci]
	if cn.inode.IsDir() {
		if len(cn.children) != 0 {
			return fmt.Errorf("remove %q in ino %d: %w", name, parent, ErrNotEmpty)
		}
		pn.inode.Nlink--
	}
	delete(pn.children, name)
	delete(t.nodes, ci)
	pn.inode.Mtime = now
	pn.inode.Ctime = now
	return nil
}

// Rename moves the entry (srcParent, srcName) to (dstParent, dstName). An
// existing destination file is replaced; an existing destination directory
// must be empty.
func (t *Tree) Rename(srcParent Ino, srcName string, dstParent Ino, dstName string, now int64) error {
	if dstName == "" {
		return fmt.Errorf("rename: empty destination name: %w", ErrInvalid)
	}
	sp, ok := t.nodes[srcParent]
	if !ok {
		return fmt.Errorf("rename: source parent ino %d: %w", srcParent, ErrNotFound)
	}
	dp, ok := t.nodes[dstParent]
	if !ok {
		return fmt.Errorf("rename: destination parent ino %d: %w", dstParent, ErrNotFound)
	}
	if !dp.inode.IsDir() {
		return fmt.Errorf("rename into ino %d: %w", dstParent, ErrNotDir)
	}
	si, ok := sp.children[srcName]
	if !ok {
		return fmt.Errorf("rename %q from ino %d: %w", srcName, srcParent, ErrNotFound)
	}
	sn := t.nodes[si]
	// Moving a directory under its own descendant would detach the subtree.
	if sn.inode.IsDir() {
		for anc := dstParent; anc != InvalidIno; {
			if anc == si {
				return fmt.Errorf("rename dir ino %d into its own subtree: %w", si, ErrInvalid)
			}
			if anc == RootIno {
				break
			}
			anc = t.nodes[anc].inode.Parent
		}
	}
	if di, ok := dp.children[dstName]; ok {
		if di == si {
			return nil // rename onto itself is a no-op
		}
		dn := t.nodes[di]
		if dn.inode.IsDir() {
			if !sn.inode.IsDir() {
				return fmt.Errorf("rename file over dir %q: %w", dstName, ErrIsDir)
			}
			if len(dn.children) != 0 {
				return fmt.Errorf("rename over non-empty dir %q: %w", dstName, ErrNotEmpty)
			}
			dp.inode.Nlink--
		} else if sn.inode.IsDir() {
			return fmt.Errorf("rename dir over file %q: %w", dstName, ErrNotDir)
		}
		delete(t.nodes, di)
		delete(dp.children, dstName)
	}
	delete(sp.children, srcName)
	dp.children[dstName] = si
	sn.inode.Parent = dstParent
	sn.inode.Name = dstName
	sn.inode.Ctime = now
	if sn.inode.IsDir() && srcParent != dstParent {
		sp.inode.Nlink--
		dp.inode.Nlink++
	}
	sp.inode.Mtime, dp.inode.Mtime = now, now
	return nil
}

// SetAttr updates mutable attributes (size, mode, times) of an inode.
func (t *Tree) SetAttr(ino Ino, size int64, mode uint16, now int64) error {
	n, ok := t.nodes[ino]
	if !ok {
		return fmt.Errorf("setattr ino %d: %w", ino, ErrNotFound)
	}
	n.inode.Size = size
	n.inode.Mode = mode
	n.inode.Ctime = now
	return nil
}

// Touch updates the access time of an inode; used by read-type operations.
func (t *Tree) Touch(ino Ino, now int64) {
	if n, ok := t.nodes[ino]; ok {
		n.inode.Atime = now
	}
}

// ReadDir returns the direct children of a directory sorted by name.
func (t *Tree) ReadDir(ino Ino) ([]*Inode, error) {
	n, ok := t.nodes[ino]
	if !ok {
		return nil, fmt.Errorf("readdir ino %d: %w", ino, ErrNotFound)
	}
	if !n.inode.IsDir() {
		return nil, fmt.Errorf("readdir ino %d: %w", ino, ErrNotDir)
	}
	names := make([]string, 0, len(n.children))
	for name := range n.children {
		names = append(names, name)
	}
	sort.Strings(names)
	out := make([]*Inode, len(names))
	for i, name := range names {
		out[i] = &t.nodes[n.children[name]].inode
	}
	return out, nil
}

// ForEachChild calls fn for every direct child of a directory, in
// unspecified order. It is cheaper than ReadDir when ordering is
// irrelevant. fn must not mutate the tree.
func (t *Tree) ForEachChild(ino Ino, fn func(*Inode)) {
	n, ok := t.nodes[ino]
	if !ok || n.children == nil {
		return
	}
	for _, ci := range n.children {
		fn(&t.nodes[ci].inode)
	}
}

// ResolvePath walks an absolute path from the root, returning the chain of
// inodes visited including the root: for "/a/b" it returns [root, a, b].
func (t *Tree) ResolvePath(path string) ([]*Inode, error) {
	comps := SplitPath(path)
	chain := make([]*Inode, 0, len(comps)+1)
	cur := RootIno
	chain = append(chain, &t.nodes[RootIno].inode)
	for _, c := range comps {
		in, err := t.Lookup(cur, c)
		if err != nil {
			return nil, fmt.Errorf("resolve %q: %w", path, err)
		}
		chain = append(chain, in)
		cur = in.Ino
	}
	return chain, nil
}

// PathOf reconstructs the absolute path of an inode by walking up to the
// root.
func (t *Tree) PathOf(ino Ino) (string, error) {
	if ino == RootIno {
		return "/", nil
	}
	var comps []string
	for cur := ino; cur != RootIno; {
		n, ok := t.nodes[cur]
		if !ok {
			return "", fmt.Errorf("ino %d: %w", cur, ErrNotFound)
		}
		comps = append(comps, n.inode.Name)
		cur = n.inode.Parent
	}
	for i, j := 0, len(comps)-1; i < j; i, j = i+1, j-1 {
		comps[i], comps[j] = comps[j], comps[i]
	}
	return JoinPath(comps), nil
}

// DepthOf returns the depth of an inode: 0 for the root, 1 for its
// children, and so on.
func (t *Tree) DepthOf(ino Ino) (int, error) {
	d := 0
	for cur := ino; cur != RootIno; {
		n, ok := t.nodes[cur]
		if !ok {
			return 0, fmt.Errorf("ino %d: %w", cur, ErrNotFound)
		}
		cur = n.inode.Parent
		d++
	}
	return d, nil
}

// AncestorChain returns the inode numbers from the root down to ino
// inclusive: [root, ..., parent, ino].
func (t *Tree) AncestorChain(ino Ino) ([]Ino, error) {
	var rev []Ino
	for cur := ino; ; {
		rev = append(rev, cur)
		if cur == RootIno {
			break
		}
		n, ok := t.nodes[cur]
		if !ok {
			return nil, fmt.Errorf("ino %d: %w", cur, ErrNotFound)
		}
		cur = n.inode.Parent
	}
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev, nil
}
