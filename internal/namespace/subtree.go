package namespace

// SubtreeStats aggregates the namespace-structure statistics of one
// directory subtree. These are the structural half of the Table-1 feature
// set: depth, number of sub-files, and number of sub-directories.
type SubtreeStats struct {
	Root     Ino
	Depth    int // depth of the subtree root below "/"
	Files    int // regular files anywhere in the subtree
	Dirs     int // directories in the subtree, including the root itself
	MaxDepth int // deepest entry, relative to the subtree root
}

// Inodes returns the total number of inodes in the subtree.
func (s SubtreeStats) Inodes() int { return s.Files + s.Dirs }

// WalkSubtree performs a pre-order depth-first traversal of the subtree
// rooted at root, calling fn for every inode (including root) with its
// depth relative to root. fn returning false prunes descent into that
// directory. fn must not mutate the tree during the walk.
func (t *Tree) WalkSubtree(root Ino, fn func(in *Inode, relDepth int) bool) error {
	rn, ok := t.nodes[root]
	if !ok {
		return ErrNotFound
	}
	type frame struct {
		ino   Ino
		depth int
	}
	stack := []frame{{root, 0}}
	// Guard against fn observing a stale first node.
	_ = rn
	for len(stack) > 0 {
		f := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		n := t.nodes[f.ino]
		if n == nil {
			continue
		}
		if !fn(&n.inode, f.depth) {
			continue
		}
		for _, ci := range n.children {
			stack = append(stack, frame{ci, f.depth + 1})
		}
	}
	return nil
}

// StatsOf computes the aggregate statistics of the subtree rooted at root.
func (t *Tree) StatsOf(root Ino) (SubtreeStats, error) {
	depth, err := t.DepthOf(root)
	if err != nil {
		return SubtreeStats{}, err
	}
	s := SubtreeStats{Root: root, Depth: depth}
	err = t.WalkSubtree(root, func(in *Inode, rel int) bool {
		if rel > s.MaxDepth {
			s.MaxDepth = rel
		}
		if in.IsDir() {
			s.Dirs++
		} else {
			s.Files++
		}
		return true
	})
	return s, err
}

// DirList returns the inode numbers of every directory in the tree, in
// unspecified order. Balancing strategies use this as the candidate set of
// migratable subtree roots.
func (t *Tree) DirList() []Ino {
	out := make([]Ino, 0, len(t.nodes)/4)
	for ino, n := range t.nodes {
		if n.inode.IsDir() {
			out = append(out, ino)
		}
	}
	return out
}

// IsAncestor reports whether a is an ancestor of b (or equal to it).
func (t *Tree) IsAncestor(a, b Ino) bool {
	for cur := b; ; {
		if cur == a {
			return true
		}
		if cur == RootIno {
			return false
		}
		n, ok := t.nodes[cur]
		if !ok {
			return false
		}
		cur = n.inode.Parent
	}
}
