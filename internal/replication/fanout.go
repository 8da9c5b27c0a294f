package replication

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"sync"

	"origami/internal/kvstore"
	"origami/internal/mds"
	"origami/internal/namespace"
)

// Fanout multiplexes a store's single kvstore commit-hook slot across
// replication units: the whole-store ring backup (unit 0) plus any
// number of subtree units, each fanning out to its own set of replica
// streams. The hook observes every committed WAL record once, in
// WAL order; the ring shipper gets it as it is, and each subtree unit the
// part of it that falls inside the unit's subtree, still as one record.
// Per-unit Shippers then buffer and ship independently, so a slow
// subtree stream never stalls the ring backup (or vice versa).
type Fanout struct {
	store *mds.Store

	mu    sync.RWMutex
	ring  *Shipper
	units map[uint64]*fanUnit
}

// fanUnit is one subtree unit: a membership filter shared by every
// replica stream of the unit.
type fanUnit struct {
	root     namespace.Ino
	filter   *subtreeFilter
	shippers map[int]*Shipper // keyed by replica-host MDS id
}

// NewFanout creates a fanout for store. Call Start to take the commit
// hook; attach units before or after.
func NewFanout(store *mds.Store) *Fanout {
	return &Fanout{store: store, units: make(map[uint64]*fanUnit)}
}

// Start installs the fanout as the store's commit hook.
func (f *Fanout) Start() { f.store.SetCommitHook(f.hook) }

// Stop releases the hook and stops every attached shipper (ring
// included; Shipper.Stop is idempotent, so an owner stopping its ring
// shipper again is harmless).
func (f *Fanout) Stop() {
	f.store.SetCommitHook(nil)
	f.mu.Lock()
	ring := f.ring
	f.ring = nil
	var shippers []*Shipper
	for id, u := range f.units {
		for _, sh := range u.shippers {
			shippers = append(shippers, sh)
		}
		delete(f.units, id)
	}
	f.mu.Unlock()
	if ring != nil {
		ring.Stop()
	}
	for _, sh := range shippers {
		sh.Stop()
	}
}

// AttachRing registers the whole-store shipper as unit 0 and starts its
// sender. The shipper must have been created with Unit 0; it keeps its
// repl.shipper.* metric names and promote semantics.
func (f *Fanout) AttachRing(sh *Shipper) {
	f.mu.Lock()
	f.ring = sh
	f.mu.Unlock()
	sh.start()
}

// AttachSubtree adds one replica stream for the subtree rooted at root,
// shipping to opts.Backup. The unit's membership filter is seeded before
// the stream starts: first the root alone (so the live hook immediately
// captures ops anywhere a racing create could land only after its
// parent directory's own op passed the filter), then a subtree walk
// merges every existing directory. Ops committed before the walk
// reaches their directory are covered by the snapshot each stream
// bootstraps from — the walk and the snapshot run after registration, so
// nothing falls between filter and snapshot.
func (f *Fanout) AttachSubtree(root namespace.Ino, opts Options) (*Shipper, error) {
	if root == 0 {
		return nil, fmt.Errorf("replication: subtree unit needs a root inode")
	}
	f.mu.RLock()
	u := f.units[uint64(root)]
	f.mu.RUnlock()
	if u == nil {
		rootIn, ok, err := f.store.Getattr(root)
		if err != nil {
			return nil, err
		}
		if !ok {
			return nil, fmt.Errorf("replication: subtree root %d not on primary %d", root, opts.Primary)
		}
		flt := &subtreeFilter{
			dirs:    map[namespace.Ino]bool{root: true},
			rootKey: namespace.EncodeKey(rootIn.Parent, rootIn.Name),
		}
		f.mu.Lock()
		if cur := f.units[uint64(root)]; cur != nil {
			u = cur // lost an attach race; use the live unit
		} else {
			u = &fanUnit{root: root, filter: flt, shippers: make(map[int]*Shipper)}
			f.units[uint64(root)] = u
		}
		f.mu.Unlock()
		if u.filter == flt {
			ins, err := f.store.CollectSubtree(root)
			if err != nil {
				f.mu.Lock()
				delete(f.units, uint64(root))
				f.mu.Unlock()
				return nil, err
			}
			var dirs []namespace.Ino
			for _, in := range ins {
				if in.IsDir() {
					dirs = append(dirs, in.Ino)
				}
			}
			flt.addDirs(dirs)
		}
	}
	opts.Unit = uint64(root)
	if opts.Snapshot == nil {
		opts.Snapshot = func(emit func(k, v []byte) bool) error {
			return f.store.SnapshotSubtree(root, emit)
		}
	}
	sh := NewShipper(f.store, opts)
	f.mu.Lock()
	old := u.shippers[opts.Backup]
	u.shippers[opts.Backup] = sh
	f.mu.Unlock()
	if old != nil {
		old.Stop()
	}
	sh.start()
	return sh, nil
}

// DropSubtree stops every stream of the unit and removes it.
func (f *Fanout) DropSubtree(root namespace.Ino) {
	f.mu.Lock()
	u := f.units[uint64(root)]
	delete(f.units, uint64(root))
	f.mu.Unlock()
	if u == nil {
		return
	}
	for _, sh := range u.shippers {
		sh.Stop()
	}
}

// Units returns the root inodes of the attached subtree units.
func (f *Fanout) Units() []namespace.Ino {
	f.mu.RLock()
	defer f.mu.RUnlock()
	out := make([]namespace.Ino, 0, len(f.units))
	for _, u := range f.units {
		out = append(out, u.root)
	}
	return out
}

// hook is the store commit hook: runs under the DB write lock, so it
// must not take store locks. Unit filtering and shipper feeds only touch
// their own mutexes.
func (f *Fanout) hook(ctx context.Context, ops []byte, n int) func() error {
	f.mu.RLock()
	var ringWait func() error
	if f.ring != nil {
		ringWait = f.ring.Feed(ctx, ops, n)
	}
	var waits []func() error // subtree units' waits; a ring-only hook allocates none
	for _, u := range f.units {
		if sub, subN := u.filter.apply(ops, n); subN > 0 {
			for _, sh := range u.shippers {
				if w := sh.Feed(ctx, sub, subN); w != nil {
					waits = append(waits, w)
				}
			}
		}
	}
	f.mu.RUnlock()
	if len(waits) == 0 {
		return ringWait
	}
	if ringWait != nil {
		waits = append(waits, ringWait)
	}
	return func() error {
		var err error
		for _, w := range waits {
			if werr := w(); err == nil {
				err = werr
			}
		}
		return err
	}
}

// subtreeFilter decides, lock-free with respect to the store, which ops
// of a WAL record belong to one subtree: a (parent, name) op is a member
// when its parent directory is in the set, or it is the subtree root's
// own entry. Directory creates under a member parent grow the set in WAL
// order, so descendants created after attachment are tracked without
// ever walking the store from the hook. Inode numbers are never reused,
// so entries for since-deleted directories are harmless. Known
// limitation: a directory renamed *into* the subtree brings only itself
// — children it already had are missed until the next session; replica
// membership probes fail for them and reads fall back to the owner, so
// correctness is preserved.
type subtreeFilter struct {
	mu      sync.Mutex
	dirs    map[namespace.Ino]bool
	rootKey []byte
}

// apply returns the part of a record inside the subtree — still one
// record, so the stream never splits one across frames — updating the
// directory set as directory entries stream past. A record wholly inside
// comes back as it is.
func (f *subtreeFilter) apply(ops []byte, n int) ([]byte, int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	var b kvstore.Batch
	kvstore.ForEachOp(ops, n, func(key, value []byte, tombstone bool) {
		switch {
		case !f.admit(key, value, tombstone):
		case tombstone:
			b.Delete(key)
		default:
			b.Put(key, value)
		}
	})
	if b.Len() == n {
		return ops, n
	}
	return b.Ops()
}

// admit reports whether one op is inside the subtree, adding a member
// directory it creates to the set. Caller holds mu.
func (f *subtreeFilter) admit(key, value []byte, tombstone bool) bool {
	if len(key) < 8 || key[0] == 0xff { // store-internal metadata, not a (parent, name) key
		return false
	}
	if !f.dirs[namespace.Ino(binary.BigEndian.Uint64(key))] && !bytes.Equal(key, f.rootKey) {
		return false
	}
	if !tombstone {
		var in namespace.Inode
		if _, err := namespace.DecodeInodeInto(&in, value); err == nil && in.IsDir() {
			f.dirs[in.Ino] = true
		}
	}
	return true
}

// addDirs merges a walked directory set (attachment backfill).
func (f *subtreeFilter) addDirs(inos []namespace.Ino) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, ino := range inos {
		f.dirs[ino] = true
	}
}
