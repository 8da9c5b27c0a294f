package lease

import (
	"slices"
	"strings"
	"testing"
	"time"

	"origami/internal/namespace"
	"origami/internal/telemetry"
)

// listingModel drives a ClientCache for one directory beside a map model
// of what the directory's owner holds. Every mutation on the owner bumps
// its epoch by one, and history keeps the owner's listing at every
// (lease ID, epoch) it went through.
type listingModel struct {
	cc        *ClientCache
	now       time.Time
	id, epoch uint64
	names     map[string]*namespace.Inode
	history   map[[2]uint64][]*namespace.Inode
	lastIno   namespace.Ino
	seeded    bool // the last step admitted a listing under a live grant
}

const modelDir namespace.Ino = 2

func newListingModel() *listingModel {
	m := &listingModel{
		cc:      NewClientCache(telemetry.NewRegistry()),
		now:     time.Unix(5000, 0),
		id:      1,
		names:   make(map[string]*namespace.Inode),
		history: make(map[[2]uint64][]*namespace.Inode),
		lastIno: 100,
	}
	m.cc.SetNow(func() time.Time { return m.now })
	m.record()
	return m
}

func (m *listingModel) grant() Grant {
	return Grant{Dir: modelDir, ID: m.id, Epoch: m.epoch, TTLms: 1000}
}

// listing is the owner's listing now: every entry, in key order.
func (m *listingModel) listing() []*namespace.Inode {
	out := make([]*namespace.Inode, 0, len(m.names))
	for _, in := range m.names {
		out = append(out, in)
	}
	slices.SortFunc(out, func(a, b *namespace.Inode) int { return strings.Compare(a.Name, b.Name) })
	return out
}

func (m *listingModel) record() { m.history[[2]uint64{m.id, m.epoch}] = m.listing() }

func (m *listingModel) inode(name string, typ namespace.FileType) *namespace.Inode {
	m.lastIno++
	return &namespace.Inode{Ino: m.lastIno, Parent: modelDir, Name: name, Type: typ}
}

// mutate binds name to in on the owner (nil unlinks it): one epoch step.
func (m *listingModel) mutate(name string, in *namespace.Inode) {
	if in == nil {
		delete(m.names, name)
	} else {
		m.names[name] = in
	}
	m.epoch++
	m.record()
}

// own is the response of this client's own mutation of name, patched in
// the way the SDK's submit patches it.
func (m *listingModel) own(name string) {
	g := m.grant()
	m.cc.ObserveMutation(g)
	if in := m.names[name]; in != nil {
		m.cc.Put(g, name, in)
	} else if !m.cc.PutNegative(g, name) {
		m.cc.DropEntry(modelDir, name)
	}
}

func (m *listingModel) step(op, arg byte) {
	name := string(rune('a' + arg%6))
	switch op % 12 {
	case 0: // a listing from the owner
		g := m.grant()
		m.cc.Observe(g)
		m.cc.PutListing(g, m.listing())
		m.seeded = true
	case 1: // own create, or own setattr: same ino and type, new attributes
		in := m.inode(name, namespace.TypeFile)
		if old := m.names[name]; old != nil {
			cp := *old
			cp.Size++
			in = &cp
		}
		m.mutate(name, in)
		m.own(name)
	case 2: // own remove
		if m.names[name] != nil {
			m.mutate(name, nil)
			m.own(name)
		}
	case 3: // own rename over name: it binds another ino now
		if m.names[name] != nil {
			m.mutate(name, m.inode(name, namespace.TypeFile))
			m.own(name)
		}
	case 4: // another client's create or remove: nothing reaches this cache
		switch {
		case m.names[name] != nil:
			m.mutate(name, nil)
		case arg&0x80 != 0: // a directory that migrated away: a fake inode
			m.mutate(name, m.inode(name, namespace.TypeFake))
		default:
			m.mutate(name, m.inode(name, namespace.TypeFile))
		}
	case 5: // a resolve of name: a read-path RPC touching the directory
		g := m.grant()
		m.cc.Observe(g)
		if in := m.names[name]; in != nil {
			m.cc.Put(g, name, in)
		} else {
			m.cc.PutNegative(g, name)
		}
	case 6: // a resolve through a fake files the real inode behind it
		if in := m.names[name]; in != nil && in.Type == namespace.TypeFake {
			g := m.grant()
			m.cc.Observe(g)
			real := *in
			real.Type = namespace.TypeDir
			m.cc.Put(g, name, &real)
		}
	case 7: // a response overtaken in flight: grant and data of an earlier epoch
		if m.epoch > 0 {
			g := m.grant()
			g.Epoch = uint64(arg) % m.epoch
			old := m.history[[2]uint64{g.ID, g.Epoch}]
			m.cc.Observe(g)
			if arg&1 == 0 {
				m.cc.PutListing(g, old)
			} else if len(old) > 0 {
				m.cc.Put(g, old[0].Name, old[0])
			}
		}
	case 8: // a dropped entry, as Rename's deferred drops make
		m.cc.DropEntry(modelDir, name)
	case 9: // time passes; the top of the range is past the lease TTL
		m.now = m.now.Add(time.Duration(arg) * 8 * time.Millisecond)
	case 10: // a new lease incarnation: a restart or a revocation
		m.id++
		m.epoch = 0
		m.record()
	case 11: // the SDK forgets the directory, or the whole cache
		if arg&1 == 0 {
			m.cc.Forget(modelDir)
		} else {
			m.cc.Flush()
		}
	}
}

// check asks the cache for the listing. A served listing must be the
// owner's listing at the (ID, epoch) the cache holds — the vouching
// grant, with the client's own mutations applied — entry for entry, in
// key order; a listing just admitted under a live grant must be served.
func (m *listingModel) check(t *testing.T) {
	seeded := m.seeded
	m.seeded = false
	list, ok := m.cc.Listing(modelDir)
	if !ok {
		if seeded {
			t.Fatal("a listing admitted under a live grant is not served")
		}
		return
	}
	d := m.cc.dirs[modelDir]
	want, known := m.history[[2]uint64{d.id, d.epoch}]
	if !known {
		t.Fatalf("a listing is served under (%d, %d), an epoch the owner never had", d.id, d.epoch)
	}
	if len(list) != len(want) {
		t.Fatalf("served %d entries at (%d, %d), the owner listed %d", len(list), d.id, d.epoch, len(want))
	}
	for i, in := range list {
		w := want[i]
		if in.Name != w.Name || in.Ino != w.Ino || in.Type != w.Type {
			t.Fatalf("entry %d at (%d, %d) served as %q ino %d %v, the owner lists %q ino %d %v",
				i, d.id, d.epoch, in.Name, in.Ino, in.Type, w.Name, w.Ino, w.Type)
		}
	}
}

// FuzzListingCoherence runs random PutListing, Put, PutNegative,
// DropEntry, Observe, ObserveMutation, expiry, revocation and Forget
// steps — two bytes each, op and argument — against a ClientCache and a
// map model of the directory, checking after every step that whatever
// listing the cache serves is exactly the owner's at the vouching epoch.
func FuzzListingCoherence(f *testing.F) {
	for _, seed := range [][]byte{
		{0, 0, 1, 1, 2, 0, 1, 2},                 // list, own create, own remove
		{0, 0, 4, 3, 5, 3, 0, 0},                 // a foreign create, seen on a resolve
		{4, 0x81, 0, 0, 6, 1},                    // a listed fake, then its redirect
		{0, 0, 1, 0, 7, 0, 7, 1, 8, 0},           // overtaken responses, a drop
		{0, 0, 9, 200, 0, 0, 10, 0, 5, 0, 11, 1}, // expiry, revocation, flush
		{1, 0, 1, 1, 0, 0, 3, 1, 1, 1, 2, 0},     // rename over, setattr
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, steps []byte) {
		m := newListingModel()
		for i := 0; i+1 < len(steps); i += 2 {
			m.step(steps[i], steps[i+1])
			m.check(t)
		}
	})
}
