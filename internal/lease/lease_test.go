package lease

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"origami/internal/namespace"
	"origami/internal/rpc"
	"origami/internal/telemetry"
)

func mkInode(ino namespace.Ino) *namespace.Inode {
	return &namespace.Inode{Ino: ino, Type: namespace.TypeFile}
}

func TestTableGrantBumpExpiry(t *testing.T) {
	reg := telemetry.NewRegistry()
	tb := NewTable(reg, 100*time.Millisecond)
	now := time.Unix(1000, 0)
	tb.SetNow(func() time.Time { return now })

	g1 := tb.Grant(7)
	if g1.Dir != 7 || g1.ID == 0 || g1.Epoch != 0 {
		t.Fatalf("fresh grant = %+v", g1)
	}
	if g1.TTLms != 100 {
		t.Fatalf("ttl ms = %d, want 100", g1.TTLms)
	}
	if g2 := tb.Grant(7); g2.ID != g1.ID || g2.Epoch != 0 {
		t.Fatalf("re-grant changed lease: %+v vs %+v", g2, g1)
	}
	if reg.Counter("mds.lease.granted").Value() != 1 {
		t.Fatalf("granted counter = %d, want 1", reg.Counter("mds.lease.granted").Value())
	}

	tb.Bump(7)
	tb.Bump(7)
	if g := tb.Grant(7); g.Epoch != 2 {
		t.Fatalf("epoch after two bumps = %d, want 2", g.Epoch)
	}
	tb.Bump(99) // untracked: must not materialize an entry
	if _, ok := tb.Epoch(99); ok {
		t.Fatal("bump of untracked dir created an entry")
	}
	if reg.Counter("mds.lease.bumped").Value() != 2 {
		t.Fatalf("bumped counter = %d, want 2", reg.Counter("mds.lease.bumped").Value())
	}

	// Idle past the TTL: the next grant mints a new ID at epoch 0.
	now = now.Add(150 * time.Millisecond)
	g3 := tb.Grant(7)
	if g3.ID == g1.ID || g3.Epoch != 0 {
		t.Fatalf("expired re-grant = %+v, want new ID at epoch 0", g3)
	}
	if reg.Counter("mds.lease.expired").Value() != 1 {
		t.Fatalf("expired counter = %d, want 1", reg.Counter("mds.lease.expired").Value())
	}
}

func TestTableRevokeMintsNewID(t *testing.T) {
	tb := NewTable(telemetry.NewRegistry(), time.Second)
	g1 := tb.Grant(3)
	tb.Bump(3)
	tb.Revoke(3)
	if _, ok := tb.Epoch(3); ok {
		t.Fatal("revoked dir still tracked")
	}
	g2 := tb.Grant(3)
	if g2.ID == g1.ID {
		t.Fatal("revoke did not mint a new lease ID")
	}
	tb.Grant(4)
	tb.Grant(5)
	tb.RevokeSubtree([]namespace.Ino{3, 4, 5})
	if tb.Active() != 0 {
		t.Fatalf("active after subtree revoke = %d, want 0", tb.Active())
	}
}

func TestTableIncarnationsDiffer(t *testing.T) {
	reg := telemetry.NewRegistry()
	a := NewTable(reg, time.Second).Grant(1)
	b := NewTable(reg, time.Second).Grant(1)
	if a.ID == b.ID {
		t.Fatal("two table incarnations minted the same lease ID")
	}
}

func TestClientCacheCoherence(t *testing.T) {
	reg := telemetry.NewRegistry()
	cc := NewClientCache(reg)
	now := time.Unix(2000, 0)
	cc.SetNow(func() time.Time { return now })

	g := Grant{Dir: 7, ID: 42, Epoch: 0, TTLms: 1000}
	cc.Observe(g)
	cc.Put(g, "a", mkInode(11))
	cc.PutNegative(g, "gone")

	if in, neg, ok := cc.Lookup(7, "a"); !ok || neg || in.Ino != 11 {
		t.Fatalf("positive lookup = (%v,%v,%v)", in, neg, ok)
	}
	if _, neg, ok := cc.Lookup(7, "gone"); !ok || !neg {
		t.Fatal("negative entry not served")
	}
	if _, _, ok := cc.Lookup(7, "other"); ok {
		t.Fatal("unknown name served from cache")
	}
	if cc.Entries() != 2 {
		t.Fatalf("entries = %d, want 2", cc.Entries())
	}

	// A foreign epoch step flushes the directory.
	g2 := Grant{Dir: 7, ID: 42, Epoch: 1, TTLms: 1000}
	cc.Observe(g2)
	if _, _, ok := cc.Lookup(7, "a"); ok {
		t.Fatal("entry survived a foreign epoch bump")
	}
	if reg.Counter("client.cache.invalidations").Value() != 2 {
		t.Fatalf("invalidations = %d, want 2", reg.Counter("client.cache.invalidations").Value())
	}

	// A Put vouched by an overtaken grant is rejected, and observing
	// the stale grant itself is a no-op.
	cc.Put(g, "a", mkInode(11))
	if _, _, ok := cc.Lookup(7, "a"); ok {
		t.Fatal("entry admitted under an overtaken grant")
	}
	cc.Observe(g)
	cc.Put(g, "a", mkInode(11))
	if _, _, ok := cc.Lookup(7, "a"); ok {
		t.Fatal("epoch regressed to an overtaken grant")
	}

	// A new lease ID flushes too.
	cc.Put(g2, "a", mkInode(11))
	g3 := Grant{Dir: 7, ID: 99, Epoch: 1, TTLms: 1000}
	cc.Observe(g3)
	if _, _, ok := cc.Lookup(7, "a"); ok {
		t.Fatal("entry survived a lease ID change")
	}
}

func TestClientCacheOwnMutationKeepsEntries(t *testing.T) {
	cc := NewClientCache(telemetry.NewRegistry())
	g5 := Grant{Dir: 7, ID: 42, Epoch: 5, TTLms: 1000}
	cc.Observe(g5)
	cc.Put(g5, "old", mkInode(11))

	// The bump caused by our own create: epoch+1 adopts without a flush.
	g6 := Grant{Dir: 7, ID: 42, Epoch: 6, TTLms: 1000}
	cc.ObserveMutation(g6)
	cc.Put(g6, "new", mkInode(12))
	if _, _, ok := cc.Lookup(7, "old"); !ok {
		t.Fatal("own mutation flushed sibling entries")
	}
	if _, _, ok := cc.Lookup(7, "new"); !ok {
		t.Fatal("new entry not cached after own mutation")
	}

	// Two steps means someone else mutated concurrently: flush.
	cc.ObserveMutation(Grant{Dir: 7, ID: 42, Epoch: 8, TTLms: 1000})
	if _, _, ok := cc.Lookup(7, "old"); ok {
		t.Fatal("entry survived a concurrent foreign mutation")
	}
}

// TestClientCachePutListing: a listing is admitted or refused whole by
// the grant that rode it, replaces cached negatives for its names, and is
// served by pointer — the inodes the caller handed in, not copies.
func TestClientCachePutListing(t *testing.T) {
	cc := NewClientCache(telemetry.NewRegistry())
	g := Grant{Dir: 2, ID: 1, Epoch: 5, TTLms: 60_000}
	cc.Observe(g)
	cc.PutNegative(g, "b")
	a, b := mkInode(11), mkInode(12)
	a.Name, b.Name = "a", "b"
	stale := g
	stale.Epoch = 4
	cc.PutListing(stale, []*namespace.Inode{a, b})
	if _, _, ok := cc.Lookup(2, "a"); ok {
		t.Fatal("a listing under an overtaken grant was admitted")
	}
	cc.PutListing(g, []*namespace.Inode{a, b})
	for _, want := range []*namespace.Inode{a, b} {
		got, neg, ok := cc.Lookup(2, want.Name)
		if !ok || neg || got != want {
			t.Errorf("Lookup(%q) = %p neg=%v ok=%v, want the seeded %p", want.Name, got, neg, ok, want)
		}
	}
	if got := cc.Entries(); got != 2 {
		t.Errorf("Entries = %d, want 2 (the negative for b replaced)", got)
	}
}

func TestClientCacheTTLExpiry(t *testing.T) {
	cc := NewClientCache(telemetry.NewRegistry())
	now := time.Unix(3000, 0)
	cc.SetNow(func() time.Time { return now })
	g := Grant{Dir: 7, ID: 42, Epoch: 0, TTLms: 100}
	cc.Observe(g)
	cc.Put(g, "a", mkInode(11))
	now = now.Add(150 * time.Millisecond)
	if _, _, ok := cc.Lookup(7, "a"); ok {
		t.Fatal("entry served past its lease TTL")
	}
	// Put without a live lease must not cache.
	cc.Put(g, "b", mkInode(12))
	if cc.Entries() != 0 {
		t.Fatalf("entries = %d, want 0 after expiry", cc.Entries())
	}
}

// An idle fork must not hold its entries forever: a cache holds nothing
// it could no longer serve, and it is a sibling's traffic that enforces
// it. The shared gauge is the sum over the group's caches throughout.
func TestIdleForkReleasesEntries(t *testing.T) {
	reg := telemetry.NewRegistry()
	root := NewClientCache(reg)
	idle, busy := root.Fork(), root.Fork()
	now := time.Unix(4000, 0)
	clock := func() time.Time { return now }
	for _, c := range []*ClientCache{root, idle, busy} {
		c.SetNow(clock)
	}
	gauge := reg.Gauge("cache.entries.active")
	const ttl = 2 * time.Second

	// Warm the idle fork: 100 directories x 100 names.
	for dir := 0; dir < 100; dir++ {
		g := Grant{Dir: namespace.Ino(10 + dir), ID: 1, TTLms: uint32(ttl / time.Millisecond)}
		idle.Observe(g)
		for i := 0; i < 100; i++ {
			idle.Put(g, fmt.Sprintf("f%03d", i), mkInode(namespace.Ino(1000+i)))
		}
	}
	gBusy := Grant{Dir: 5, ID: 2, TTLms: uint32(ttl / time.Millisecond)}
	busy.Observe(gBusy)
	busy.Put(gBusy, "x", mkInode(7))
	busy.PutNegative(gBusy, "y")
	if idle.Entries() != 10000 || busy.Entries() != 2 {
		t.Fatalf("warm: idle %d busy %d entries, want 10000 and 2", idle.Entries(), busy.Entries())
	}
	if got := gauge.Value(); got != 10002 {
		t.Fatalf("gauge = %v after warming, want the sum 10002", got)
	}

	// Inside the lease a sibling's traffic drops nothing.
	now = now.Add(ttl / 2)
	busy.Observe(gBusy)
	if idle.Entries() != 10000 {
		t.Fatalf("idle fork lost entries %v after its last call, inside its leases", ttl/2)
	}

	// 2×TTL after the idle fork's last call, one op on a sibling sweeps it.
	now = now.Add(ttl + ttl/2)
	busy.Observe(gBusy)
	if idle.Entries() != 0 || idle.Dirs() != 0 {
		t.Fatalf("idle fork still holds %d entries in %d dirs 2×TTL after its last call", idle.Entries(), idle.Dirs())
	}
	if busy.Entries() != 2 {
		t.Fatalf("the live sibling lost entries: %d, want 2", busy.Entries())
	}
	if got := gauge.Value(); got != 2 {
		t.Fatalf("gauge = %v, want the sum over live caches (2)", got)
	}
	// Emptied caches left the group, so nothing but the fork's owner
	// keeps it alive; the busy one is still a member.
	root.group.mu.Lock()
	_, idleIn := root.group.members[idle]
	_, busyIn := root.group.members[busy]
	root.group.mu.Unlock()
	if idleIn || !busyIn {
		t.Fatalf("group membership: idle %v busy %v, want false true", idleIn, busyIn)
	}

	// A swept cache works again as soon as its owner comes back.
	g := Grant{Dir: 10, ID: 1, TTLms: uint32(ttl / time.Millisecond)}
	idle.Observe(g)
	idle.Put(g, "again", mkInode(1))
	if _, _, ok := idle.Lookup(10, "again"); !ok {
		t.Fatal("swept cache did not serve a fresh entry")
	}
	if got := gauge.Value(); got != 3 {
		t.Fatalf("gauge = %v, want 3", got)
	}
}

// Forks sweeping each other while their owners use them: run under -race.
func TestForkGroupConcurrentSweep(t *testing.T) {
	reg := telemetry.NewRegistry()
	root := NewClientCache(reg)
	var wg sync.WaitGroup
	forks := make([]*ClientCache, 8)
	for w := range forks {
		forks[w] = root.Fork()
		wg.Add(1)
		go func(c *ClientCache, w int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				// A 1 ms TTL keeps leases expiring and sweeps firing mid-run.
				g := Grant{Dir: namespace.Ino(w*10 + i%10), ID: 1, Epoch: uint64(i / 500), TTLms: 1}
				c.Observe(g)
				c.Put(g, "a", mkInode(1))
				c.PutNegative(g, "b")
				c.Lookup(g.Dir, "a")
				if i%700 == 0 {
					c.Flush()
				}
			}
		}(forks[w], w)
	}
	wg.Wait()
	sum := 0
	for _, c := range forks {
		sum += c.Entries()
	}
	if got := reg.Gauge("cache.entries.active").Value(); got != float64(sum) {
		t.Fatalf("gauge = %v, want the sum over caches %d", got, sum)
	}
}

func TestGrantTrailerRoundTrip(t *testing.T) {
	grants := []Grant{
		{Dir: 1, ID: 10, Epoch: 3, TTLms: 2000},
		{Dir: 42, ID: 11, Epoch: 0, TTLms: 500},
	}
	w := &rpc.Wire{}
	w.Blob([]byte("payload")) // stand-in for the real response body
	AppendGrants(w, grants)

	r := rpc.NewReader(w.Bytes())
	if string(r.Blob()) != "payload" {
		t.Fatal("payload mangled")
	}
	got := DecodeGrants(r, nil)
	if len(got) != 2 || got[0] != grants[0] || got[1] != grants[1] {
		t.Fatalf("decoded grants = %+v", got)
	}

	// A body with no trailer decodes as no grants.
	r2 := rpc.NewReader((&rpc.Wire{}).Blob([]byte("payload")).Bytes())
	r2.Blob()
	if g := DecodeGrants(r2, nil); g != nil {
		t.Fatalf("grants from trailer-less body = %+v", g)
	}
}
