package client

import (
	"testing"

	"origami/internal/lease"
	"origami/internal/mds"
	"origami/internal/namespace"
	"origami/internal/telemetry"
)

// TestFrameSiblingGrantsAreForeign: a mutation frame's grant trailer
// carries a grant for every directory its ops wrote, and with batching
// those ops may be other forks'. A waiter adopts as its own bump only the
// grants of the directories its own op wrote; a sibling's bump of another
// directory is foreign news and flushes what the waiter cached there —
// here the name the sibling removed, and the listing that still held it.
func TestFrameSiblingGrantsAreForeign(t *testing.T) {
	c := &Client{cache: lease.NewClientCache(telemetry.NewRegistry())}
	const mine, theirs namespace.Ino = 2, 3
	x := &namespace.Inode{Ino: 10, Parent: theirs, Name: "x", Type: namespace.TypeFile}
	for _, g := range []lease.Grant{{Dir: mine, ID: 1, Epoch: 4, TTLms: 60_000}, {Dir: theirs, ID: 1, Epoch: 7, TTLms: 60_000}} {
		c.cache.Observe(g)
		list := []*namespace.Inode{}
		if g.Dir == theirs {
			list = append(list, x)
		}
		c.cache.PutListing(g, list)
	}

	// This client created "new" in mine; a sibling op in the same frame
	// removed x from theirs. Both directories moved one epoch.
	so := &mds.SubOp{Kind: mds.BatchOpCreate, Parent: mine, Name: "new"}
	grants := []lease.Grant{{Dir: mine, ID: 1, Epoch: 5, TTLms: 60_000}, {Dir: theirs, ID: 1, Epoch: 8, TTLms: 60_000}}
	c.observeOwnGrants(so, grants)
	created := &namespace.Inode{Ino: 11, Parent: mine, Name: "new", Type: namespace.TypeFile}
	c.cacheEntry(grants, mine, "new", created)

	if _, _, ok := c.cache.Lookup(theirs, "x"); ok {
		t.Error("a name a sibling op removed is still served")
	}
	if _, ok := c.cache.Listing(theirs); ok {
		t.Error("a listing a sibling op changed is still served")
	}
	if list, ok := c.cache.Listing(mine); !ok || len(list) != 1 || list[0] != created {
		t.Errorf("own directory's listing = %v (ok %v), want just the created entry", list, ok)
	}
}
