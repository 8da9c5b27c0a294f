package client_test

import (
	"fmt"
	"testing"
	"time"

	"origami/internal/client"
	"origami/internal/lease"
	"origami/internal/racedetect"
	"origami/internal/server"
)

// listed reads path's listing through c, checks it against want and
// returns how many RPCs the Readdir cost.
func listed(t *testing.T, c *client.Client, path string, want ...string) int64 {
	t.Helper()
	before := c.RPCCount.Load()
	list, err := c.Readdir(path)
	if err != nil {
		t.Fatal(err)
	}
	names := make(map[string]bool, len(want))
	for _, n := range want {
		names[n] = true
	}
	if err := sameListing(list, names); err != nil {
		t.Errorf("readdir %s: %v", path, err)
	}
	return c.RPCCount.Load() - before
}

// TestCachedListingStalenessBound: a listing served from cache is stale
// at most as a cached Stat is. Another client's create shows in the
// holder's listing once one RPC touching the directory carried the bumped
// epoch; another client's remove shows once the lease TTL ran out, with
// no RPC to the directory at all.
func TestCachedListingStalenessBound(t *testing.T) {
	cl, writer := startOne(t, 1, "leases")
	reader, err := client.Dial(client.Config{Addrs: cl.Addrs, Cache: "leases"})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { reader.Close() })
	if _, err := writer.Mkdir("/ls"); err != nil {
		t.Fatal(err)
	}
	if _, err := writer.Create("/ls/a"); err != nil {
		t.Fatal(err)
	}
	listed(t, reader, "/ls", "a")
	if got := listed(t, reader, "/ls", "a"); got != 0 {
		t.Fatalf("warm readdir cost %d RPCs, want 0", got)
	}

	// A foreign create: the reader's listing may lag until the reader next
	// talks to the owner about /ls — here a stat of a name it never cached.
	if _, err := writer.Create("/ls/b"); err != nil {
		t.Fatal(err)
	}
	if _, err := reader.Stat("/ls/nope"); err == nil {
		t.Fatal("stat of a missing name succeeded")
	}
	if got := listed(t, reader, "/ls", "a", "b"); got == 0 {
		t.Error("readdir after observing a foreign create was served from cache")
	}
	if got := listed(t, reader, "/ls", "a", "b"); got != 0 {
		t.Errorf("warm readdir cost %d RPCs, want 0", got)
	}

	// A foreign remove, and no reader RPC at all: the lease runs out.
	if err := writer.Remove("/ls/a"); err != nil {
		t.Fatal(err)
	}
	later := time.Now().Add(lease.DefaultTTL + time.Second)
	reader.Cache().SetNow(func() time.Time { return later })
	if got := listed(t, reader, "/ls", "b"); got == 0 {
		t.Error("readdir past the lease TTL was served from cache")
	}
}

// TestRenameUnderListedDirectoryRelists: after the client's own rename the
// cache no longer knows both directories' listings — the rename's cached
// entries are dropped — so the next Readdir of each goes to the owner and
// shows the move.
func TestRenameUnderListedDirectoryRelists(t *testing.T) {
	_, sdk := startOne(t, 1, "leases")
	for _, p := range []string{"/r", "/r2"} {
		if _, err := sdk.Mkdir(p); err != nil {
			t.Fatal(err)
		}
	}
	for _, p := range []string{"/r/a", "/r/b"} {
		if _, err := sdk.Create(p); err != nil {
			t.Fatal(err)
		}
	}
	listed(t, sdk, "/r", "a", "b")
	listed(t, sdk, "/r2")
	if err := sdk.Rename("/r/a", "/r/c"); err != nil {
		t.Fatal(err)
	}
	if got := listed(t, sdk, "/r", "b", "c"); got == 0 {
		t.Error("readdir after a rename within the directory was served from cache")
	}
	if err := sdk.Rename("/r/b", "/r2/b"); err != nil {
		t.Fatal(err)
	}
	if got := listed(t, sdk, "/r", "c"); got == 0 {
		t.Error("readdir of a rename's source directory was served from cache")
	}
	if got := listed(t, sdk, "/r2", "b"); got == 0 {
		t.Error("readdir of a rename's destination directory was served from cache")
	}
}

// TestFakeRedirectUnderListedDirectoryRelists: a listing of /top taken
// after /top/m migrated holds m's fake inode. A resolve through /top that
// follows the redirect files m's real inode — another type — under /top's
// grant, so the cache no longer holds what the owner lists and the next
// Readdir of /top goes to the owner.
func TestFakeRedirectUnderListedDirectoryRelists(t *testing.T) {
	cl, sdk := startOne(t, 2, "leases")
	co := server.NewCoordinator(cl)
	if _, err := sdk.Mkdir("/top"); err != nil {
		t.Fatal(err)
	}
	m, err := sdk.Mkdir("/top/m")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sdk.Create("/top/m/f"); err != nil {
		t.Fatal(err)
	}
	if err := co.Migrate(m.Ino, 0, 1); err != nil {
		t.Fatal(err)
	}
	reader, err := client.Dial(client.Config{Addrs: cl.Addrs, Cache: "leases"})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { reader.Close() })
	listed(t, reader, "/top", "m")
	if got := listed(t, reader, "/top", "m"); got != 0 {
		t.Fatalf("warm readdir cost %d RPCs, want 0", got)
	}
	// Flush the reader's root entries (a foreign create in /, observed on
	// a stat there), so its next walk resolves /top/m/f from the root on
	// MDS 0 and meets the fake.
	if _, err := sdk.Create("/other"); err != nil {
		t.Fatal(err)
	}
	if _, err := reader.Stat("/nope"); err == nil {
		t.Fatal("stat of a missing name succeeded")
	}
	if _, err := reader.Stat("/top/m/f"); err != nil {
		t.Fatal(err)
	}
	if got := listed(t, reader, "/top", "m"); got == 0 {
		t.Error("readdir after a redirect target replaced a listed fake was served from cache")
	}
}

// TestWarmReaddirAllocBudget: a warm Readdir costs no allocation beyond
// what every SDK operation costs — no more than a warm Stat of the same
// directory — however many entries the listing holds.
func TestWarmReaddirAllocBudget(t *testing.T) {
	if racedetect.Enabled {
		t.Skip("allocation counts do not hold under the race detector")
	}
	_, sdk := startOne(t, 1, "leases")
	if _, err := sdk.Mkdir("/w"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if _, err := sdk.Create(fmt.Sprintf("/w/f%03d", i)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := sdk.Readdir("/w"); err != nil {
		t.Fatal(err)
	}
	rpcs := sdk.RPCCount.Load()
	stat := testing.AllocsPerRun(200, func() {
		if _, err := sdk.Stat("/w"); err != nil {
			t.Fatal(err)
		}
	})
	list := testing.AllocsPerRun(200, func() {
		if _, err := sdk.Readdir("/w"); err != nil {
			t.Fatal(err)
		}
	})
	if got := sdk.RPCCount.Load() - rpcs; got != 0 {
		t.Fatalf("warm stats and readdirs cost %d RPCs", got)
	}
	if list > stat {
		t.Errorf("warm readdir allocates %.1f objects, a warm stat %.1f: a cached listing must cost nothing", list, stat)
	}
}
