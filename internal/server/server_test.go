package server

import (
	"fmt"
	"strings"
	"testing"

	"origami/internal/client"
	"origami/internal/namespace"
)

func startTestCluster(t *testing.T, n int) (*Cluster, *client.Client) {
	t.Helper()
	cl, err := StartCluster(n, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	sdk, err := client.Dial(client.Config{Addrs: cl.Addrs, Cache: "leases"})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sdk.Close() })
	return cl, sdk
}

func TestBasicFileOperations(t *testing.T) {
	_, sdk := startTestCluster(t, 3)
	if _, err := sdk.Mkdir("/projects"); err != nil {
		t.Fatal(err)
	}
	if _, err := sdk.Mkdir("/projects/alpha"); err != nil {
		t.Fatal(err)
	}
	f, err := sdk.Create("/projects/alpha/readme.md")
	if err != nil {
		t.Fatal(err)
	}
	if f.Type != namespace.TypeFile {
		t.Errorf("created type = %v", f.Type)
	}
	st, err := sdk.Stat("/projects/alpha/readme.md")
	if err != nil {
		t.Fatal(err)
	}
	if st.Ino != f.Ino {
		t.Errorf("stat ino %d != created %d", st.Ino, f.Ino)
	}
	ents, err := sdk.Readdir("/projects/alpha")
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 || ents[0].Name != "readme.md" {
		t.Errorf("readdir = %v", ents)
	}
}

func TestStatMissingFails(t *testing.T) {
	_, sdk := startTestCluster(t, 2)
	if _, err := sdk.Stat("/nope"); err == nil {
		t.Error("stat of missing path succeeded")
	}
}

func TestCreateDuplicateFails(t *testing.T) {
	_, sdk := startTestCluster(t, 2)
	if _, err := sdk.Create("/f"); err != nil {
		t.Fatal(err)
	}
	if _, err := sdk.Create("/f"); err == nil {
		t.Error("duplicate create succeeded")
	}
}

func TestRemoveAndRmdirSemantics(t *testing.T) {
	_, sdk := startTestCluster(t, 2)
	sdk.Mkdir("/d")
	sdk.Create("/d/f")
	if err := sdk.Remove("/d"); err == nil {
		t.Error("removing non-empty dir succeeded")
	}
	if err := sdk.Remove("/d/f"); err != nil {
		t.Fatal(err)
	}
	if err := sdk.Remove("/d"); err != nil {
		t.Fatal(err)
	}
	if _, err := sdk.Stat("/d"); err == nil {
		t.Error("removed dir still stats")
	}
}

func TestSetattr(t *testing.T) {
	_, sdk := startTestCluster(t, 2)
	sdk.Create("/f")
	in, err := sdk.Setattr("/f", 4096, 0o600)
	if err != nil {
		t.Fatal(err)
	}
	if in.Size != 4096 || in.Mode != 0o600 {
		t.Errorf("setattr result = %+v", in)
	}
	// The root's own record sits at (root, ""), which no sub-op may name.
	if _, err := sdk.Setattr("/", 1, 0o700); err == nil || !strings.Contains(err.Error(), "EINVAL") {
		t.Errorf("setattr of the root: %v, want EINVAL", err)
	}
}

// TestSetattrAfterMigration: a setattr of a migrated subtree's root and
// of a file inside it lands on the destination. The root's record lives
// there under a parent that shard does not own, and the source keeps only
// a fake at its key, which no setattr may touch. The SDK's cache still
// routes the root to the source, so its first attempt is redirected.
func TestSetattrAfterMigration(t *testing.T) {
	cl, sdk := startTestCluster(t, 2)
	co := NewCoordinator(cl)
	m, err := sdk.Mkdir("/m")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sdk.Create("/m/f"); err != nil {
		t.Fatal(err)
	}
	if err := co.Migrate(m.Ino, 0, 1); err != nil {
		t.Fatalf("migrate: %v", err)
	}
	want := map[string]struct {
		size int64
		mode uint16
	}{"/m": {4096, 0o700}, "/m/f": {8192, 0o600}}
	for path, w := range want {
		in, err := sdk.Setattr(path, w.size, w.mode)
		if err != nil {
			t.Fatalf("setattr %s: %v", path, err)
		}
		if in.Size != w.size || in.Mode != w.mode {
			t.Errorf("setattr %s = %+v", path, in)
		}
	}
	fresh, err := client.Dial(client.Config{Addrs: cl.Addrs, Cache: "off"})
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Close()
	for path, w := range want {
		in, err := fresh.Stat(path)
		if err != nil {
			t.Fatalf("stat %s: %v", path, err)
		}
		if in.Size != w.size || in.Mode != w.mode {
			t.Errorf("stat %s after setattr = size %d mode %o, want %d %o", path, in.Size, in.Mode, w.size, w.mode)
		}
	}
}

func TestRenameSameShard(t *testing.T) {
	_, sdk := startTestCluster(t, 2)
	sdk.Mkdir("/a")
	sdk.Create("/a/x")
	if err := sdk.Rename("/a/x", "/a/y"); err != nil {
		t.Fatal(err)
	}
	if _, err := sdk.Stat("/a/y"); err != nil {
		t.Errorf("rename target missing: %v", err)
	}
	if _, err := sdk.Stat("/a/x"); err == nil {
		t.Error("rename source still present")
	}
}

func TestMigrationAndRedirect(t *testing.T) {
	cl, sdk := startTestCluster(t, 3)
	co := NewCoordinator(cl)
	sdk.Mkdir("/hot")
	var files []string
	for i := 0; i < 20; i++ {
		p := fmt.Sprintf("/hot/f%02d", i)
		sdk.Create(p)
		files = append(files, p)
	}
	hot, err := sdk.Stat("/hot")
	if err != nil {
		t.Fatal(err)
	}
	// Explicitly migrate /hot from MDS 0 to MDS 2.
	if err := co.Migrate(hot.Ino, 0, 2); err != nil {
		t.Fatalf("migrate: %v", err)
	}
	// A fresh client with no map knowledge must still resolve everything
	// via the fake-inode redirect.
	fresh, err := client.Dial(client.Config{Addrs: cl.Addrs, Cache: "off"})
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Close()
	for _, p := range files {
		if _, err := fresh.Stat(p); err != nil {
			t.Fatalf("stat %s after migration: %v", p, err)
		}
	}
	// Creating under the migrated dir must land on the new owner.
	if _, err := fresh.Create("/hot/new"); err != nil {
		t.Fatalf("create under migrated dir: %v", err)
	}
	if _, err := fresh.Stat("/hot/new"); err != nil {
		t.Fatalf("stat new file: %v", err)
	}
	// The destination shard physically holds the subtree now.
	if got := cl.Services[2]; got == nil {
		t.Fatal("no service 2")
	}
}

func TestCoordinatorRunEpochBalances(t *testing.T) {
	cl, sdk := startTestCluster(t, 3)
	co := NewCoordinator(cl)
	// Build skewed load: two hot subtrees, everything on MDS 0.
	sdk.Mkdir("/t0")
	sdk.Mkdir("/t1")
	for i := 0; i < 8; i++ {
		sdk.Create(fmt.Sprintf("/t0/f%d", i))
		sdk.Create(fmt.Sprintf("/t1/f%d", i))
	}
	for round := 0; round < 200; round++ {
		sdk.Stat(fmt.Sprintf("/t0/f%d", round%8))
		sdk.Stat(fmt.Sprintf("/t1/f%d", round%8))
	}
	res, err := co.RunEpoch()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Applied) == 0 {
		t.Fatal("coordinator migrated nothing off the overloaded MDS")
	}
	for _, d := range res.Applied {
		if d.From != 0 {
			t.Errorf("migration from MDS %d, want 0", d.From)
		}
	}
	// Everything must still resolve afterwards.
	for i := 0; i < 8; i++ {
		if _, err := sdk.Stat(fmt.Sprintf("/t0/f%d", i)); err != nil {
			t.Errorf("post-balance stat t0/f%d: %v", i, err)
		}
		if _, err := sdk.Stat(fmt.Sprintf("/t1/f%d", i)); err != nil {
			t.Errorf("post-balance stat t1/f%d: %v", i, err)
		}
	}
}

func TestDurabilityAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	cl, err := StartCluster(2, dir)
	if err != nil {
		t.Fatal(err)
	}
	sdk, err := client.Dial(client.Config{Addrs: cl.Addrs, Cache: "off"})
	if err != nil {
		t.Fatal(err)
	}
	sdk.Mkdir("/persist")
	sdk.Create("/persist/data")
	sdk.Close()
	cl.Close()
	// Restart on the same directories.
	cl2, err := StartCluster(2, dir)
	if err != nil {
		t.Fatal(err)
	}
	defer cl2.Close()
	sdk2, err := client.Dial(client.Config{Addrs: cl2.Addrs, Cache: "off"})
	if err != nil {
		t.Fatal(err)
	}
	defer sdk2.Close()
	if _, err := sdk2.Stat("/persist/data"); err != nil {
		t.Fatalf("data lost across restart: %v", err)
	}
}

// TestPartitionMapSurvivesRestart migrates a subtree, restarts the whole
// cluster, and verifies a fresh coordinator resumes with the migrated
// partition and the data still resolves on its new shard.
func TestPartitionMapSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	cl, err := StartCluster(3, dir)
	if err != nil {
		t.Fatal(err)
	}
	sdk, err := client.Dial(client.Config{Addrs: cl.Addrs, Cache: "off"})
	if err != nil {
		t.Fatal(err)
	}
	co := NewCoordinator(cl)
	sdk.Mkdir("/moved")
	for i := 0; i < 6; i++ {
		sdk.Create(fmt.Sprintf("/moved/f%d", i))
	}
	moved, _ := sdk.Stat("/moved")
	if err := co.Migrate(moved.Ino, 0, 2); err != nil {
		t.Fatal(err)
	}
	sdk.Close()
	cl.Close()

	cl2, err := StartCluster(3, dir)
	if err != nil {
		t.Fatal(err)
	}
	defer cl2.Close()
	co2 := NewCoordinator(cl2)
	pins := co2.Pins()
	if pins[moved.Ino] != 2 {
		t.Errorf("restarted coordinator pins = %v, want %d -> 2", pins, moved.Ino)
	}
	sdk2, err := client.Dial(client.Config{Addrs: cl2.Addrs, Cache: "off"})
	if err != nil {
		t.Fatal(err)
	}
	defer sdk2.Close()
	for i := 0; i < 6; i++ {
		if _, err := sdk2.Stat(fmt.Sprintf("/moved/f%d", i)); err != nil {
			t.Fatalf("migrated data lost across restart: %v", err)
		}
	}
}

func TestCrossShardRename(t *testing.T) {
	cl, sdk := startTestCluster(t, 3)
	co := NewCoordinator(cl)
	sdk.Mkdir("/a")
	sdk.Mkdir("/b")
	sdk.Create("/a/file")
	b, _ := sdk.Stat("/b")
	if err := co.Migrate(b.Ino, 0, 1); err != nil {
		t.Fatal(err)
	}
	if err := sdk.Rename("/a/file", "/b/file"); err != nil {
		t.Fatalf("cross-shard rename: %v", err)
	}
	if _, err := sdk.Stat("/b/file"); err != nil {
		t.Errorf("rename target missing: %v", err)
	}
	if _, err := sdk.Stat("/a/file"); err == nil {
		t.Error("rename source still present")
	}
}

func TestClientRPCCounting(t *testing.T) {
	_, sdk := startTestCluster(t, 2)
	before := sdk.RPCCount.Load()
	sdk.Mkdir("/x")
	sdk.Stat("/x")
	if sdk.RPCCount.Load() <= before {
		t.Error("RPC counter did not advance")
	}
	if sdk.Ops.Load() < 2 {
		t.Errorf("ops = %d", sdk.Ops.Load())
	}
}

// TestNearRootCacheReducesRPCs: with batched path resolution, one shard
// serves a whole ownership run in one RPC, so the cache's RPC savings
// materialise exactly where the paper says they do — across partition
// boundaries. Put a boundary under a cached prefix and measure.
func TestNearRootCacheReducesRPCs(t *testing.T) {
	cl, setup := startTestCluster(t, 2)
	co := NewCoordinator(cl)
	setup.Mkdir("/deep")
	setup.Mkdir("/deep/a")
	setup.Mkdir("/deep/a/b")
	setup.Create("/deep/a/b/f")
	deep, err := setup.Stat("/deep")
	if err != nil {
		t.Fatal(err)
	}
	if err := co.Migrate(deep.Ino, 0, 1); err != nil {
		t.Fatal(err)
	}
	cached, err := client.Dial(client.Config{Addrs: cl.Addrs, Cache: "leases"})
	if err != nil {
		t.Fatal(err)
	}
	defer cached.Close()
	uncached, err := client.Dial(client.Config{Addrs: cl.Addrs, Cache: "off"})
	if err != nil {
		t.Fatal(err)
	}
	defer uncached.Close()
	// Warm caches and partition views.
	cached.RefreshMap()
	uncached.RefreshMap()
	if _, err := cached.Stat("/deep/a/b/f"); err != nil {
		t.Fatal(err)
	}
	if _, err := uncached.Stat("/deep/a/b/f"); err != nil {
		t.Fatal(err)
	}
	c0 := cached.RPCCount.Load()
	u0 := uncached.RPCCount.Load()
	const n = 10
	for i := 0; i < n; i++ {
		if _, err := cached.Stat("/deep/a/b/f"); err != nil {
			t.Fatal(err)
		}
		if _, err := uncached.Stat("/deep/a/b/f"); err != nil {
			t.Fatal(err)
		}
	}
	cRPC := cached.RPCCount.Load() - c0
	uRPC := uncached.RPCCount.Load() - u0
	if cRPC >= uRPC {
		t.Errorf("cache did not save RPCs across the boundary: cached=%d uncached=%d", cRPC, uRPC)
	}
	// The cached client resolves the whole path in one RPC per stat: the
	// boundary sits inside its cached prefix (Origami's 1.04 rpc/req
	// mechanism).
	if cRPC > n {
		t.Errorf("cached stats cost %d RPCs over %d ops, want 1/op", cRPC, n)
	}
}
