package client_test

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"origami/internal/client"
	"origami/internal/namespace"
	"origami/internal/rpc"
	"origami/internal/server"
)

func startOne(t *testing.T, n int, cache string) (*server.Cluster, *client.Client) {
	t.Helper()
	cl, err := server.StartCluster(n, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	sdk, err := client.Dial(client.Config{Addrs: cl.Addrs, Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sdk.Close() })
	return cl, sdk
}

func TestDialRequiresAddrs(t *testing.T) {
	if _, err := client.Dial(client.Config{}); err == nil {
		t.Error("dial with no addresses succeeded")
	}
}

func TestDialToDeadAddrStartsDisconnected(t *testing.T) {
	// A dead MDS must not block SDK start (it may be mid-failover); the
	// connection stays down and operations against it fail fast until it
	// returns.
	sdk, err := client.Dial(client.Config{
		Addrs:        []string{"127.0.0.1:1"},
		RetryBudget:  -1,
		RetryBackoff: time.Millisecond,
	})
	if err != nil {
		t.Fatalf("lazy dial to closed port failed: %v", err)
	}
	defer sdk.Close()
	if err := sdk.RefreshMap(); err == nil {
		t.Error("RefreshMap against a dead cluster succeeded")
	}
}

func TestRefreshMapOnFreshCluster(t *testing.T) {
	_, sdk := startOne(t, 2, "off")
	if err := sdk.RefreshMap(); err != nil {
		t.Fatalf("RefreshMap: %v", err)
	}
}

func TestResolveRootOnly(t *testing.T) {
	_, sdk := startOne(t, 2, "off")
	chain, owner, err := sdk.Resolve("/")
	if err != nil {
		t.Fatal(err)
	}
	if len(chain) != 1 || owner != 0 {
		t.Errorf("Resolve(/) = %d elements, owner %d", len(chain), owner)
	}
}

func TestStatErrorMentionsPath(t *testing.T) {
	_, sdk := startOne(t, 2, "off")
	_, err := sdk.Stat("/does/not/exist")
	if err == nil {
		t.Fatal("stat of missing path succeeded")
	}
	if !strings.Contains(err.Error(), "/does/not/exist") {
		t.Errorf("error %q does not mention the path", err)
	}
}

func TestCachedNegativeErrorMentionsPath(t *testing.T) {
	_, sdk := startOne(t, 1, "leases")
	if _, err := sdk.Stat("/does/not/exist"); err == nil {
		t.Fatal("stat of missing path succeeded")
	}
	// Second stat is served from the negative cache; the error shape must
	// stay the same for callers matching on the path or on ENOENT.
	_, err := sdk.Stat("/does/not/exist")
	if err == nil {
		t.Fatal("cached stat of missing path succeeded")
	}
	if !strings.Contains(err.Error(), "/does/not/exist") || !strings.Contains(err.Error(), "ENOENT") {
		t.Errorf("cached-negative error %q lacks path or ENOENT", err)
	}
}

func TestRenameMissingSource(t *testing.T) {
	_, sdk := startOne(t, 2, "off")
	if err := sdk.Rename("/ghost", "/elsewhere"); err == nil {
		t.Error("rename of missing source succeeded")
	}
}

// TestOpsUnderAFileAreNotDir: an op that uses a file as a directory —
// as a parent, as a listing, or as a step of a longer path — fails with
// ENOTDIR at once, cached or not. No shard is asked to retry: a shard
// knows a file only by (parent, name), so it would answer the file's ino
// with a not-owner redirect.
func TestOpsUnderAFileAreNotDir(t *testing.T) {
	for _, cache := range []string{"off", "leases"} {
		t.Run(cache, func(t *testing.T) {
			_, sdk := startOne(t, 2, cache)
			if _, err := sdk.Mkdir("/d"); err != nil {
				t.Fatal(err)
			}
			if _, err := sdk.Create("/d/f"); err != nil {
				t.Fatal(err)
			}
			ops := map[string]func() error{
				"create":     func() error { _, err := sdk.Create("/d/f/x"); return err },
				"mkdir":      func() error { _, err := sdk.Mkdir("/d/f/x"); return err },
				"readdir":    func() error { _, err := sdk.Readdir("/d/f"); return err },
				"stat":       func() error { _, err := sdk.Stat("/d/f/x"); return err },
				"setattr":    func() error { _, err := sdk.Setattr("/d/f/x", 1, 0o600); return err },
				"remove":     func() error { return sdk.Remove("/d/f/x") },
				"rename out": func() error { return sdk.Rename("/d/f/x", "/d/y") },
				"rename in":  func() error { return sdk.Rename("/d/f", "/d/f/y") },
			}
			for name, op := range ops {
				if err := op(); err == nil || !strings.Contains(err.Error(), "ENOTDIR") {
					t.Errorf("%s under a file: %v, want ENOTDIR", name, err)
				}
			}
			if n := sdk.Registry().Counter("client.op.retries").Value(); n != 0 {
				t.Errorf("%d retries, want none", n)
			}
		})
	}
}

// TestWarmCacheRPCCounts is the headline lease-cache property, proven by
// counting RPC frames: once the lease cache is warm, Stat (positive and
// negative) and Readdir cost zero RPCs and Create costs exactly one.
func TestWarmCacheRPCCounts(t *testing.T) {
	_, sdk := startOne(t, 1, "leases")
	p := ""
	for _, c := range []string{"a", "b", "c", "d", "e"} {
		p += "/" + c
		if _, err := sdk.Mkdir(p); err != nil {
			t.Fatalf("mkdir %s: %v", p, err)
		}
	}
	if _, err := sdk.Create(p + "/leaf"); err != nil {
		t.Fatal(err)
	}

	// Warm the whole chain (one batched resolve), then measure.
	if _, err := sdk.Stat(p + "/leaf"); err != nil {
		t.Fatal(err)
	}
	before := sdk.RPCCount.Load()
	const n = 20
	for i := 0; i < n; i++ {
		if _, err := sdk.Stat(p + "/leaf"); err != nil {
			t.Fatal(err)
		}
	}
	if got := sdk.RPCCount.Load() - before; got != 0 {
		t.Errorf("warm stats cost %d RPCs over %d ops, want 0", got, n)
	}

	// Warm negative: first miss resolves and caches the absence, repeats
	// are free.
	if _, err := sdk.Stat(p + "/nope"); err == nil {
		t.Fatal("stat of missing entry succeeded")
	}
	before = sdk.RPCCount.Load()
	for i := 0; i < n; i++ {
		if _, err := sdk.Stat(p + "/nope"); err == nil {
			t.Fatal("stat of missing entry succeeded")
		}
	}
	if got := sdk.RPCCount.Load() - before; got != 0 {
		t.Errorf("warm negative stats cost %d RPCs over %d ops, want 0", got, n)
	}

	// Warm create: the parent chain resolves from cache, so only the
	// one-op MethodBatch frame goes out — and the response's grant keeps
	// the cache warm (our own epoch bump must not flush it).
	before = sdk.RPCCount.Load()
	for i := 0; i < n; i++ {
		if _, err := sdk.Create(p + "/new" + string(rune('a'+i))); err != nil {
			t.Fatal(err)
		}
	}
	if got := sdk.RPCCount.Load() - before; got != n {
		t.Errorf("warm creates cost %d RPCs over %d ops, want %d", got, n, n)
	}

	// And the creates left the cache warm: stats of the new entries and
	// the old leaf are still free.
	before = sdk.RPCCount.Load()
	if _, err := sdk.Stat(p + "/newa"); err != nil {
		t.Fatal(err)
	}
	if _, err := sdk.Stat(p + "/leaf"); err != nil {
		t.Fatal(err)
	}
	if got := sdk.RPCCount.Load() - before; got != 0 {
		t.Errorf("stats after own creates cost %d RPCs, want 0", got)
	}

	// Warm listing: one Readdir from the owner leaves the directory
	// complete; repeats cost nothing, and so do listings after the
	// client's own create, remove and mkdir in it, each showing the change.
	want := map[string]bool{"leaf": true}
	for i := 0; i < n; i++ {
		want["new"+string(rune('a'+i))] = true
	}
	if _, err := sdk.Readdir(p); err != nil {
		t.Fatal(err)
	}
	for _, step := range []struct {
		what string
		do   func() error
		name string
		adds bool
	}{
		{"warm", func() error { return nil }, "", false},
		{"own create", func() error { _, err := sdk.Create(p + "/zz"); return err }, "zz", true},
		{"own remove", func() error { return sdk.Remove(p + "/leaf") }, "leaf", false},
		{"own mkdir", func() error { _, err := sdk.Mkdir(p + "/sub"); return err }, "sub", true},
	} {
		if err := step.do(); err != nil {
			t.Fatalf("%s: %v", step.what, err)
		}
		if step.name != "" {
			want[step.name] = step.adds
		}
		before = sdk.RPCCount.Load()
		list, err := sdk.Readdir(p)
		if err != nil {
			t.Fatal(err)
		}
		if got := sdk.RPCCount.Load() - before; got != 0 {
			t.Errorf("readdir after %s cost %d RPCs, want 0", step.what, got)
		}
		if err := sameListing(list, want); err != nil {
			t.Errorf("readdir after %s: %v", step.what, err)
		}
	}
}

// sameListing checks that list names exactly the names want marks true,
// in the owner's key order (by name).
func sameListing(list []*namespace.Inode, want map[string]bool) error {
	var got, exp []string
	for _, in := range list {
		got = append(got, in.Name)
	}
	for name, ok := range want {
		if ok {
			exp = append(exp, name)
		}
	}
	sort.Strings(exp)
	if !slices.Equal(got, exp) {
		return fmt.Errorf("lists %q, want %q", got, exp)
	}
	return nil
}

// TestStalenessBoundAcrossClients: a mutation through one client must
// become visible to another, fully warm client within one RPC — the
// next server round trip piggybacks the bumped lease epoch — without
// waiting for the TTL.
func TestStalenessBoundAcrossClients(t *testing.T) {
	cl, writer := startOne(t, 1, "leases")
	reader, err := client.Dial(client.Config{Addrs: cl.Addrs, Cache: "leases"})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { reader.Close() })

	if _, err := writer.Mkdir("/shared"); err != nil {
		t.Fatal(err)
	}
	if _, err := writer.Create("/shared/doomed"); err != nil {
		t.Fatal(err)
	}
	// Warm the reader on the entry.
	if _, err := reader.Stat("/shared/doomed"); err != nil {
		t.Fatal(err)
	}
	if _, err := reader.Stat("/shared/doomed"); err != nil {
		t.Fatal(err)
	}

	// The writer removes the entry; the reader's cache still holds it.
	if err := writer.Remove("/shared/doomed"); err != nil {
		t.Fatal(err)
	}

	// One RPC of any kind under the directory carries the bumped epoch.
	// The reader holds no listing of the directory, so its Readdir goes
	// to the server, and the grant trailer must flush the stale entry.
	if _, err := reader.Readdir("/shared"); err != nil {
		t.Fatal(err)
	}
	if _, err := reader.Stat("/shared/doomed"); err == nil {
		t.Error("reader still sees a removed entry after observing a newer epoch")
	}
}

// TestTTLBoundsStalenessForIdleClient: a client that issues no RPCs at
// all (fully warm) must still converge once its lease TTL runs out.
func TestTTLBoundsStalenessForIdleClient(t *testing.T) {
	cl, err := server.StartCluster(1, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	cl.Services[0].SetLeaseTTL(100 * time.Millisecond)
	writer, err := client.Dial(client.Config{Addrs: cl.Addrs, Cache: "leases"})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { writer.Close() })
	reader, err := client.Dial(client.Config{Addrs: cl.Addrs, Cache: "leases"})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { reader.Close() })

	if _, err := writer.Mkdir("/idle"); err != nil {
		t.Fatal(err)
	}
	if _, err := writer.Create("/idle/f"); err != nil {
		t.Fatal(err)
	}
	if _, err := reader.Stat("/idle/f"); err != nil {
		t.Fatal(err)
	}
	if err := writer.Remove("/idle/f"); err != nil {
		t.Fatal(err)
	}
	// No reader RPCs: the cached entry may serve up to the TTL, no longer.
	deadline := time.Now().Add(2 * time.Second)
	for {
		if _, err := reader.Stat("/idle/f"); err != nil {
			break // converged
		}
		if time.Now().After(deadline) {
			t.Fatal("reader still serves a removed entry long past the lease TTL")
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func TestForkIsolatesCacheSharesTransports(t *testing.T) {
	_, sdk := startOne(t, 1, "leases")
	if _, err := sdk.Mkdir("/fk"); err != nil {
		t.Fatal(err)
	}
	if _, err := sdk.Create("/fk/f"); err != nil {
		t.Fatal(err)
	}
	if _, err := sdk.Stat("/fk/f"); err != nil {
		t.Fatal(err)
	}

	v := sdk.Fork()
	defer v.Close()
	// The fork starts cold: its first stat costs RPCs, counted on its own
	// counters, not the parent's.
	p0 := sdk.RPCCount.Load()
	if _, err := v.Stat("/fk/f"); err != nil {
		t.Fatal(err)
	}
	if v.RPCCount.Load() == 0 {
		t.Error("fork's cold stat cost no RPCs (cache not isolated)")
	}
	if sdk.RPCCount.Load() != p0 {
		t.Error("fork's RPCs landed on the parent's counter")
	}
	// Warm now, and free.
	b := v.RPCCount.Load()
	if _, err := v.Stat("/fk/f"); err != nil {
		t.Fatal(err)
	}
	if v.RPCCount.Load() != b {
		t.Error("fork's warm stat cost RPCs")
	}
	// Closing the fork must not kill the parent's connections.
	if err := v.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := sdk.Stat("/fk/f"); err != nil {
		t.Fatalf("parent broken after fork close: %v", err)
	}
}

func TestIdempotentRetryAfterTransientDisconnect(t *testing.T) {
	cl, err := server.StartCluster(1, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	sdk, err := client.Dial(client.Config{
		Addrs:        cl.Addrs,
		RetryBudget:  5,
		RetryBackoff: 20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sdk.Close() })

	// Sever the next two incoming requests, then recover.
	inj := rpc.NewRuleInjector(1, rpc.Rule{
		Point:  rpc.PointServerRecv,
		Count:  2,
		Action: rpc.FaultDisconnect,
	})
	cl.Services[0].Server().SetFaultInjector(inj)
	if err := sdk.RefreshMap(); err != nil {
		t.Fatalf("RefreshMap over transient disconnects: %v", err)
	}
	st := sdk.Stats()
	if st.Retries < 2 {
		t.Errorf("Retries = %d, want >= 2", st.Retries)
	}
	if st.RetriesExhausted != 0 {
		t.Errorf("RetriesExhausted = %d, want 0", st.RetriesExhausted)
	}
	if inj.Fired(0) != 2 {
		t.Errorf("injector fired %d times, want 2", inj.Fired(0))
	}
}

func TestRetryBudgetExhausted(t *testing.T) {
	cl, err := server.StartCluster(1, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	sdk, err := client.Dial(client.Config{
		Addrs:        cl.Addrs,
		RetryBudget:  2,
		RetryBackoff: 5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sdk.Close() })

	cl.Services[0].Server().SetFaultInjector(rpc.DownInjector())
	err = sdk.RefreshMap()
	if err == nil {
		t.Fatal("RefreshMap against a down MDS succeeded")
	}
	if !strings.Contains(err.Error(), "unreachable") {
		t.Errorf("error %q does not report exhaustion", err)
	}
	if got := sdk.Stats().RetriesExhausted; got != 1 {
		t.Errorf("RetriesExhausted = %d, want 1", got)
	}

	// Clearing the injector "restarts" the MDS: the same client recovers.
	cl.Services[0].Server().SetFaultInjector(nil)
	if err := sdk.RefreshMap(); err != nil {
		t.Fatalf("RefreshMap after recovery: %v", err)
	}
}

// A client whose calls keep succeeding on the owners never meets the
// not-owner or transport error that forces a map refresh. The map version
// on the read trailer is how it still learns a newer map — within one RPC
// of its publication.
func TestSucceedingClientLearnsNewMapVersion(t *testing.T) {
	cl, sdk := startOne(t, 2, "off") // no cache: every stat is an RPC
	co := server.NewCoordinator(cl)
	if _, err := sdk.Mkdir("/stay"); err != nil {
		t.Fatal(err)
	}
	if _, err := sdk.Create("/stay/f"); err != nil {
		t.Fatal(err)
	}
	moved, err := sdk.Mkdir("/moved")
	if err != nil {
		t.Fatal(err)
	}
	if err := sdk.RefreshMap(); err != nil {
		t.Fatal(err)
	}
	// Publish a new map that changes nothing on the path the client reads.
	if err := co.Migrate(moved.Ino, 0, 1); err != nil {
		t.Fatal(err)
	}
	want := co.MapVersion()
	if got := sdk.MapVersion(); got >= want {
		t.Fatalf("client already holds map %d (coordinator %d)", got, want)
	}
	if _, err := sdk.Stat("/stay/f"); err != nil {
		t.Fatal(err)
	}
	// That one successful stat announced the version; the refresh runs off
	// the op's critical path.
	deadline := time.Now().Add(5 * time.Second)
	for sdk.MapVersion() < want {
		if time.Now().After(deadline) {
			t.Fatalf("client still on map %d, %d was published one RPC ago", sdk.MapVersion(), want)
		}
		time.Sleep(time.Millisecond)
	}
	// One refresh per version: further stats must not pull the map again.
	rpcs := sdk.RPCCount.Load()
	for i := 0; i < 5; i++ {
		if _, err := sdk.Stat("/stay/f"); err != nil {
			t.Fatal(err)
		}
	}
	if extra := sdk.RPCCount.Load() - rpcs - 5; extra != 0 {
		t.Fatalf("5 stats on a current map cost %d extra RPCs", extra)
	}
}

// TestReturnedInodesAreReadOnly: the SDK hands out the inodes and the
// listing slices its lease cache holds and never writes one afterwards.
// Two forks Stat and Readdir one directory while a third client creates
// and removes in it, flushing their leases; every slice and inode they get
// back is read on another goroutine while they keep calling, so under
// -race any later write by the SDK — re-seeding, revalidation, a flush, a
// patch of a cached listing — shows as a race.
func TestReturnedInodesAreReadOnly(t *testing.T) {
	cl, sdk := startOne(t, 1, "leases")
	writer, err := client.Dial(client.Config{Addrs: cl.Addrs, Cache: "leases"})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { writer.Close() })
	dir, err := sdk.Mkdir("/d")
	if err != nil {
		t.Fatal(err)
	}
	const stable = 16
	for i := 0; i < stable; i++ {
		if _, err := sdk.Create(fmt.Sprintf("/d/f%02d", i)); err != nil {
			t.Fatal(err)
		}
	}

	seen := make(chan []*namespace.Inode, 64)
	checked := make(chan error)
	go func() {
		var bad error
		for list := range seen {
			for _, in := range list {
				if in.Ino == 0 || in.Name == "" || (in.Type == namespace.TypeFile && in.Parent != dir.Ino) {
					bad = fmt.Errorf("returned inode reads as %+v", *in)
				}
				_ = in.Size + in.Atime + in.Mtime + in.Ctime + int64(in.Mode) + int64(in.Nlink) // read the rest
			}
		}
		checked <- bad
	}()

	stop := make(chan struct{})
	var churn sync.WaitGroup
	churn.Add(1)
	go func() {
		defer churn.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			p := fmt.Sprintf("/d/x%d", i%4)
			if _, err := writer.Create(p); err != nil {
				t.Errorf("create %s: %v", p, err)
				return
			}
			if err := writer.Remove(p); err != nil {
				t.Errorf("remove %s: %v", p, err)
				return
			}
		}
	}()

	// Each fork also creates and removes a file of its own, so the
	// listings it holds complete are patched and served from cache.
	// readOnce returns what the Readdir cost in RPCs.
	readOnce := func(fork *client.Client, i int, own string) (int64, error) {
		rpcs := fork.RPCCount.Load()
		list, err := fork.Readdir("/d")
		if err != nil {
			return 0, err
		}
		cost := fork.RPCCount.Load() - rpcs
		seen <- list // the slice itself, not just its inodes
		switch i % 3 {
		case 0:
			_, err = fork.Create(own)
		case 1:
			err = fork.Remove(own)
		}
		if err != nil {
			return 0, err
		}
		in, err := fork.Stat(fmt.Sprintf("/d/f%02d", i%stable))
		if err != nil {
			return 0, err
		}
		seen <- []*namespace.Inode{in}
		// Churned names come and go; only what a stat returns matters.
		if in, err := fork.Stat(fmt.Sprintf("/d/x%d", i%4)); err == nil {
			seen <- []*namespace.Inode{in}
		}
		return cost, nil
	}
	var readers sync.WaitGroup
	for w := 0; w < 2; w++ {
		fork := sdk.Fork()
		readers.Add(1)
		go func() {
			defer readers.Done()
			for i := 0; i < 150; i++ {
				if _, err := readOnce(fork, i, fmt.Sprintf("/d/own%d", w)); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	readers.Wait()
	close(stop)
	churn.Wait()
	// Quiet now: listings are served from cache, patched by the fork's own
	// create and remove, while the checker still reads earlier ones.
	fork := sdk.Fork()
	cached := 0
	for i := 0; i < 30; i++ {
		cost, err := readOnce(fork, i, "/d/own")
		if err != nil {
			t.Fatal(err)
		}
		if cost == 0 {
			cached++
		}
	}
	if cached == 0 {
		t.Error("no listing was served from cache in a quiet directory")
	}
	close(seen)
	if err := <-checked; err != nil {
		t.Error(err)
	}
}
