package server

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"origami/internal/client"
	"origami/internal/mds"
	"origami/internal/namespace"
	"origami/internal/rpc"
)

// TestMigrateFreezeSparesSiblings: a prepare whose copy crawls to the
// destination — every MethodIngest stalls on arrival there — freezes its
// own subtree only. While it is in flight, creates and stats in a sibling
// directory on the source finish well under the stall, and a create
// inside the migrating subtree waits for the commit, succeeds, and lands
// on the destination.
func TestMigrateFreezeSparesSiblings(t *testing.T) {
	const stall = 1200 * time.Millisecond
	cl, sdk := startTestCluster(t, 2)
	hot, err := sdk.Mkdir("/hot")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if _, err := sdk.Create(fmt.Sprintf("/hot/f%02d", i)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := sdk.Mkdir("/cold"); err != nil {
		t.Fatal(err)
	}
	// Uncached, so every timed stat reaches the source shard.
	probe, err := client.Dial(client.Config{Addrs: cl.Addrs, Cache: "off"})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { probe.Close() })

	ingesting := make(chan struct{})
	var once sync.Once
	cl.Services[1].Server().SetFaultInjector(rpc.InjectorFunc(func(p rpc.InjectPoint, m rpc.Method) rpc.Fault {
		if p != rpc.PointServerRecv || m != mds.MethodIngest {
			return rpc.Fault{}
		}
		once.Do(func() { close(ingesting) })
		return rpc.Fault{Action: rpc.FaultDelay, Delay: stall}
	}))
	co := NewCoordinator(cl)
	migrated := make(chan error, 1)
	go func() { migrated <- co.Migrate(hot.Ino, 0, 1) }()
	<-ingesting

	inside := make(chan error, 1)
	go func() {
		_, err := sdk.Create("/hot/during")
		inside <- err
	}()
	for i := 0; i < 10; i++ {
		name := fmt.Sprintf("/cold/f%02d", i)
		start := time.Now()
		if _, err := probe.Create(name); err != nil {
			t.Fatalf("sibling create %s: %v", name, err)
		}
		created := time.Since(start)
		start = time.Now()
		if _, err := probe.Stat(name); err != nil {
			t.Fatalf("sibling stat %s: %v", name, err)
		}
		if statted := time.Since(start); created > stall/4 || statted > stall/4 {
			t.Errorf("sibling %s blocked by the freeze: create %v, stat %v", name, created, statted)
		}
	}
	select {
	case err := <-migrated:
		t.Fatalf("migration finished (err %v) before the sibling ops were timed", err)
	default:
	}

	if err := <-migrated; err != nil {
		t.Fatalf("migrate /hot: %v", err)
	}
	if err := <-inside; err != nil {
		t.Fatalf("create inside the migrating subtree: %v", err)
	}
	if in, found, err := cl.Services[1].Store().Lookup(hot.Ino, "during"); err != nil || !found || in.Type != namespace.TypeFile {
		t.Errorf("create inside the subtree not on the destination: found=%v err=%v", found, err)
	}
	if _, found, _ := cl.Services[0].Store().Lookup(hot.Ino, "during"); found {
		t.Error("create inside the subtree was orphaned on the source")
	}
	if _, err := probe.Stat("/hot/during"); err != nil {
		t.Errorf("stat after commit: %v", err)
	}
	if n := cl.Services[0].Registry().Histogram("mds.migration.freeze_ns").Count(); n != 1 {
		t.Errorf("mds.migration.freeze_ns holds %d samples, want 1", n)
	}
}
