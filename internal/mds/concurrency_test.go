package mds

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"origami/internal/kvstore"
	"origami/internal/namespace"
	"origami/internal/rpc"
)

// concurrentCluster starts a two-MDS loopback cluster and returns the
// services plus their addresses, so the test can drive them through
// real (concurrently dispatched) RPC connections.
func concurrentCluster(t *testing.T) (services [2]*Service, addrs [2]string) {
	t.Helper()
	conns := make([]*rpc.Client, 2)
	peers := func(id int) (*rpc.Client, error) {
		if conns[id] == nil {
			c, err := rpc.Dial(addrs[id])
			if err != nil {
				return nil, err
			}
			conns[id] = c
		}
		return conns[id], nil
	}
	for i := 0; i < 2; i++ {
		store, err := OpenStore(t.TempDir(), i, kvstore.Options{})
		if err != nil {
			t.Fatal(err)
		}
		services[i] = NewService(i, store, peers)
		addr, err := services[i].Serve("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addrs[i] = addr
	}
	t.Cleanup(func() {
		for _, c := range conns {
			if c != nil {
				c.Close()
			}
		}
		for _, s := range services {
			s.Close()
		}
	})
	return services, addrs
}

// callCreate sends one create over the wire as a MethodBatch frame of one.
func callCreate(c *rpc.Client, parent namespace.Ino, name string, typ namespace.FileType) (*namespace.Inode, error) {
	out, err := c.Call(MethodBatch, EncodeBatchRequest(0, [][]byte{EncodeBatchCreate(0, parent, name, typ)}))
	if err != nil {
		return nil, err
	}
	res, _, err := DecodeBatchResponse(out)
	if err != nil {
		return nil, err
	}
	return res[0].Inode, res[0].Err
}

// TestConcurrentRequestsDuringMigration is the striped-store regression
// test: worker goroutines hammer mixed create/stat/readdir over real RPC
// connections against a live service while two-phase subtree migrations
// repeatedly freeze the shard. It asserts that (a) every acknowledged
// create is later visible on the shard that owns its directory, (b) the
// migrations themselves complete, and (c) — under -race — nothing in the
// striped request path races the migration freeze.
func TestConcurrentRequestsDuringMigration(t *testing.T) {
	services, addrs := concurrentCluster(t)
	src := services[0]

	const workers = 8
	const creates = 40

	setup, err := rpc.Dial(addrs[0])
	if err != nil {
		t.Fatal(err)
	}
	defer setup.Close()
	// Per-worker directories (never migrated) and the subtree the
	// migration loop bounces between the two shards.
	var workDirs [workers]*namespace.Inode
	for w := 0; w < workers; w++ {
		d, err := callCreate(setup, namespace.RootIno, fmt.Sprintf("work%d", w), namespace.TypeDir)
		if err != nil {
			t.Fatal(err)
		}
		workDirs[w] = d
	}
	mig, err := callCreate(setup, namespace.RootIno, "mig", namespace.TypeDir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := callCreate(setup, mig.Ino, fmt.Sprintf("f%d", i), namespace.TypeFile); err != nil {
			t.Fatal(err)
		}
	}

	var wg sync.WaitGroup
	workersDone := make(chan struct{})
	created := make([][]namespace.Ino, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c, err := rpc.Dial(addrs[0])
			if err != nil {
				t.Errorf("worker %d dial: %v", w, err)
				return
			}
			defer c.Close()
			dir := workDirs[w].Ino
			for i := 0; i < creates; i++ {
				in, err := callCreate(c, dir, fmt.Sprintf("f%04d", i), namespace.TypeFile)
				if err != nil {
					t.Errorf("worker %d create %d: %v", w, i, err)
					return
				}
				created[w] = append(created[w], in.Ino)
				var g rpc.Wire
				g.U64(uint64(dir))
				if _, err := c.Call(MethodGetattr, g.Bytes()); err != nil {
					t.Errorf("worker %d getattr %d: %v", w, dir, err)
					return
				}
				var r rpc.Wire
				r.U64(uint64(dir))
				out, err := c.Call(MethodReaddir, r.Bytes())
				if err != nil {
					t.Errorf("worker %d readdir: %v", w, err)
					return
				}
				if ents, err := decodeInodesResp(out); err != nil || len(ents) < i+1 {
					t.Errorf("worker %d readdir saw %d entries after %d creates (err=%v)", w, len(ents), i+1, err)
					return
				}
			}
		}(w)
	}
	go func() { wg.Wait(); close(workersDone) }()

	// Migration loop: two-phase prepare/commit bouncing the "mig"
	// subtree src→dst→src while the workers run. Each prepare holds the
	// exclusive freeze, quiescing every in-flight striped op.
	cycles := 0
	var migErr error
	for done := false; !done; {
		select {
		case <-workersDone:
			done = true
		default:
		}
		owner, dest := cycles%2, (cycles+1)%2
		var p rpc.Wire
		p.U64(uint64(mig.Ino)).U32(uint32(dest))
		if _, migErr = services[owner].handleMigratePrepare(p.Bytes()); migErr != nil {
			break
		}
		var cm rpc.Wire
		cm.U64(uint64(mig.Ino))
		if _, migErr = services[owner].handleMigrateCommit(cm.Bytes()); migErr != nil {
			break
		}
		cycles++
	}
	<-workersDone
	if migErr != nil {
		t.Fatalf("migration cycle %d: %v", cycles, migErr)
	}
	if cycles < 2 {
		t.Fatalf("only %d migration cycles completed, want >= 2", cycles)
	}

	// Every acknowledged create must be visible with the acknowledged
	// inode number: nothing got lost under the stripes or the freeze.
	for w := 0; w < workers; w++ {
		if len(created[w]) != creates {
			t.Fatalf("worker %d acknowledged %d creates, want %d (worker errored)", w, len(created[w]), creates)
		}
		for i, ino := range created[w] {
			in, found, err := src.store.Lookup(workDirs[w].Ino, fmt.Sprintf("f%04d", i))
			if err != nil || !found {
				t.Fatalf("worker %d file %d lost: found=%v err=%v", w, i, found, err)
			}
			if in.Ino != ino {
				t.Fatalf("worker %d file %d: ino %d, acknowledged %d", w, i, in.Ino, ino)
			}
		}
	}
	// The migrated subtree still has exactly its three files, wherever
	// it landed.
	ownerNow := services[cycles%2]
	kids, err := ownerNow.store.ReadDir(mig.Ino)
	if err != nil || len(kids) != 3 {
		t.Fatalf("migrated dir has %d entries on MDS %d (err=%v), want 3", len(kids), ownerNow.ID, err)
	}
}

// TestConcurrentDuplicateCreates races many RPC clients creating the
// same names in one shared directory and asserts exactly one winner per
// name — the atomicity CreateEntry's stripe lock provides. Before the
// striped store, two racing creates could both pass the exists check
// and both be acknowledged.
func TestConcurrentDuplicateCreates(t *testing.T) {
	_, addrs := concurrentCluster(t)

	setup, err := rpc.Dial(addrs[0])
	if err != nil {
		t.Fatal(err)
	}
	defer setup.Close()
	shared, err := callCreate(setup, namespace.RootIno, "shared", namespace.TypeDir)
	if err != nil {
		t.Fatal(err)
	}

	const racers = 6
	const names = 20
	wins := make([]atomic.Int64, names)
	var wg sync.WaitGroup
	for g := 0; g < racers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := rpc.Dial(addrs[0])
			if err != nil {
				t.Errorf("dial: %v", err)
				return
			}
			defer c.Close()
			for n := 0; n < names; n++ {
				_, err := callCreate(c, shared.Ino, fmt.Sprintf("n%03d", n), namespace.TypeFile)
				switch {
				case err == nil:
					wins[n].Add(1)
				case ErrCode(err) == CodeExist:
					// expected for every losing racer
				default:
					t.Errorf("create n%03d: unexpected error %v", n, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	for n := 0; n < names; n++ {
		if got := wins[n].Load(); got != 1 {
			t.Errorf("name n%03d: %d acknowledged creates, want exactly 1", n, got)
		}
	}
}

// decodeInodesResp parses the inode list that opens a readdir response
// (the lease trailer after it is ignored).
func decodeInodesResp(body []byte) ([]*namespace.Inode, error) {
	r := rpc.NewReader(body)
	n := int(r.U32())
	var out []*namespace.Inode
	for i := 0; i < n && r.Err() == nil; i++ {
		in, err := namespace.DecodeInode(r.Blob())
		if err != nil {
			return nil, err
		}
		out = append(out, in)
	}
	return out, r.Err()
}
