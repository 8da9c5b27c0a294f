package client

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"

	"origami/internal/lease"
	"origami/internal/namespace"
	"origami/internal/racedetect"
	"origami/internal/rpc"
	"origami/internal/server"
	"origami/internal/telemetry"
)

// testListing builds n file inodes under dir 2, named the way the
// benchmark's preloaded directories name theirs.
func testListing(n int) []*namespace.Inode {
	out := make([]*namespace.Inode, n)
	for i := range out {
		out[i] = &namespace.Inode{Ino: namespace.Ino(100 + i), Parent: 2,
			Name: fmt.Sprintf("f%05d", i), Type: namespace.TypeFile, Mode: 0o644, Nlink: 1}
	}
	return out
}

// listingBody encodes a read response the way the MDS does: the inode
// list, tail (the resolve walk's negative flag, or nothing for a
// listing), the grant trailer and the map version.
func listingBody(children []*namespace.Inode, tail []byte, grants []lease.Grant) []byte {
	var w rpc.Wire
	w.U32(uint32(len(children)))
	for _, in := range children {
		w.Blob(namespace.EncodeInode(in))
	}
	w.Raw(tail)
	lease.AppendGrants(&w, grants)
	w.U64(3)
	return w.Bytes()
}

var testGrant = lease.Grant{Dir: 2, ID: 7, Epoch: 1, TTLms: 60_000}

// heapBytes reports how many bytes of heap fn allocates: the least over
// three runs, since other goroutines (the fuzzing engine's) allocate
// during a run too.
func heapBytes(fn func()) int {
	least := -1
	for i := 0; i < 3; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		fn()
		runtime.ReadMemStats(&after)
		if n := int(after.TotalAlloc - before.TotalAlloc); least < 0 || n < least {
			least = n
		}
	}
	return least
}

// FuzzDecodeInodes feeds arbitrary bytes to the SDK's read-path decoder —
// the inode list of every MethodResolvePath and MethodReaddir response,
// then the grant and map-version trailer. It must never panic and never
// allocate more than a small multiple of the body, and a body it accepts
// yields exactly the records it encodes, names included, none of them
// aliasing the receive buffer the SDK recycles.
func FuzzDecodeInodes(f *testing.F) {
	for _, body := range [][]byte{
		listingBody(nil, nil, nil),
		listingBody(testListing(3), nil, []lease.Grant{testGrant}),
		listingBody(testListing(1), []byte{1}, []lease.Grant{testGrant, {Dir: 9, ID: 1, Epoch: 4, TTLms: 5}}),
		listingBody([]*namespace.Inode{{Ino: 5, Parent: 2}}, nil, nil),
	} {
		f.Add(body)
		f.Add(body[:len(body)-1])
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		recv := bytes.Clone(body)
		var chain []*namespace.Inode
		var grants []lease.Grant
		var err error
		allocated := heapBytes(func() {
			r := rpc.NewReader(recv)
			if chain, err = decodeInodes(r); err == nil {
				grants, _ = decodeTrailer(r, nil)
			}
		})
		if limit := 4*len(body) + 1024; allocated > limit {
			t.Fatalf("decoding a %d-byte body allocated %d bytes", len(body), allocated)
		}
		if err != nil {
			return
		}
		if len(grants)*28 > len(body) { // a grant is 28 bytes on the wire
			t.Fatalf("%d grants from a %d-byte body", len(grants), len(body))
		}
		for i := range recv {
			recv[i] = 0xff // the SDK reuses its receive buffer
		}
		r := rpc.NewReader(body)
		r.U32()
		for i, in := range chain {
			blob := r.Blob()
			if want := namespace.AppendInode(nil, in); !bytes.HasPrefix(blob, want) {
				t.Fatalf("inode %d decodes as %+v, which encodes as %x; the body holds %x", i, in, want, blob)
			}
		}
	})
}

// TestDecodeInodesAllocBudget: decoding an inode list costs the slab, the
// pointer slice and the one string every name shares, however many
// inodes it holds.
func TestDecodeInodesAllocBudget(t *testing.T) {
	if racedetect.Enabled {
		t.Skip("allocation counts do not hold under the race detector")
	}
	const budget = 3
	for name, body := range map[string][]byte{
		"listing-100": listingBody(testListing(100), nil, []lease.Grant{testGrant}),
		"resolve-1":   listingBody(testListing(1), []byte{0}, []lease.Grant{testGrant}),
	} {
		decode := func() {
			if _, err := decodeInodes(rpc.NewReader(body)); err != nil {
				t.Fatal(err)
			}
		}
		if got := testing.AllocsPerRun(200, decode); got > budget {
			t.Errorf("%s: decodeInodes allocates %.1f objects, budget %d", name, got, budget)
		}
	}
}

// BenchmarkReaddirSeed is the SDK's side of a cold Readdir after the
// bytes arrive: decode a 100-entry MethodReaddir body, fold its grant in
// and seed the listing into the lease cache — into a lease adopted just
// before (fresh), or over the same names under the same grant (warm).
func BenchmarkReaddirSeed(b *testing.B) {
	body := listingBody(testListing(100), nil, []lease.Grant{testGrant})
	for _, fresh := range []bool{true, false} {
		name := "warm"
		if fresh {
			name = "fresh"
		}
		b.Run(name, func(b *testing.B) {
			cache := lease.NewClientCache(telemetry.NewRegistry())
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				r := rpc.NewReader(body)
				children, err := decodeInodes(r)
				if err != nil {
					b.Fatal(err)
				}
				var few [2]lease.Grant
				grants, _ := decodeTrailer(r, few[:0])
				if fresh {
					cache.Forget(testGrant.Dir)
				}
				cache.Observe(grants[0])
				cache.PutListing(grants[0], children)
			}
		})
	}
}

// BenchmarkReaddirWarm is a warm Readdir end to end in the SDK: a
// 100-entry directory on a one-MDS loopback cluster whose complete listing
// the lease cache holds, so every iteration is served with no RPC.
func BenchmarkReaddirWarm(b *testing.B) {
	cl, err := server.StartCluster(1, b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	defer cl.Close()
	c, err := Dial(Config{Addrs: cl.Addrs})
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Mkdir("/w"); err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if _, err := c.Create(fmt.Sprintf("/w/f%05d", i)); err != nil {
			b.Fatal(err)
		}
	}
	if _, err := c.Readdir("/w"); err != nil {
		b.Fatal(err)
	}
	rpcs := c.RPCCount.Load()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Readdir("/w"); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if got := c.RPCCount.Load() - rpcs; got != 0 {
		b.Fatalf("%d warm readdirs cost %d RPCs", b.N, got)
	}
}
