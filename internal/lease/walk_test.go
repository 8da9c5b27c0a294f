package lease

import (
	"slices"
	"testing"
	"time"

	"origami/internal/namespace"
	"origami/internal/telemetry"
)

// walkFixture caches /a/b/c/f under four directories — root (1), a (2),
// b (3), c (4) — plus a negative "gone" under b, every lease valid for a
// second from t0 except b's, which runs out after 100ms.
func walkFixture(reg *telemetry.Registry) (*ClientCache, time.Time) {
	cc := NewClientCache(reg)
	t0 := time.Unix(3000, 0)
	now := t0
	cc.SetNow(func() time.Time { return now })
	dirs := []struct {
		dir   namespace.Ino
		name  string
		child *namespace.Inode
		ttlMS uint32
	}{
		{1, "a", &namespace.Inode{Ino: 2, Type: namespace.TypeDir}, 1000},
		{2, "b", &namespace.Inode{Ino: 3, Type: namespace.TypeDir}, 1000},
		{3, "c", &namespace.Inode{Ino: 4, Type: namespace.TypeDir}, 100},
		{4, "f", &namespace.Inode{Ino: 5, Type: namespace.TypeFile}, 1000},
	}
	for _, d := range dirs {
		g := Grant{Dir: d.dir, ID: 1, Epoch: 1, TTLms: d.ttlMS}
		cc.Observe(g)
		cc.Put(g, d.name, d.child)
		if d.dir == 3 {
			cc.PutNegative(g, "gone")
		}
	}
	return cc, t0
}

func inos(list []*namespace.Inode) []namespace.Ino {
	out := make([]namespace.Ino, len(list))
	for i, in := range list {
		out[i] = in.Ino
	}
	return out
}

func TestWalkServesCachedPrefix(t *testing.T) {
	cc, _ := walkFixture(telemetry.NewRegistry())
	for _, tc := range []struct {
		path     string
		want     []namespace.Ino
		rest     string // what follows end
		negative bool
	}{
		{"/a/b/c/f", []namespace.Ino{2, 3, 4, 5}, "", false},
		{"a//b/./c", []namespace.Ino{2, 3, 4}, "", false},
		{"/a/b/x/y", []namespace.Ino{2, 3}, "/x/y", false},
		{"/a/b/gone/y", []namespace.Ino{2, 3}, "/gone/y", true},
		{"/a/b/c/f/g", []namespace.Ino{2, 3, 4, 5}, "/g", false},
		{"/", nil, "/", false},
	} {
		walked, end, negative := cc.Walk(namespace.RootIno, tc.path, nil)
		if got := inos(walked); !slices.Equal(got, tc.want) {
			t.Errorf("%s: walked %v, want %v", tc.path, got, tc.want)
		}
		if rest := tc.path[end:]; rest != tc.rest || negative != tc.negative {
			t.Errorf("%s: rest %q negative %v, want %q %v", tc.path, rest, negative, tc.rest, tc.negative)
		}
	}
}

// TestWalkStopsAtExpiredLease: a lease that ran out mid-path ends the walk
// at that directory — its entries are not served past the staleness bound
// and the directory is dropped, as a Lookup there would drop it.
func TestWalkStopsAtExpiredLease(t *testing.T) {
	cc, t0 := walkFixture(telemetry.NewRegistry())
	later := t0.Add(500 * time.Millisecond) // past b's lease, within the rest
	cc.SetNow(func() time.Time { return later })
	walked, end, negative := cc.Walk(namespace.RootIno, "/a/b/c/f", nil)
	if got := inos(walked); !slices.Equal(got, []namespace.Ino{2, 3}) || negative {
		t.Fatalf("walked %v (negative %v), want [2 3]", got, negative)
	}
	if rest := "/a/b/c/f"[end:]; rest != "/c/f" {
		t.Errorf("walk ended before %q, want before /c/f", rest)
	}
	if cc.Dirs() != 3 {
		t.Errorf("%d directories after the walk, want 3 (b's expired lease dropped)", cc.Dirs())
	}
	// The same path by a negative under the expired directory: no longer
	// known absent, only not known.
	if _, _, negative := cc.Walk(namespace.RootIno, "/a/b/gone", nil); negative {
		t.Error("a negative under an expired lease was served")
	}
}

// TestWalkCountsLikeLookups: a walk adds to the hit, negative-hit and miss
// counters exactly what one Lookup per component would have added, so
// client.cache_hit_share reads the same. The Lookups follow the SDK's old
// walk: component by component, stopping at the first miss or negative.
func TestWalkCountsLikeLookups(t *testing.T) {
	paths := []string{"/a/b/c/f", "/a/b/x/y", "/a/b/gone/y", "/z", "/", "/a/b/c/f/g", "/a"}
	counters := func(reg *telemetry.Registry) [3]int64 {
		return [3]int64{
			reg.Counter("client.cache.hits").Value(),
			reg.Counter("client.cache.negative_hits").Value(),
			reg.Counter("client.cache.misses").Value(),
		}
	}
	for _, at := range []time.Duration{0, 500 * time.Millisecond, 2 * time.Second} {
		walkReg, lookupReg := telemetry.NewRegistry(), telemetry.NewRegistry()
		walker, t0 := walkFixture(walkReg)
		looker, _ := walkFixture(lookupReg)
		now := t0.Add(at)
		walker.SetNow(func() time.Time { return now })
		looker.SetNow(func() time.Time { return now })
		for _, p := range paths {
			walker.Walk(namespace.RootIno, p, nil)
			dir := namespace.RootIno
			for off := 0; ; {
				name, end, more := namespace.NextComponent(p, off)
				if !more {
					break
				}
				in, negative, ok := looker.Lookup(dir, name)
				if !ok || negative {
					break
				}
				dir, off = in.Ino, end
			}
		}
		if w, l := counters(walkReg), counters(lookupReg); w != l {
			t.Errorf("at +%v: walks counted hits/negative/misses %v, lookups %v", at, w, l)
		}
		if counters(walkReg) == [3]int64{} {
			t.Errorf("at +%v: nothing counted", at)
		}
	}
}
