package lease

import (
	"fmt"
	"testing"

	"origami/internal/namespace"
	"origami/internal/racedetect"
	"origami/internal/telemetry"
)

var sinkMap map[string]*namespace.Inode

// TestListingSeedAllocBudget: seeding a listing costs the directory map
// sized to it and nothing per entry; re-seeding the same names costs
// nothing at all.
func TestListingSeedAllocBudget(t *testing.T) {
	if racedetect.Enabled {
		t.Skip("allocation counts do not hold under the race detector")
	}
	list := make([]*namespace.Inode, 100)
	for i := range list {
		list[i] = &namespace.Inode{Ino: namespace.Ino(100 + i), Name: fmt.Sprintf("f%05d", i)}
	}
	cc := NewClientCache(telemetry.NewRegistry())
	g := Grant{Dir: 2, ID: 1, Epoch: 1, TTLms: 60_000}
	adopt := func() {
		cc.Forget(g.Dir)
		cc.Observe(g)
	}
	// The map's own objects: how many a map presized to the listing takes
	// depends on the runtime's map layout, not on this package.
	presized := testing.AllocsPerRun(100, func() { sinkMap = make(map[string]*namespace.Inode, len(list)) })
	seed := testing.AllocsPerRun(100, func() {
		adopt()
		cc.PutListing(g, list)
	}) - testing.AllocsPerRun(100, adopt)
	if seed > presized {
		t.Errorf("seeding %d entries into a fresh lease allocates %.1f objects, budget %.0f (one presized map)", len(list), seed, presized)
	}
	if got := testing.AllocsPerRun(100, func() { cc.PutListing(g, list) }); got != 0 {
		t.Errorf("re-seeding the same %d names allocates %.1f objects, want 0", len(list), got)
	}
	if got := cc.Entries(); got != len(list) {
		t.Errorf("Entries = %d after seeding %d names", got, len(list))
	}
}
