package lease

import (
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"origami/internal/namespace"
	"origami/internal/telemetry"
)

// ClientCache is the SDK-side dentry/inode cache. It holds the inode
// pointers it is handed, not copies: an inode put into the cache is
// read-only from then on, for the cache and for whoever else holds it.
// Entries are grouped by parent directory and are only served while
// that directory's lease grant is unexpired; a grant observed on any RPC
// response with a different ID or a newer epoch flushes the directory.
// Negative entries (name proven absent by the owner) are cached the same
// way, so a warm miss costs zero RPCs too.
//
// A directory is also cached *complete* once a listing of it is admitted
// that accounts for every positive entry held; Listing then serves the
// whole directory, so a warm Readdir costs zero RPCs as a warm Stat does.
// Completeness survives revalidation, the client's own mutations adopted
// as exactly one epoch step (their Put and PutNegative patch the
// listing) and a refresh of a listed name that keeps its ino and type.
// It is lost with the entries (a flush, expiry, Forget, Flush), by a
// DropEntry of a positive name, by a Put that changes a listed name's
// ino or type, and by a patch refused because the directory already moved
// past its epoch — the cache no longer knows what the owner lists.
//
// Writes are epoch-conditional: Put, PutListing and PutNegative carry
// the grant that rode the same response as the data, and the cache
// accepts the entry only while that grant is still current. Responses
// processed out of order (two goroutines sharing one client) therefore
// cannot seed data the server has already moved past — a stale
// response's grant is ignored by Observe and its entries are rejected
// by Put.
//
// A cache holds nothing it could no longer serve: a directory whose
// lease ran out is dropped even if this client never calls again. Lookup
// does that for the directory it touches; for idle clients the caches
// made by Fork form a group, and whichever member observes a grant past
// the group's sweep deadline (one TTL after the previous sweep) sweeps
// all of them — so an idle fork is empty at most 2×TTL after its last
// call, as long as any sibling still talks to the cluster.
type ClientCache struct {
	mu   sync.Mutex
	now  func() time.Time
	dirs map[namespace.Ino]*dirState

	hits          *telemetry.Counter
	misses        *telemetry.Counter
	negHits       *telemetry.Counter
	invalidations *telemetry.Counter
	// entries is shared by every cache on the registry, so each cache
	// applies deltas and the gauge reads as their sum.
	entries  *telemetry.Gauge
	nEntries int
	group    *sweepGroup
}

type dirState struct {
	id      uint64
	epoch   uint64
	expires time.Time
	pos     map[string]*namespace.Inode
	neg     map[string]struct{}
	// complete: pos holds every name the directory has at (id, epoch).
	// listing is then pos in the owner's key order, shared with every
	// caller Listing served it to; nil until it is next built.
	complete bool
	listing  []*namespace.Inode
}

// sweepGroup is the set of sibling caches (a root and its forks) that
// sweep each other. Only caches that currently hold a directory are
// members: a cache joins when it adopts its first grant and leaves when
// it empties, so the group never keeps an abandoned fork alive for longer
// than its leases and fork churn does not grow it. Lock order: a cache's
// mu, then the group's.
type sweepGroup struct {
	next    atomic.Int64 // sweep deadline, unix nanoseconds
	mu      sync.Mutex
	members map[*ClientCache]struct{}
}

// NewClientCache builds an empty cache registering its metrics with reg.
func NewClientCache(reg *telemetry.Registry) *ClientCache {
	return &ClientCache{
		now:           time.Now,
		dirs:          make(map[namespace.Ino]*dirState),
		hits:          reg.Counter("client.cache.hits"),
		misses:        reg.Counter("client.cache.misses"),
		negHits:       reg.Counter("client.cache.negative_hits"),
		invalidations: reg.Counter("client.cache.invalidations"),
		entries:       reg.Gauge("cache.entries.active"),
		group:         &sweepGroup{members: make(map[*ClientCache]struct{})},
	}
}

// Fork returns an empty sibling cache: its own entries and clock, the
// parent's metrics and sweep group.
func (c *ClientCache) Fork() *ClientCache {
	return &ClientCache{
		now:           time.Now,
		dirs:          make(map[namespace.Ino]*dirState),
		hits:          c.hits,
		misses:        c.misses,
		negHits:       c.negHits,
		invalidations: c.invalidations,
		entries:       c.entries,
		group:         c.group,
	}
}

// SetNow overrides the clock; tests use it to force lease expiry.
func (c *ClientCache) SetNow(now func() time.Time) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now = now
}

// Lookup serves name under dir from cache. It returns (inode, false,
// true) on a positive hit, (nil, true, true) on a cached negative, and
// ok=false when the cache cannot answer — no lease, an expired lease,
// or simply no entry for the name. Walk applies the same rule to every
// component of a path.
func (c *ClientCache) Lookup(dir namespace.Ino, name string) (in *namespace.Inode, negative, ok bool) {
	c.mu.Lock()
	in, negative, ok = c.lookupLocked(dir, name, c.now())
	c.mu.Unlock()
	hits := 0
	if ok && !negative {
		hits = 1
	}
	c.tally(hits, negative, !ok)
	return in, negative, ok
}

// Walk serves the cached prefix of path, its first component under dir
// and each next one under the inode the one before it named: Lookup
// repeated down the path under one lock hold and one clock read, with
// the hits and the miss those Lookups would count added once. It appends
// every inode served to out and returns it, plus end, the offset in path
// just past the last component served, and negative: whether the
// component after end is a cached negative, so the path does not exist.
// Otherwise the walk ended at a miss or at the end of path.
func (c *ClientCache) Walk(dir namespace.Ino, path string, out []*namespace.Inode) (_ []*namespace.Inode, end int, negative bool) {
	hits, missed := 0, false
	c.mu.Lock()
	now := c.now()
	for {
		name, next, more := namespace.NextComponent(path, end)
		if !more {
			break
		}
		in, neg, ok := c.lookupLocked(dir, name, now)
		if !ok || neg {
			missed, negative = !ok, neg
			break
		}
		out = append(out, in)
		hits++
		dir, end = in.Ino, next
	}
	c.mu.Unlock()
	c.tally(hits, negative, missed)
	return out, end, negative
}

// lookupLocked is the rule every cached lookup follows: a directory
// whose lease ran out by now answers nothing (and is dropped), a cached
// negative answers as one, and a name with neither entry is a miss.
func (c *ClientCache) lookupLocked(dir namespace.Ino, name string, now time.Time) (in *namespace.Inode, negative, ok bool) {
	d := c.liveLocked(dir, now)
	if d == nil {
		return nil, false, false
	}
	if _, bad := d.neg[name]; bad {
		return nil, true, true
	}
	in = d.pos[name]
	return in, false, in != nil
}

// tally adds one lookup's or walk's outcome to the counters: the
// positive entries it served, then the negative or the miss it ended at.
func (c *ClientCache) tally(hits int, negative, missed bool) {
	if hits > 0 {
		c.hits.Add(int64(hits))
	}
	if negative {
		c.negHits.Inc()
	}
	if missed {
		c.misses.Inc()
	}
}

// Listing serves dir's complete listing from cache: every positive
// entry, in the owner's key order (by name). ok is false — a miss — unless
// a PutListing under a still-live lease made the directory complete and
// nothing since cast doubt on it. The slice is shared with the cache and
// with every other caller it was served to: it is read-only, and a warm
// listing allocates nothing.
func (c *ClientCache) Listing(dir namespace.Ino) (list []*namespace.Inode, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	d := c.liveLocked(dir, c.now())
	if d == nil || !d.complete {
		c.misses.Inc()
		return nil, false
	}
	if d.listing == nil {
		// Never written once served: a patch since the last serve builds
		// a fresh slice instead.
		d.listing = make([]*namespace.Inode, 0, len(d.pos))
		for _, in := range d.pos {
			d.listing = append(d.listing, in)
		}
		slices.SortFunc(d.listing, func(a, b *namespace.Inode) int { return strings.Compare(a.Name, b.Name) })
	}
	c.hits.Inc()
	return d.listing, true
}

// liveLocked returns dir's state while its lease is live at now. An
// expired one is dropped: the grant that vouched for its entries ran out,
// and they must not be served past the staleness bound.
func (c *ClientCache) liveLocked(dir namespace.Ino, now time.Time) *dirState {
	d := c.dirs[dir]
	if d != nil && now.After(d.expires) {
		c.dropLocked(dir, d)
		return nil
	}
	return d
}

// Peek is Lookup without the hit/miss accounting, for bookkeeping
// walks (dropping a path's cached prefix) that are not cache traffic.
func (c *ClientCache) Peek(dir namespace.Ino, name string) (in *namespace.Inode, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	d := c.dirs[dir]
	if d == nil || c.now().After(d.expires) {
		return nil, false
	}
	in = d.pos[name]
	return in, in != nil
}

// Observe folds a grant from a read-path response into the cache. An
// unknown lease ID or a newer epoch flushes the directory's entries
// (they were cached under a state the server has moved past) and
// adopts the grant; an older epoch under the same ID means this
// response was overtaken in flight and is ignored wholesale.
func (c *ClientCache) Observe(g Grant) {
	c.observe(g, false)
}

// ObserveMutation is Observe for the response of the client's own
// mutation. Exactly one epoch step (epoch == cached+1) is the bump
// that mutation itself caused, so the cache adopts it without flushing
// — the caller then patches the one entry it changed. Any other
// forward step means someone else mutated too, and the directory
// flushes as usual.
func (c *ClientCache) ObserveMutation(g Grant) {
	c.observe(g, true)
}

func (c *ClientCache) observe(g Grant, ownMutation bool) {
	c.mu.Lock()
	now := c.now()
	c.adoptLocked(g, ownMutation, now)
	c.mu.Unlock()
	// Past the group's deadline one observer (the CAS winner) sweeps every
	// member, holding no cache lock of its own while it does.
	if next := c.group.next.Load(); now.UnixNano() >= next &&
		c.group.next.CompareAndSwap(next, now.Add(g.TTL()).UnixNano()) {
		c.group.sweep()
	}
}

func (c *ClientCache) adoptLocked(g Grant, ownMutation bool, now time.Time) {
	d := c.dirs[g.Dir]
	if d == nil {
		if len(c.dirs) == 0 {
			c.group.mu.Lock()
			c.group.members[c] = struct{}{}
			c.group.mu.Unlock()
		}
		c.dirs[g.Dir] = &dirState{
			id: g.ID, epoch: g.Epoch, expires: now.Add(g.TTL()),
			pos: make(map[string]*namespace.Inode), neg: make(map[string]struct{}),
		}
		return
	}
	if d.id == g.ID {
		switch {
		case g.Epoch == d.epoch:
			// Revalidation: same state, extend the window.
		case ownMutation && g.Epoch == d.epoch+1:
			d.epoch = g.Epoch
		case g.Epoch < d.epoch:
			// A response overtaken in flight; adopting it would regress
			// the epoch and let its Put vouch stale data as current.
			return
		default:
			c.flushLocked(d)
			d.epoch = g.Epoch
		}
	} else {
		c.flushLocked(d)
		d.id = g.ID
		d.epoch = g.Epoch
	}
	d.expires = now.Add(g.TTL())
}

// sweep drops every member's expired directories — by the member's own
// clock, under the rule Lookup applies.
func (g *sweepGroup) sweep() {
	g.mu.Lock()
	members := make([]*ClientCache, 0, len(g.members))
	for m := range g.members {
		members = append(members, m)
	}
	g.mu.Unlock()
	for _, m := range members {
		m.mu.Lock()
		now := m.now()
		for dir, d := range m.dirs {
			if now.After(d.expires) {
				m.dropLocked(dir, d)
			}
		}
		m.mu.Unlock()
	}
}

// addEntriesLocked moves this cache's entry count, and the shared gauge
// with it, by delta.
func (c *ClientCache) addEntriesLocked(delta int) {
	if delta != 0 {
		c.nEntries += delta
		c.entries.Add(float64(delta))
	}
}

func (c *ClientCache) flushLocked(d *dirState) {
	c.addEntriesLocked(-(len(d.pos) + len(d.neg)))
	c.invalidations.Add(int64(len(d.pos) + len(d.neg)))
	// Cleared in place: the maps are the cache's alone (a served listing
	// is a slice of its own), and a directory flushed by every foreign
	// bump would otherwise allocate two maps per bump.
	clear(d.pos)
	clear(d.neg)
	d.complete, d.listing = false, nil
}

// current returns dir's state if it matches the grant's (ID, epoch)
// and the lease is live — the admission check for every Put. Data
// refused because the directory already moved past its epoch under the
// same ID lost a race to a later response: another goroutine's mutation
// can adopt the next step before this one's patch lands, so a listing
// held complete may lack the change the refused data carried, and stops
// being complete.
func (c *ClientCache) current(g Grant) *dirState {
	d := c.dirs[g.Dir]
	if d == nil || d.id != g.ID || d.epoch != g.Epoch || c.now().After(d.expires) {
		if d != nil && d.id == g.ID && d.epoch > g.Epoch {
			d.complete, d.listing = false, nil
		}
		return nil
	}
	return d
}

// Put caches in as name's positive entry under the grant's directory,
// but only while the grant is still the directory's current state: data
// that rode an already-overtaken response must not be served as fresh.
// The cache keeps the pointer it is given, so in is shared from then on
// and nobody may write it. The entry is filed under name, not in.Name:
// the resolve walk files each inode under the component it looked up,
// including one fetched by ino behind a fake-inode redirect. It reports
// whether the entry was admitted.
//
// In a complete directory a new name joins the listing (the grant vouches
// that it exists now), as does a listed name refreshed with the same ino
// and type; a listed name that comes back as another ino or type (a
// redirect target filed over its fake inode) ends completeness.
func (c *ClientCache) Put(g Grant, name string, in *namespace.Inode) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	d := c.current(g)
	if d != nil {
		c.addEntriesLocked(d.put(name, in))
	}
	return d != nil
}

// PutListing seeds a directory listing under the grant that rode it:
// Put for every inode, each under its own name, with one lock, one
// clock read and one admission check. An empty directory's map is sized
// to the listing first, so the map grows once instead of entry by entry.
// list must hold each name once, in the owner's key order, as a
// MethodReaddir response does. When it accounts for every positive entry
// the directory holds, the directory becomes complete and Listing serves
// list itself — shared, so nobody may write list from then on.
func (c *ClientCache) PutListing(g Grant, list []*namespace.Inode) {
	c.mu.Lock()
	defer c.mu.Unlock()
	d := c.current(g)
	if d == nil {
		return
	}
	if len(d.pos) == 0 {
		d.pos = make(map[string]*namespace.Inode, len(list))
	}
	delta := 0
	for _, in := range list {
		delta += d.put(in.Name, in)
	}
	c.addEntriesLocked(delta)
	d.complete = len(d.pos) == len(list)
	d.listing = nil
	if d.complete {
		d.listing = list
	}
}

// put files in under name, replacing a negative, and returns how the
// entry count moved. It keeps a complete directory's listing in step.
func (d *dirState) put(name string, in *namespace.Inode) (delta int) {
	if _, ok := d.neg[name]; ok {
		delete(d.neg, name)
		delta--
	}
	old, held := d.pos[name]
	if !held {
		delta++
	}
	if d.complete && old != in {
		if held && (old.Ino != in.Ino || old.Type != in.Type) {
			d.complete = false
		}
		d.listing = nil
	}
	d.pos[name] = in
	return delta
}

// PutNegative caches "name is absent", under the same admission rule,
// and reports whether it was admitted. A complete directory stays
// complete: the grant vouches that the name is gone now.
func (c *ClientCache) PutNegative(g Grant, name string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	d := c.current(g)
	if d == nil {
		return false
	}
	delta := 0
	if _, ok := d.pos[name]; ok {
		delete(d.pos, name)
		d.listing = nil
		delta--
	}
	if _, ok := d.neg[name]; !ok {
		delta++
	}
	d.neg[name] = struct{}{}
	c.addEntriesLocked(delta)
	return true
}

// DropEntry removes one name from dir's cache (both polarities). No grant
// says what became of a dropped positive name, so its directory is no
// longer complete.
func (c *ClientCache) DropEntry(dir namespace.Ino, name string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	d := c.dirs[dir]
	if d == nil {
		return
	}
	delta := 0
	if _, ok := d.pos[name]; ok {
		delete(d.pos, name)
		d.complete, d.listing = false, nil
		delta--
	}
	if _, ok := d.neg[name]; ok {
		delete(d.neg, name)
		delta--
	}
	c.addEntriesLocked(delta)
}

// Forget drops dir's lease and every entry under it.
func (c *ClientCache) Forget(dir namespace.Ino) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if d := c.dirs[dir]; d != nil {
		c.dropLocked(dir, d)
	}
}

// Flush empties the whole cache. The client calls it when the cluster
// shifts under it (map refresh after a not-owner or transport error):
// correctness first, the next few resolves re-warm it.
func (c *ClientCache) Flush() {
	c.mu.Lock()
	defer c.mu.Unlock()
	for dir, d := range c.dirs {
		c.dropLocked(dir, d)
	}
}

func (c *ClientCache) dropLocked(dir namespace.Ino, d *dirState) {
	c.addEntriesLocked(-(len(d.pos) + len(d.neg)))
	delete(c.dirs, dir)
	if len(c.dirs) == 0 {
		c.group.mu.Lock()
		delete(c.group.members, c)
		c.group.mu.Unlock()
	}
}

// Entries reports how many entries (positive + negative) are cached.
func (c *ClientCache) Entries() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.nEntries
}

// Dirs reports how many directories hold a live client-side lease.
func (c *ClientCache) Dirs() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.dirs)
}
