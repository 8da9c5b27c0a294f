package cluster

import "origami/internal/namespace"

// Cache is the client-side near-root metadata cache interface (§4.2). The
// SDK consults it during path resolution: a cached prefix of the path is
// resolved locally, saving inode reads and RPCs. Only the prefix strictly
// before the target component is eligible — the target itself is always
// served by its MDS, which keeps attribute reads authoritative.
type Cache interface {
	// Contains reports whether the directory is resolvable client-side.
	Contains(ino namespace.Ino) bool
	// Insert offers a resolved directory at the given depth to the cache.
	Insert(ino namespace.Ino, depth int)
	// Invalidate drops a directory, e.g. after it is renamed or removed.
	Invalidate(ino namespace.Ino)
	// Len returns the number of cached entries.
	Len() int
}

// NearRootCache caches directories with depth below a threshold.
// Because near-root metadata is typically far less than 1% of the
// namespace and nearly immutable, this needs no capacity bound, lease or
// synchronisation machinery (§4.2); local invalidation on observed
// mutations suffices.
type NearRootCache struct {
	threshold int
	entries   map[namespace.Ino]struct{}
}

// NewNearRootCache creates a cache admitting directories with
// depth < threshold. Threshold 0 disables caching entirely.
func NewNearRootCache(threshold int) *NearRootCache {
	return &NearRootCache{threshold: threshold, entries: make(map[namespace.Ino]struct{})}
}

// Contains implements Cache.
func (c *NearRootCache) Contains(ino namespace.Ino) bool {
	_, ok := c.entries[ino]
	return ok
}

// Insert implements Cache, admitting only near-root directories.
func (c *NearRootCache) Insert(ino namespace.Ino, depth int) {
	if depth < c.threshold {
		c.entries[ino] = struct{}{}
	}
}

// Invalidate implements Cache.
func (c *NearRootCache) Invalidate(ino namespace.Ino) { delete(c.entries, ino) }

// Len implements Cache.
func (c *NearRootCache) Len() int { return len(c.entries) }

// NoCache is the always-empty cache, used for the cache-off ablation.
type NoCache struct{}

// Contains implements Cache; always false.
func (NoCache) Contains(namespace.Ino) bool { return false }

// Insert implements Cache; drops everything.
func (NoCache) Insert(namespace.Ino, int) {}

// Invalidate implements Cache.
func (NoCache) Invalidate(namespace.Ino) {}

// Len implements Cache; always 0.
func (NoCache) Len() int { return 0 }
