package cluster

import (
	"testing"

	"origami/internal/namespace"
)

func TestUnboundedCacheNeverEvicts(t *testing.T) {
	c := NewNearRootCache(100)
	for i := namespace.Ino(1); i <= 1000; i++ {
		c.Insert(i, 1)
	}
	if c.Len() != 1000 {
		t.Errorf("Len = %d, want 1000", c.Len())
	}
}

// The bound is the depth threshold: the cache holds no capacity bound.
func TestBoundedCacheInvalidate(t *testing.T) {
	c := NewNearRootCache(10)
	c.Insert(1, 0)
	c.Invalidate(1)
	if c.Contains(1) || c.Len() != 0 {
		t.Error("invalidate failed")
	}
	c.Invalidate(42) // absent: no-op
}
