// Package kvstore implements the local, durable key-value store each
// metadata server uses to persist inode records. It is a from-scratch
// reimplementation of the design OrigamiFS adopts from PebblesDB (Raju et
// al., SOSP'17): a log-structured merge tree whose levels are partitioned
// by probabilistically chosen "guard" keys, and whose compactions never
// rewrite files across guard boundaries ("fragmented" compaction). The
// trade is slightly higher read fan-out inside a guard for dramatically
// lower write amplification — a good fit for metadata workloads where
// writes (create/mkdir/rename) dominate.
//
// The store offers Put / Delete / Get / Scan / ApplyBatch over []byte keys
// and values, durability through a CRC-framed write-ahead log, and crash
// recovery on Open. Mutations serialise on a write mutex (WAL order ==
// memtable order == replay order) and take the structure lock exclusively
// only for the memtable insert, so point and range reads — which hold the
// structure lock shared — run concurrently with each other and overlap
// everything in the write path except that brief insert. Under SyncWAL,
// durability uses group commit: concurrent writers share WAL fsyncs.
// Flush and compaction run inline under both locks at well-defined points
// so that tests and the discrete-event simulator stay deterministic.
//
// A tombstone exists only while the tables beneath it still hold a live
// version of its key, as a point read of those tables finds it. A delete
// whose key they do not hold cancels the key's memtable node instead,
// charged to the memtable's size as an in-place tombstone would be, so
// the flush cadence does not change; WAL replay applies records through
// the same function. Compaction drops a tombstone once nothing beneath
// its output holds a live version of the key.
package kvstore

import (
	"bytes"
	"math/rand"
)

const (
	skiplistMaxHeight = 16
	skiplistBranching = 4
)

// skipNode is one entry in the memtable. A node is immutable except for
// value/tombstone, which are overwritten in place when the same key is
// put again (last writer wins within a memtable).
type skipNode struct {
	key       []byte
	value     []byte
	tombstone bool
	next      []*skipNode
}

// skiplist is an in-memory ordered map used as the memtable. It is not
// safe for concurrent use; the DB's mutex guards it.
type skiplist struct {
	head   *skipNode
	height int
	rnd    *rand.Rand
	n      int // number of nodes, tombstones included
	bytes  int // approximate memory footprint of keys+values
}

func newSkiplist(seed int64) *skiplist {
	return &skiplist{
		head:   &skipNode{next: make([]*skipNode, skiplistMaxHeight)},
		height: 1,
		rnd:    rand.New(rand.NewSource(seed)),
	}
}

func (s *skiplist) randomHeight() int {
	h := 1
	for h < skiplistMaxHeight && s.rnd.Intn(skiplistBranching) == 0 {
		h++
	}
	return h
}

// findGreaterOrEqual returns the first node with key >= target, filling
// prev with the rightmost node before the target at every level when
// prev != nil.
func (s *skiplist) findGreaterOrEqual(target []byte, prev []*skipNode) *skipNode {
	x := s.head
	for level := s.height - 1; level >= 0; level-- {
		for x.next[level] != nil && bytes.Compare(x.next[level].key, target) < 0 {
			x = x.next[level]
		}
		if prev != nil {
			prev[level] = x
		}
	}
	return x.next[0]
}

// put inserts or overwrites key. tombstone records a deletion marker.
func (s *skiplist) put(key, value []byte, tombstone bool) {
	prev := make([]*skipNode, skiplistMaxHeight)
	for i := range prev {
		prev[i] = s.head
	}
	if n := s.findGreaterOrEqual(key, prev); n != nil && bytes.Equal(n.key, key) {
		s.bytes += len(value) - len(n.value)
		n.value = value
		n.tombstone = tombstone
		return
	}
	h := s.randomHeight()
	if h > s.height {
		s.height = h
	}
	node := &skipNode{key: key, value: value, tombstone: tombstone, next: make([]*skipNode, h)}
	for level := 0; level < h; level++ {
		node.next[level] = prev[level].next[level]
		prev[level].next[level] = node
	}
	s.n++
	s.bytes += len(key) + len(value) + 48 // rough per-node overhead
}

// cancel applies a delete that needs no tombstone: no table below the
// memtable holds a live version of the key, so its node, if any, is
// unlinked, and an absent key inserts nothing. The footprint is charged
// as an in-place tombstone would be charged (a node's value goes, an
// absent key costs a node), so a memtable of create/remove churn still
// fills, flushes and retires its log at the pace it did when every
// delete left a node.
func (s *skiplist) cancel(key []byte) {
	prev := make([]*skipNode, skiplistMaxHeight)
	n := s.findGreaterOrEqual(key, prev)
	if n == nil || !bytes.Equal(n.key, key) {
		s.bytes += len(key) + 48
		return
	}
	for level := range n.next {
		prev[level].next[level] = n.next[level]
	}
	s.n--
	s.bytes -= len(n.value)
}

// get returns the value for key. found reports whether the key is present
// at all (including as a tombstone); deleted reports a tombstone.
func (s *skiplist) get(key []byte) (value []byte, found, deleted bool) {
	n := s.findGreaterOrEqual(key, nil)
	if n == nil || !bytes.Equal(n.key, key) {
		return nil, false, false
	}
	if n.tombstone {
		return nil, true, true
	}
	return n.value, true, false
}

// scan visits entries in [lo, hi) in key order, including tombstones, until
// fn returns false. A nil hi means "to the end".
func (s *skiplist) scan(lo, hi []byte, fn func(key, value []byte, tombstone bool) bool) {
	n := s.findGreaterOrEqual(lo, nil)
	for n != nil {
		if hi != nil && bytes.Compare(n.key, hi) >= 0 {
			return
		}
		if !fn(n.key, n.value, n.tombstone) {
			return
		}
		n = n.next[0]
	}
}

func (s *skiplist) len() int       { return s.n }
func (s *skiplist) sizeBytes() int { return s.bytes }
