package kvstore

import "bytes"

// Streaming iteration: Scan merges the memtable and every overlapping
// table through a k-way heap of lazy cursors, so a range scan reads and
// holds only the entries it visits instead of materialising every
// source's slice up front. Source order encodes recency — lower index
// wins on duplicate keys.
//
// Slice lifetime: a table cursor yields key/value slices that alias its
// pooled read buffer, valid only until that cursor's next call to next or
// close. The merge iterator therefore advances a source only on the call
// after the one that emitted its entry.

// cursor yields entries of one source in ascending key order.
type cursor interface {
	// next advances and reports whether an entry is available.
	next() (key, value []byte, tombstone bool, ok bool, err error)
	// close releases the cursor's buffer; the cursor is exhausted after.
	close()
}

// memCursor iterates the skiplist from a start node.
type memCursor struct {
	node *skipNode
	hi   []byte
}

func newMemCursor(s *skiplist, lo, hi []byte) *memCursor {
	return &memCursor{node: s.findGreaterOrEqual(lo, nil), hi: hi}
}

func (c *memCursor) next() ([]byte, []byte, bool, bool, error) {
	if c.node == nil {
		return nil, nil, false, false, nil
	}
	if c.hi != nil && bytes.Compare(c.node.key, c.hi) >= 0 {
		return nil, nil, false, false, nil
	}
	k, v, t := c.node.key, c.node.value, c.node.tombstone
	c.node = c.node.next[0]
	return k, v, t, true, nil
}

func (c *memCursor) close() {}

// Chunk sizing of a table cursor: the first read aims for cursorChunkMin
// bytes (a hasChild probe or a small directory touches a block or two),
// and each further read doubles up to cursorChunkMax, so a full-table
// merge settles on few large reads. A chunk is always whole blocks and at
// least one.
const (
	cursorChunkMin = 4 << 10
	cursorChunkMax = 64 << 10
)

// sstCursor streams the entries of one table with key in [lo, hi): whole
// blocks are read into a pooled buffer, one ReadAt per chunk, and decoded
// in place.
type sstCursor struct {
	t       *sstable
	rs      *readStats
	lo, hi  []byte
	block   int     // next block to load
	last    int     // one past the last block [lo, hi) can touch
	want    int     // size the next chunk aims for
	bp      *[]byte // pooled chunk, nil until the first load and after close
	rest    []byte  // undecoded tail of the chunk
	seeking bool    // still below lo inside the first block
}

func newSSTCursor(t *sstable, lo, hi []byte, rs *readStats) *sstCursor {
	c := &sstCursor{t: t, rs: rs, lo: lo, hi: hi, last: len(t.index), want: cursorChunkMin, seeking: true}
	if c.last > 0 {
		c.block = t.blockFor(lo)
		if hi != nil {
			c.last = t.blockFor(hi) + 1
		}
	}
	return c
}

// load reads the next chunk of whole blocks; false when none is left.
func (c *sstCursor) load() (bool, error) {
	if c.block >= c.last {
		return false, nil
	}
	off := c.t.index[c.block].offset
	end := c.block + 1
	for end < c.last && c.t.blockEnd(end)-off <= int64(c.want) {
		end++
	}
	if c.bp != nil {
		blockPool.Put(c.bp)
	}
	c.bp = getBlockBuf(int(c.t.blockEnd(end-1) - off))
	c.rest = nil
	if err := c.t.readData(*c.bp, off, c.rs); err != nil {
		return false, err
	}
	c.rest = *c.bp
	c.block = end
	if c.want < cursorChunkMax {
		c.want *= 2
	}
	return true, nil
}

func (c *sstCursor) next() ([]byte, []byte, bool, bool, error) {
	for {
		if len(c.rest) == 0 {
			if ok, err := c.load(); !ok {
				return nil, nil, false, false, err
			}
		}
		key, value, tombstone, n, err := decodeEntry(c.rest)
		if err != nil {
			return nil, nil, false, false, err
		}
		c.rest = c.rest[n:]
		if c.seeking {
			if bytes.Compare(key, c.lo) < 0 {
				continue // entries before lo inside the seek block
			}
			c.seeking = false
		}
		if c.hi != nil && bytes.Compare(key, c.hi) >= 0 {
			c.close()
			return nil, nil, false, false, nil
		}
		return key, value, tombstone, true, nil
	}
}

func (c *sstCursor) close() {
	if c.bp != nil {
		blockPool.Put(c.bp)
		c.bp = nil
	}
	c.rest = nil
	c.block = c.last
}

// mergeItem is one heap element: a source's current entry.
type mergeItem struct {
	key       []byte
	value     []byte
	tombstone bool
	src       int // lower = newer
	cur       cursor
}

// mergeIterator drains cursors with newest-wins semantics through a
// binary min-heap ordered by (key, src).
type mergeIterator struct {
	h       []mergeItem
	all     []cursor
	last    []byte // copy of the key emitted by the previous next
	emitted bool
}

// newMergeIterator takes ownership of cursors: close releases them, also
// when construction fails.
func newMergeIterator(cursors []cursor) (*mergeIterator, error) {
	m := &mergeIterator{h: make([]mergeItem, 0, len(cursors)), all: cursors}
	for si, c := range cursors {
		k, v, t, ok, err := c.next()
		if err != nil {
			m.close()
			return nil, err
		}
		if ok {
			m.h = append(m.h, mergeItem{key: k, value: v, tombstone: t, src: si, cur: c})
		}
	}
	for i := len(m.h)/2 - 1; i >= 0; i-- {
		m.siftDown(i)
	}
	return m, nil
}

func (m *mergeIterator) less(i, j int) bool {
	if c := bytes.Compare(m.h[i].key, m.h[j].key); c != 0 {
		return c < 0
	}
	return m.h[i].src < m.h[j].src
}

func (m *mergeIterator) siftDown(i int) {
	for {
		min := i
		for c := 2*i + 1; c <= 2*i+2 && c < len(m.h); c++ {
			if m.less(c, min) {
				min = c
			}
		}
		if min == i {
			return
		}
		m.h[i], m.h[min] = m.h[min], m.h[i]
		i = min
	}
}

// next returns the winning entry for the smallest key, skipping older
// duplicates, including tombstones (the caller filters). The returned
// slices are valid until the following call to next or close.
func (m *mergeIterator) next() (key, value []byte, tombstone bool, ok bool, err error) {
	// Step every source still sitting on the previously emitted key past
	// it — the winner, whose slices the caller has finished with by now,
	// and any older duplicates.
	for m.emitted && len(m.h) > 0 && bytes.Equal(m.h[0].key, m.last) {
		top := &m.h[0]
		k, v, t, more, err := top.cur.next()
		if err != nil {
			return nil, nil, false, false, err
		}
		if more {
			top.key, top.value, top.tombstone = k, v, t
		} else {
			n := len(m.h) - 1
			m.h[0] = m.h[n]
			m.h = m.h[:n]
		}
		m.siftDown(0)
	}
	if len(m.h) == 0 {
		return nil, nil, false, false, nil
	}
	win := &m.h[0]
	m.last = append(m.last[:0], win.key...)
	m.emitted = true
	return win.key, win.value, win.tombstone, true, nil
}

func (m *mergeIterator) close() {
	for _, c := range m.all {
		c.close()
	}
}
