package kvstore

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sort"
	"sync"
	"sync/atomic"
)

// An SSTable is an immutable, sorted run of entries:
//
//	data:    [1B kind][4B keyLen][key][4B valLen][value] ...
//	filter:  bloom filter over every key, bloomBitsPerKey bits each
//	index:   every indexInterval-th entry's [4B keyLen][key][8B offset],
//	         then [4B keyLen][maxKey]
//	footer:  [8B filterOff][8B indexOff][4B indexCount][4B entryCount]
//	         [4B crc32(filter ‖ index ‖ footer so far)][8B magic]
//
// The data between two consecutive index offsets is a block: at most
// indexInterval entries, the unit a point read fetches with one ReadAt
// and decodes in place. Filter and index are loaded (and checksummed) on
// open; data blocks are read on demand and rely on the OS page cache —
// there is no block cache, so I/O errors stay errors and memory stays
// the kernel's to reclaim. decodeEntry is the only decoder of the entry
// layout: point reads, the scan cursor and (through the cursor)
// compaction all walk blocks with it.

const (
	indexInterval   = 16
	footerSize      = 8 + 8 + 4 + 4 + 4 + 8
	footerCRCOff    = footerSize - 12
	bloomBitsPerKey = 10
	bloomProbes     = 7 // ≈ ln2 × bloomBitsPerKey
)

const tableMagic uint64 = 0x0419a3f1f5db7a62

// ErrCorruptTable reports a structurally invalid SSTable file.
var ErrCorruptTable = errors.New("kvstore: corrupt sstable")

// readStats counts the read path's attempts and useful work. Readers
// bump them holding only the shared lock, hence atomics.
type readStats struct {
	tableProbes atomic.Int64 // tables whose key range covered a Get's key
	bloomSkips  atomic.Int64 // probes the filter answered "not here"
	blockReads  atomic.Int64 // data ReadAt calls (point reads and cursor chunks)
	scanSkips   atomic.Int64 // entries Scans walked without yielding
}

// decodeEntry decodes the entry at the head of b. key and value alias b;
// n is the entry's encoded length. Every length is checked against b, so
// arbitrary bytes yield ErrCorruptTable, never a panic.
func decodeEntry(b []byte) (key, value []byte, tombstone bool, n int, err error) {
	if len(b) < 9 {
		return nil, nil, false, 0, fmt.Errorf("%w: truncated entry header", ErrCorruptTable)
	}
	klen := uint64(binary.BigEndian.Uint32(b[1:]))
	if klen > uint64(len(b)-9) {
		return nil, nil, false, 0, fmt.Errorf("%w: entry key overruns block", ErrCorruptTable)
	}
	vlen := uint64(binary.BigEndian.Uint32(b[5+klen:]))
	if vlen > uint64(len(b)-9)-klen {
		return nil, nil, false, 0, fmt.Errorf("%w: entry value overruns block", ErrCorruptTable)
	}
	switch b[0] {
	case walKindPut:
	case walKindDelete:
		tombstone = true
	default:
		return nil, nil, false, 0, fmt.Errorf("%w: entry kind %d", ErrCorruptTable, b[0])
	}
	n = 9 + int(klen) + int(vlen)
	return b[5 : 5+klen], b[9+klen : n], tombstone, n, nil
}

// bloomHash is the 64-bit key hash behind the table filters (FNV-1a with
// a final mix so the two halves used for double hashing are independent).
func bloomHash(key []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, c := range key {
		h = (h ^ uint64(c)) * 1099511628211
	}
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	return h
}

// bloomFilter is a table's filter block. An empty filter admits every
// key.
type bloomFilter []byte

func buildBloom(hashes []uint64) bloomFilter {
	f := make(bloomFilter, (len(hashes)*bloomBitsPerKey+7)/8)
	nbits := uint64(len(f)) * 8
	for _, h := range hashes {
		delta := h>>32 | 1
		for i := 0; i < bloomProbes; i++ {
			bit := h % nbits
			f[bit/8] |= 1 << (bit % 8)
			h += delta
		}
	}
	return f
}

func (f bloomFilter) mayContain(h uint64) bool {
	nbits := uint64(len(f)) * 8
	if nbits == 0 {
		return true
	}
	delta := h>>32 | 1
	for i := 0; i < bloomProbes; i++ {
		bit := h % nbits
		if f[bit/8]&(1<<(bit%8)) == 0 {
			return false
		}
		h += delta
	}
	return true
}

// blockPool recycles block buffers across reads. Request goroutines are
// short-lived, so a multi-KiB stack array would instead pay stack growth
// on every request.
var blockPool = sync.Pool{New: func() any { return new([]byte) }}

// getBlockBuf returns a pooled buffer of length n.
func getBlockBuf(n int) *[]byte {
	bp := blockPool.Get().(*[]byte)
	if cap(*bp) < n {
		*bp = make([]byte, n)
	}
	*bp = (*bp)[:n]
	return bp
}

type indexEntry struct {
	key    []byte
	offset int64
}

// tableBuilder writes a new SSTable. Keys must be appended in strictly
// increasing order.
type tableBuilder struct {
	path    string
	f       *os.File
	w       *bufio.Writer
	off     int64
	index   []indexEntry
	hashes  []uint64
	scratch []byte
	count   int
	lastKey []byte
}

func newTableBuilder(path string) (*tableBuilder, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, fmt.Errorf("kvstore: create sstable: %w", err)
	}
	return &tableBuilder{path: path, f: f, w: bufio.NewWriter(f)}, nil
}

func (b *tableBuilder) add(key, value []byte, tombstone bool) error {
	if b.count > 0 && bytes.Compare(key, b.lastKey) <= 0 {
		return fmt.Errorf("kvstore: out-of-order key %q after %q", key, b.lastKey)
	}
	if b.count%indexInterval == 0 {
		b.index = append(b.index, indexEntry{key: append([]byte(nil), key...), offset: b.off})
	}
	kind := walKindPut
	if tombstone {
		kind = walKindDelete
	}
	b.scratch = appendOpBody(b.scratch[:0], kind, key, value)
	n, err := b.w.Write(b.scratch)
	if err != nil {
		return fmt.Errorf("kvstore: sstable write: %w", err)
	}
	b.off += int64(n)
	b.hashes = append(b.hashes, bloomHash(key))
	b.lastKey = append(b.lastKey[:0], key...)
	b.count++
	return nil
}

func (b *tableBuilder) empty() bool { return b.count == 0 }

// finish writes the filter, index and footer and returns an opened
// reader for the completed table.
func (b *tableBuilder) finish() (*sstable, error) {
	meta := []byte(buildBloom(b.hashes))
	indexOff := b.off + int64(len(meta))
	for _, e := range b.index {
		meta = binary.BigEndian.AppendUint32(meta, uint32(len(e.key)))
		meta = append(meta, e.key...)
		meta = binary.BigEndian.AppendUint64(meta, uint64(e.offset))
	}
	// The max key terminates the index so readers know the table bound.
	meta = binary.BigEndian.AppendUint32(meta, uint32(len(b.lastKey)))
	meta = append(meta, b.lastKey...)
	meta = binary.BigEndian.AppendUint64(meta, uint64(b.off))
	meta = binary.BigEndian.AppendUint64(meta, uint64(indexOff))
	meta = binary.BigEndian.AppendUint32(meta, uint32(len(b.index)))
	meta = binary.BigEndian.AppendUint32(meta, uint32(b.count))
	meta = binary.BigEndian.AppendUint32(meta, crc32.ChecksumIEEE(meta))
	meta = binary.BigEndian.AppendUint64(meta, tableMagic)
	if _, err := b.w.Write(meta); err != nil {
		return nil, fmt.Errorf("kvstore: sstable index write: %w", err)
	}
	if err := b.w.Flush(); err != nil {
		return nil, err
	}
	if err := b.f.Sync(); err != nil {
		return nil, err
	}
	if err := b.f.Close(); err != nil {
		return nil, err
	}
	return openSSTable(b.path)
}

// abort removes a partially written table.
func (b *tableBuilder) abort() {
	b.f.Close()
	os.Remove(b.path)
}

// sstable is an opened, immutable table.
type sstable struct {
	path    string
	f       *os.File
	filter  bloomFilter
	index   []indexEntry // keys alias the table's loaded meta region
	minKey  []byte
	maxKey  []byte
	entries int
	dataEnd int64 // offset where entry data ends (filter begins)
	size    int64
}

func openSSTable(path string) (*sstable, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("kvstore: open sstable: %w", err)
	}
	t, err := loadSSTable(path, f)
	if err != nil {
		f.Close()
		return nil, err
	}
	return t, nil
}

// loadSSTable reads and validates everything but the data blocks:
// footer, checksum, filter and index. Offsets are checked here so the
// read path can trust every block boundary it derives from the index.
func loadSSTable(path string, f *os.File) (*sstable, error) {
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	size := st.Size()
	if size < footerSize {
		return nil, fmt.Errorf("%w: file too small", ErrCorruptTable)
	}
	var footer [footerSize]byte
	if _, err := f.ReadAt(footer[:], size-footerSize); err != nil {
		return nil, fmt.Errorf("%w: footer: %v", ErrCorruptTable, err)
	}
	if binary.BigEndian.Uint64(footer[footerCRCOff+4:]) != tableMagic {
		return nil, fmt.Errorf("%w: bad magic", ErrCorruptTable)
	}
	filterOff := binary.BigEndian.Uint64(footer[0:])
	indexOff := binary.BigEndian.Uint64(footer[8:])
	indexCount := int(binary.BigEndian.Uint32(footer[16:]))
	entryCount := int(binary.BigEndian.Uint32(footer[20:]))
	metaEnd := uint64(size - footerSize)
	if filterOff > indexOff || indexOff > metaEnd {
		return nil, fmt.Errorf("%w: bad filter/index offsets", ErrCorruptTable)
	}
	// One read covers filter, index and the checksummed footer fields.
	meta := make([]byte, metaEnd-filterOff+footerCRCOff)
	if _, err := f.ReadAt(meta, int64(filterOff)); err != nil {
		return nil, fmt.Errorf("%w: filter/index: %v", ErrCorruptTable, err)
	}
	if crc32.ChecksumIEEE(meta) != binary.BigEndian.Uint32(footer[footerCRCOff:]) {
		return nil, fmt.Errorf("%w: checksum mismatch", ErrCorruptTable)
	}
	t := &sstable{
		path: path, f: f, entries: entryCount, dataEnd: int64(filterOff), size: size,
		filter: bloomFilter(meta[:indexOff-filterOff]),
	}
	idx := meta[indexOff-filterOff : metaEnd-filterOff]
	readKey := func() ([]byte, bool) {
		if len(idx) < 4 {
			return nil, false
		}
		klen := uint64(binary.BigEndian.Uint32(idx))
		if klen > uint64(len(idx)-4) {
			return nil, false
		}
		key := idx[4 : 4+klen : 4+klen]
		idx = idx[4+klen:]
		return key, true
	}
	if (indexCount == 0) != (entryCount == 0) || indexCount > len(idx)/12 {
		return nil, fmt.Errorf("%w: index/entry counts", ErrCorruptTable)
	}
	t.index = make([]indexEntry, indexCount)
	for i := range t.index {
		key, ok := readKey()
		if !ok || len(idx) < 8 {
			return nil, fmt.Errorf("%w: truncated index", ErrCorruptTable)
		}
		off := binary.BigEndian.Uint64(idx)
		idx = idx[8:]
		// Blocks are non-empty and tile [0, dataEnd).
		if off >= filterOff || (i == 0) != (off == 0) || (i > 0 && int64(off) <= t.index[i-1].offset) {
			return nil, fmt.Errorf("%w: index offset out of order", ErrCorruptTable)
		}
		t.index[i] = indexEntry{key: key, offset: int64(off)}
	}
	var ok bool
	if t.maxKey, ok = readKey(); !ok || len(idx) != 0 {
		return nil, fmt.Errorf("%w: index tail", ErrCorruptTable)
	}
	if indexCount > 0 {
		t.minKey = t.index[0].key
	}
	return t, nil
}

func (t *sstable) close() error { return t.f.Close() }

// overlaps reports whether the table's key range intersects [lo, hi).
// nil hi means unbounded.
func (t *sstable) overlaps(lo, hi []byte) bool {
	if t.entries == 0 {
		return false
	}
	if hi != nil && bytes.Compare(t.minKey, hi) >= 0 {
		return false
	}
	return bytes.Compare(t.maxKey, lo) >= 0
}

// blockFor returns the index of the block a search for target starts in:
// the last block whose first key is <= target (0 when target precedes
// every key).
func (t *sstable) blockFor(target []byte) int {
	i := sort.Search(len(t.index), func(i int) bool {
		return bytes.Compare(t.index[i].key, target) > 0
	})
	if i == 0 {
		return 0
	}
	return i - 1
}

// blockEnd returns the offset one past block i.
func (t *sstable) blockEnd(i int) int64 {
	if i+1 < len(t.index) {
		return t.index[i+1].offset
	}
	return t.dataEnd
}

// readData fills buf from the data region at off with one ReadAt.
func (t *sstable) readData(buf []byte, off int64, rs *readStats) error {
	rs.blockReads.Add(1)
	_, err := t.f.ReadAt(buf, off)
	if errors.Is(err, io.EOF) {
		return fmt.Errorf("%w: %s ends inside the %d bytes at %d", ErrCorruptTable, t.path, len(buf), off)
	}
	if err != nil {
		return fmt.Errorf("kvstore: read sstable: %w", err)
	}
	return nil
}

// get performs a point lookup; h is bloomHash(target). Key range, then
// filter, then exactly one block read: a present key costs one ReadAt
// per probed table, an absent one almost always none. A found value is
// appended to dst.
func (t *sstable) get(target []byte, h uint64, dst []byte, rs *readStats) (value []byte, found, tombstone bool, err error) {
	if t.entries == 0 || bytes.Compare(target, t.minKey) < 0 || bytes.Compare(target, t.maxKey) > 0 {
		return nil, false, false, nil
	}
	rs.tableProbes.Add(1)
	if !t.filter.mayContain(h) {
		rs.bloomSkips.Add(1)
		return nil, false, false, nil
	}
	bi := t.blockFor(target)
	off := t.index[bi].offset
	bp := getBlockBuf(int(t.blockEnd(bi) - off))
	defer blockPool.Put(bp)
	if err := t.readData(*bp, off, rs); err != nil {
		return nil, false, false, err
	}
	for b := *bp; len(b) > 0; {
		key, val, tomb, n, err := decodeEntry(b)
		if err != nil {
			return nil, false, false, err
		}
		switch bytes.Compare(key, target) {
		case 0:
			return append(dst, val...), true, tomb, nil
		case 1:
			return nil, false, false, nil
		}
		b = b[n:]
	}
	return nil, false, false, nil
}
