package kvstore

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"slices"
	"sync"
	"sync/atomic"
	"syscall"
	"unsafe"
)

// The write-ahead log is a sequence of CRC-framed records. Each record is
// one logical mutation (or one atomic batch):
//
//	[4B payloadLen][4B crc32(payload, seeded with the log's generation)][payload]
//
// payload = [1B kind][4B keyLen][key][4B valLen][value]  for single ops
// payload = [1B kindBatch][4B count] followed by count single-op bodies
//
// The log writes sectors, not records. Its tail — the bytes from the last
// 512-byte boundary written out to the logical end — lives in an aligned
// buffer, and append only copies a record into it. A write-out writes the
// tail's sectors (the last one zero-padded) at their offset with one
// positional write, then keeps only the last, partial sector: the next
// write-out starts there again. Under SyncWAL the group-commit leader does
// the write-out, on a handle opened O_DIRECT, and fdatasyncs: a durable
// ack costs the sectors its cohort dirtied, not the 4 KiB page a buffered
// write re-dirties after every fsync. Without SyncWAL append writes every
// record out at once, through the page cache.
//
// The log is one file, recycled. A flush, once the manifest naming its
// table and the next generation is durable, restarts the log at offset 0
// as that generation, over the blocks the last one wrote. Each record's
// CRC is seeded with its generation, so a record of an older one fails
// the check and ends replay exactly as a zero header does; no byte is
// added per record.
//
// The file's size is set ahead of the log's tail, walExtendStep at a time,
// when a store opens and when a generation outgrows the file. Under
// SyncWAL the step is zero-filled with direct writes, so a sync
// overwrites blocks that are already allocated and written: fdatasync
// commits the data alone (the file size moves once per step), with no
// unwritten extent to convert in the journal, and every byte the device
// takes is counted as written. Recycling keeps that true for every later
// generation without writing the step again. Without SyncWAL the step is
// a sparse ftruncate: no block is written. A filesystem or device that
// refuses O_DIRECT, or a 512-byte direct write, gets the same code on a
// plain handle.
//
// Replay stops at the first zero, torn, corrupt or older-generation
// record — the standard crash-recovery contract: everything before it was
// acknowledged, nothing after it ever was — and reports where that is.
// The log is reopened AT that offset with everything past it cut, so a
// record acknowledged after recovery can never sit behind bytes the next
// replay stops at.

const (
	walKindPut    byte = 1
	walKindDelete byte = 2
	walKindBatch  byte = 3

	walHeaderSize = 8

	// walExtendStep is how far ahead of the tail the file size is set.
	walExtendStep = 1 << 20
	// walSector is the unit the log writes in: a write-out covers whole
	// sectors at sector offsets. walAlign is the memory alignment of the
	// buffers direct writes are made from.
	walSector = 512
	walAlign  = 4096
	// walTailCap is the tail buffer's starting size; the zero-fill writes
	// walZeros' walZeroChunk bytes at a time.
	walTailCap   = 4096
	walZeroChunk = 64 << 10
)

// walZeros is the zero-fill's source. Nothing writes to it.
var walZeros = alignedBuf(walZeroChunk)

type wal struct {
	f *os.File
	// gen is the generation the log's records are written in: it seeds
	// their CRCs. The manifest names it.
	gen uint32
	// syncWAL is Options.SyncWAL: the group-commit leader writes the
	// tail out, rather than append at once, and f bypasses the page cache
	// where the filesystem lets it.
	syncWAL bool
	// size is the logical end of the log, where the next record goes;
	// alloc the file size, kept ahead of it.
	size, alloc int64
	// tail holds the log's bytes from base, a sector boundary, to size.
	// It is aligned, and zero from its length to its capacity, a whole
	// number of sectors, so it can be written out rounded up.
	base int64
	tail []byte
	// out is the sync leader's copy of the sectors it writes out: the
	// tail keeps taking appends while the leader writes. Every field but
	// out, ds and outMu is guarded by the DB's writeMu; out and ds belong
	// to the one leader.
	out []byte
	ds  *datasyncer
	// outMu fences a leader's write-out: held from its cut to the end of
	// its write, so that recycle and close, which take it, never let a
	// write of sectors cut from one generation land over the next.
	outMu sync.Mutex
	// written counts the bytes the log wrote: write-outs and zero-fill.
	written *atomic.Int64
}

// alignedBuf returns n zeroed bytes, starting on a walAlign boundary.
func alignedBuf(n int) []byte {
	b := make([]byte, n+walAlign)
	off := int(-uintptr(unsafe.Pointer(&b[0])) & (walAlign - 1))
	return b[off : off+n : off+n]
}

// sectorCeil rounds n up to whole sectors.
func sectorCeil(n int64) int64 { return (n + walSector - 1) &^ (walSector - 1) }

// openWAL opens (or creates) the log at path and resumes generation gen
// at end — the offset replayWAL returned, 0 for a new log. Whatever the
// file holds past end is cut off before the size is set ahead again.
// sync is the store's SyncWAL; written counts what the log writes.
func openWAL(path string, gen uint32, end int64, sync bool, written *atomic.Int64) (*wal, error) {
	w := &wal{gen: gen, syncWAL: sync, size: end, base: end &^ (walSector - 1), written: written}
	var err error
	direct := false
	if sync {
		w.f, err = openDirect(path)
		direct = err == nil
	}
	if !direct {
		w.f, err = os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	}
	if err != nil {
		return nil, fmt.Errorf("kvstore: open wal: %w", err)
	}
	err = w.resume()
	if direct && errors.Is(err, syscall.EINVAL) {
		// The direct write was refused: a device with larger sectors, or a
		// filesystem that takes O_DIRECT opens but not the writes.
		w.f.Close()
		if w.f, err = os.OpenFile(path, os.O_RDWR, 0o644); err == nil {
			err = w.resume()
		}
	}
	if err == nil {
		w.ds, err = newDatasyncer(w.f)
	}
	if err != nil {
		w.f.Close()
		return nil, fmt.Errorf("kvstore: size wal: %w", err)
	}
	return w, nil
}

// resume cuts the file at the log's end, loads the end's partial sector
// into the tail and sets the size ahead. Under SyncWAL it first writes
// that sector back, zero-padded — it is where the zero-fill, which covers
// whole sectors only, has to start from — and that write is the probe of
// whether the handle takes 512-byte writes.
func (w *wal) resume() error {
	if err := w.f.Truncate(w.size); err != nil {
		return err
	}
	w.tail = alignedBuf(walTailCap)
	n, err := w.f.ReadAt(w.tail[:walSector], w.base)
	if int64(n) < w.size-w.base {
		return fmt.Errorf("reading the tail: %w", err)
	}
	w.tail = w.tail[:w.size-w.base]
	clear(w.tail[len(w.tail):walSector])
	w.alloc = w.size
	if w.syncWAL {
		if err := w.write(w.tail[:walSector], w.base); err != nil {
			return err
		}
		w.alloc = w.base + walSector
	}
	return w.extend(w.size)
}

// extend sets the file size one step past the step boundary below need,
// zero-filling the new space under SyncWAL.
func (w *wal) extend(need int64) error {
	alloc := (need/walExtendStep + 1) * walExtendStep
	if !w.syncWAL {
		if err := w.f.Truncate(alloc); err != nil {
			return err
		}
		w.alloc = alloc
	}
	for w.alloc < alloc {
		n := min(alloc-w.alloc, walZeroChunk)
		if err := w.write(walZeros[:n], w.alloc); err != nil {
			return err
		}
		w.alloc += n
	}
	return nil
}

// write is the log's one write-out: p, whole sectors from an aligned
// buffer, at sector offset off.
func (w *wal) write(p []byte, off int64) error {
	n, err := w.f.WriteAt(p, off)
	w.written.Add(int64(n))
	return err
}

// appendOpBody appends one op body to buf, growing it at most once.
func appendOpBody(buf []byte, kind byte, key, value []byte) []byte {
	buf = slices.Grow(buf, 9+len(key)+len(value))
	buf = append(buf, kind)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(key)))
	buf = append(buf, key...)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(value)))
	buf = append(buf, value...)
	return buf
}

// append adds one record at the logical end: n op bodies laid out back to
// back in ops. One op is a record of its own kind; more (or an explicit
// batch of one) are wrapped in a batch record. Without SyncWAL the record
// reaches the OS before append returns; under SyncWAL it waits in the
// tail for the group-commit leader (cut, then sync).
func (w *wal) append(ops []byte, n int, batch bool) error {
	start := len(w.tail)
	w.reserve(walHeaderSize + 5 + len(ops))
	rec := w.tail[:start+walHeaderSize]
	if batch {
		rec = append(rec, walKindBatch)
		rec = binary.BigEndian.AppendUint32(rec, uint32(n))
	}
	rec = append(rec, ops...)
	binary.BigEndian.PutUint32(rec[start:], uint32(len(rec)-start-walHeaderSize))
	binary.BigEndian.PutUint32(rec[start+4:], walChecksum(w.gen, rec[start+walHeaderSize:]))
	end := w.size + int64(len(rec)-start)
	var err error
	if end > w.alloc {
		err = w.extend(end)
	}
	if err == nil && !w.syncWAL {
		err = w.write(rec[:sectorCeil(int64(len(rec)))], w.base)
	}
	if err != nil {
		clear(rec[start:]) // the tail stays zero past its length
		return fmt.Errorf("kvstore: wal append: %w", err)
	}
	w.tail, w.size = rec, end
	if !w.syncWAL {
		w.retire()
	}
	return nil
}

// reserve makes room in the tail for n more bytes, keeping it aligned.
func (w *wal) reserve(n int) {
	if len(w.tail)+n <= cap(w.tail) {
		return
	}
	t := alignedBuf(int(sectorCeil(int64(max(2*cap(w.tail), len(w.tail)+n)))))
	w.tail = t[:copy(t, w.tail)]
}

// retire drops the tail's whole sectors once they are written out (or
// handed to a leader to write), keeping the last, partial one. An outsized
// tail is not worth keeping.
func (w *wal) retire() {
	whole := len(w.tail) &^ (walSector - 1)
	rest := w.tail[whole:]
	if cap(w.tail) > walExtendStep {
		t := alignedBuf(walTailCap)
		w.tail = t[:copy(t, rest)]
	} else {
		n := copy(w.tail, rest)
		clear(w.tail[n:len(w.tail)])
		w.tail = w.tail[:n]
	}
	w.base += int64(whole)
}

// cut hands the group-commit leader the tail's sectors — a copy, and the
// offset it goes at — and retires them. Called under writeMu; the leader
// passes the copy to sync once it has let go. The leader holds the
// write-out fence from here until sync has written the copy.
func (w *wal) cut() ([]byte, int64) {
	w.outMu.Lock()
	n := int(sectorCeil(int64(len(w.tail))))
	if cap(w.out) < n {
		w.out = alignedBuf(max(n, walTailCap))
	}
	p, off := w.out[:copy(w.out[:n], w.tail[:n])], w.base
	if cap(w.out) > walExtendStep {
		w.out = nil
	}
	w.retire()
	return p, off
}

// sync writes sectors p, cut from the tail, at off, lets go of the
// write-out fence and fdatasyncs the log: every record appended before the
// cut is durable when it returns.
func (w *wal) sync(p []byte, off int64) error {
	err := w.write(p, off)
	w.outMu.Unlock()
	if err != nil {
		return fmt.Errorf("kvstore: wal write: %w", err)
	}
	if err := w.ds.sync(); err != nil {
		return fmt.Errorf("kvstore: wal sync: %w", err)
	}
	return nil
}

// recycle restarts the log at offset 0 as generation gen, over the blocks
// the last generation wrote: nothing is unlinked, truncated or zero-filled.
// The caller holds writeMu, so no leader can cut; one that cut before may
// still be writing sectors of the old generation, which would land over
// the new one, so recycle waits that write out first. The manifest must
// name gen, durably, before the first record of it is written.
func (w *wal) recycle(gen uint32) {
	w.outMu.Lock()
	defer w.outMu.Unlock()
	w.gen = gen
	clear(w.tail)
	w.tail, w.size, w.base = w.tail[:0], 0, 0
}

// close gives the size-ahead tail back and closes the file, once any
// write-out in flight is done. A store closes its log only once a flush
// has made every record in it durable.
func (w *wal) close() error {
	w.outMu.Lock()
	defer w.outMu.Unlock()
	if err := w.f.Truncate(w.size); err != nil {
		w.f.Close()
		return err
	}
	return w.f.Close()
}

// ForEachOp walks n op bodies laid out back to back in ops — the layout
// WAL records, batches, commit-hook records and SSTable entries share,
// hence decodeEntry — and reports whether they parse and fill ops
// exactly. key and value alias ops; fn may be nil (a pure check). It is
// the one op decoder: replay, the memtable insert, replication and
// migration all read records through it.
func ForEachOp(ops []byte, n int, fn func(key, value []byte, tombstone bool)) bool {
	for ; n > 0; n-- {
		key, value, tombstone, size, err := decodeEntry(ops)
		if err != nil {
			return false
		}
		if fn != nil {
			fn(key, value, tombstone)
		}
		ops = ops[size:]
	}
	return len(ops) == 0
}

// recordOps splits a record payload into its op bodies and their count.
func recordOps(payload []byte) (ops []byte, n int, ok bool) {
	if len(payload) == 0 {
		return nil, 0, false
	}
	if payload[0] != walKindBatch {
		return payload, 1, true
	}
	if len(payload) < 5 {
		return nil, 0, false
	}
	count := binary.BigEndian.Uint32(payload[1:])
	if uint64(count) > uint64(len(payload)) { // every op body is >= 9 bytes
		return nil, 0, false
	}
	return payload[5:], int(count), true
}

// walChecksum is a record's CRC: crc32 of its payload, seeded with the
// generation it was written in. Generation 0 is the plain IEEE CRC. Two
// generations' sums over the same payload always differ, so a record
// recycling left behind never passes for one of the current generation.
func walChecksum(gen uint32, payload []byte) uint32 {
	return crc32.Update(gen, crc32.IEEETable, payload)
}

// replayWAL hands the op bodies of every intact record of generation gen
// in the log at path to apply, in order, and returns the offset just past
// the last of them — where the log resumes. A missing file is an empty
// log. The walk ends at the first record that is zero (the size-ahead
// tail), torn, corrupt, of another generation (what recycling left behind
// the current one), or does not parse whole: a batch is applied entirely
// or not at all. ops is a buffer of the record's own; apply may keep it.
func replayWAL(path string, gen uint32, apply func(ops []byte, n int)) (end int64, err error) {
	f, err := os.Open(path)
	if errors.Is(err, os.ErrNotExist) {
		return 0, nil
	}
	if err != nil {
		return 0, fmt.Errorf("kvstore: open wal for replay: %w", err)
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return 0, fmt.Errorf("kvstore: stat wal for replay: %w", err)
	}
	r := bufio.NewReader(f)
	for left := st.Size(); left >= walHeaderSize; {
		hdr, err := r.Peek(walHeaderSize)
		if err != nil {
			break
		}
		n := int64(binary.BigEndian.Uint32(hdr[0:]))
		sum := binary.BigEndian.Uint32(hdr[4:])
		// The length is whatever the disk says: believe it only as far as
		// the file goes. Zero is the tail (no writer logs an empty record).
		if n == 0 || n > left-walHeaderSize {
			break
		}
		r.Discard(walHeaderSize)
		payload := make([]byte, n)
		if _, err := io.ReadFull(r, payload); err != nil {
			break
		}
		if walChecksum(gen, payload) != sum {
			break
		}
		ops, count, ok := recordOps(payload)
		if !ok || !ForEachOp(ops, count, nil) {
			break
		}
		apply(ops, count)
		end += walHeaderSize + n
		left -= walHeaderSize + n
	}
	return end, nil
}
