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
)

// The write-ahead log is a sequence of CRC-framed records. Each record is
// one logical mutation (or one atomic batch):
//
//	[4B payloadLen][4B crc32(payload)][payload]
//
// payload = [1B kind][4B keyLen][key][4B valLen][value]  for single ops
// payload = [1B kindBatch][4B count] followed by count single-op bodies
//
// The file's size is set ahead of the log's tail: it grows by
// walExtendStep at a time (a sparse ftruncate — no block is written, so
// none is charged to the device), and records are written positionally at
// the logical end inside it. An fsync of an append that moves the file
// size has to commit the inode as well as the data; with the size already
// past the tail it commits the data alone, which is most of what a durable
// write costs. The tail past the logical end reads as zeros, and a zero
// header ends the log. (Zero-FILLING the tail instead dirties whole large
// folios per commit on current kernels; the sparse tail costs nothing.)
//
// Replay stops at the first zero, torn or corrupt record — the standard
// crash-recovery contract: everything before it was acknowledged, nothing
// after it ever was — and reports where that is. The log is reopened AT
// that offset with everything past it cut, so a record acknowledged after
// recovery can never sit behind bytes the next replay stops at.

const (
	walKindPut    byte = 1
	walKindDelete byte = 2
	walKindBatch  byte = 3

	walHeaderSize = 8

	// walExtendStep is how far ahead of the tail the file size is set.
	walExtendStep = 1 << 20
)

type wal struct {
	f *os.File
	// size is the logical end of the log, where the next record goes;
	// alloc the file size, kept ahead of it.
	size, alloc int64
	// rec is the scratch one record (header + payload) is assembled in.
	// Like every field it is guarded by the DB's writeMu.
	rec []byte
}

// openWAL opens (or creates) the log at path and resumes it at end — the
// offset replayWAL returned, 0 for a new log. Whatever the file holds
// past end is cut off before the size is set ahead again.
func openWAL(path string, end int64) (*wal, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, fmt.Errorf("kvstore: open wal: %w", err)
	}
	w := &wal{f: f, size: end}
	if err := f.Truncate(end); err == nil {
		err = w.extend(end)
	}
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("kvstore: size wal: %w", err)
	}
	return w, nil
}

// extend sets the file size one step past the step boundary below need.
func (w *wal) extend(need int64) error {
	alloc := (need/walExtendStep + 1) * walExtendStep
	if err := w.f.Truncate(alloc); err != nil {
		return err
	}
	w.alloc = alloc
	return nil
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

// append writes one record at the logical end: n op bodies laid out back
// to back in ops. One op is a record of its own kind; more (or an explicit
// batch of one) are wrapped in a batch record. The record reaches the OS
// before append returns; making it durable is the group-commit layer's
// call (syncFile), on a handle pinned while appends continue.
func (w *wal) append(ops []byte, n int, batch bool) error {
	rec := append(w.rec[:0], make([]byte, walHeaderSize)...)
	if batch {
		rec = append(rec, walKindBatch)
		rec = binary.BigEndian.AppendUint32(rec, uint32(n))
	}
	rec = append(rec, ops...)
	binary.BigEndian.PutUint32(rec[0:], uint32(len(rec)-walHeaderSize))
	binary.BigEndian.PutUint32(rec[4:], crc32.ChecksumIEEE(rec[walHeaderSize:]))
	if cap(rec) <= walExtendStep {
		w.rec = rec // an outsized record's scratch is not worth keeping
	}
	end := w.size + int64(len(rec))
	if end > w.alloc {
		if err := w.extend(end); err != nil {
			return fmt.Errorf("kvstore: wal extend: %w", err)
		}
	}
	if _, err := w.f.WriteAt(rec, w.size); err != nil {
		return fmt.Errorf("kvstore: wal write: %w", err)
	}
	w.size = end
	return nil
}

// syncFile fsyncs a log file handle, making every record written so far
// durable.
func syncFile(f *os.File) error {
	if err := f.Sync(); err != nil {
		return fmt.Errorf("kvstore: wal sync: %w", err)
	}
	return nil
}

// close gives the size-ahead tail back and closes the file.
func (w *wal) close() error {
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

// replayWAL hands the op bodies of every intact record of the log at path
// to apply, in order, and returns the offset just past the last of them —
// where the log resumes. A missing file is an empty log. The walk ends at
// the first record that is zero (the size-ahead tail), torn, corrupt, or
// does not parse whole: a batch is applied entirely or not at all. ops is
// a buffer of the record's own; apply may keep it.
func replayWAL(path string, apply func(ops []byte, n int)) (end int64, err error) {
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
		if crc32.ChecksumIEEE(payload) != sum {
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
