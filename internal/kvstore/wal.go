package kvstore

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
)

// The write-ahead log is a sequence of CRC-framed records. Each record is
// one logical mutation (or one atomic batch):
//
//	[4B payloadLen][4B crc32(payload)][payload]
//
// payload = [1B kind][4B keyLen][key][4B valLen][value]  for single ops
// payload = [1B kindBatch][4B count] followed by count single-op bodies
//
// Replay stops cleanly at the first torn or corrupt record, which is the
// standard crash-recovery contract: everything before the tear was
// acknowledged, everything after never was.

const (
	walKindPut    byte = 1
	walKindDelete byte = 2
	walKindBatch  byte = 3
)

// ErrCorruptWAL reports a record that failed its checksum; replay treats
// it as end-of-log.
var ErrCorruptWAL = errors.New("kvstore: corrupt WAL record")

type wal struct {
	f    *os.File
	w    *bufio.Writer
	sync bool
	size int64
}

func openWAL(path string, sync bool) (*wal, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("kvstore: open wal: %w", err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("kvstore: stat wal: %w", err)
	}
	return &wal{f: f, w: bufio.NewWriter(f), sync: sync, size: st.Size()}, nil
}

func appendOpBody(buf []byte, kind byte, key, value []byte) []byte {
	buf = append(buf, kind)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(key)))
	buf = append(buf, key...)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(value)))
	buf = append(buf, value...)
	return buf
}

func (w *wal) writeRecord(payload []byte) error {
	var hdr [8]byte
	binary.BigEndian.PutUint32(hdr[0:], uint32(len(payload)))
	binary.BigEndian.PutUint32(hdr[4:], crc32.ChecksumIEEE(payload))
	if _, err := w.w.Write(hdr[:]); err != nil {
		return fmt.Errorf("kvstore: wal write: %w", err)
	}
	if _, err := w.w.Write(payload); err != nil {
		return fmt.Errorf("kvstore: wal write: %w", err)
	}
	if err := w.w.Flush(); err != nil {
		return fmt.Errorf("kvstore: wal flush: %w", err)
	}
	if w.sync {
		if err := w.f.Sync(); err != nil {
			return fmt.Errorf("kvstore: wal sync: %w", err)
		}
	}
	w.size += int64(8 + len(payload))
	return nil
}

func (w *wal) logPut(key, value []byte) error {
	return w.writeRecord(appendOpBody(nil, walKindPut, key, value))
}

func (w *wal) logDelete(key []byte) error {
	return w.writeRecord(appendOpBody(nil, walKindDelete, key, nil))
}

func (w *wal) logBatch(b *Batch) error {
	payload := make([]byte, 0, 5+b.approxBytes)
	payload = append(payload, walKindBatch)
	payload = binary.BigEndian.AppendUint32(payload, uint32(len(b.ops)))
	for _, op := range b.ops {
		kind := walKindPut
		if op.tombstone {
			kind = walKindDelete
		}
		payload = appendOpBody(payload, kind, op.key, op.value)
	}
	return w.writeRecord(payload)
}

// syncFile fsyncs a log file handle. Records already flushed to the OS
// (writeRecord flushes the buffered writer) become durable; the group
// commit layer in DB decides when to call it, on a handle pinned while
// appends continue.
func syncFile(f *os.File) error {
	if err := f.Sync(); err != nil {
		return fmt.Errorf("kvstore: wal sync: %w", err)
	}
	return nil
}

func (w *wal) close() error {
	if err := w.w.Flush(); err != nil {
		w.f.Close()
		return err
	}
	return w.f.Close()
}

// walOp is a single replayed mutation.
type walOp struct {
	key       []byte
	value     []byte
	tombstone bool
}

// parseOpBody decodes one op body — the layout WAL records and SSTable
// entries share, hence the one decoder — into an op that owns its bytes.
func parseOpBody(payload []byte) (op walOp, rest []byte, err error) {
	key, value, tombstone, n, err := decodeEntry(payload)
	if err != nil {
		return op, nil, ErrCorruptWAL
	}
	op = walOp{key: append([]byte(nil), key...), tombstone: tombstone}
	if !tombstone {
		op.value = append([]byte(nil), value...)
	}
	return op, payload[n:], nil
}

// replayWAL reads every intact record from the log at path and hands each
// mutation to apply, in order. A missing file is an empty log. Torn or
// corrupt tails are ignored.
func replayWAL(path string, apply func(walOp)) error {
	f, err := os.Open(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("kvstore: open wal for replay: %w", err)
	}
	defer f.Close()
	r := bufio.NewReader(f)
	for {
		var hdr [8]byte
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			return nil // clean EOF or torn header: stop
		}
		n := binary.BigEndian.Uint32(hdr[0:])
		want := binary.BigEndian.Uint32(hdr[4:])
		payload := make([]byte, n)
		if _, err := io.ReadFull(r, payload); err != nil {
			return nil // torn payload
		}
		if crc32.ChecksumIEEE(payload) != want {
			return nil // corrupt record: treat as end of log
		}
		if len(payload) == 0 {
			continue
		}
		if payload[0] == walKindBatch {
			if len(payload) < 5 {
				return nil
			}
			count := binary.BigEndian.Uint32(payload[1:])
			rest := payload[5:]
			ops := make([]walOp, 0, count)
			ok := true
			for i := uint32(0); i < count; i++ {
				var op walOp
				var err error
				op, rest, err = parseOpBody(rest)
				if err != nil {
					ok = false
					break
				}
				ops = append(ops, op)
			}
			if !ok {
				return nil // half-parsed batch: drop it entirely (atomicity)
			}
			for _, op := range ops {
				apply(op)
			}
			continue
		}
		op, _, err := parseOpBody(payload)
		if err != nil {
			return nil
		}
		apply(op)
	}
}
