package mds

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"

	"origami/internal/kvstore"
	"origami/internal/namespace"
)

// State leaves a store only as WAL records: the commit hook hands every
// committed record to the replication shipper, snapshot chunks and
// migration copies are records of puts, a migration's eviction and its
// commit are records of deletes. Whatever arrives, from a socket or from
// a replica being promoted, is applied by ApplyRecord — one atomic batch
// with the directory index kept in step.

// SetCommitHook installs h on the underlying kvstore so every committed
// record (creates, removes, renames, attr updates, meta records) is
// observed in WAL order. Used by the replication shipper.
func (s *Store) SetCommitHook(h kvstore.CommitHook) {
	s.db.SetCommitHook(h)
}

// SetCommitter installs the commit pipeline (durability policy) on the
// underlying kvstore: every committed mutation's acknowledgement is
// gated by its Commit decision instead of the store's historical
// fsync-then-hook sequence. Used by the server wiring.
func (s *Store) SetCommitter(c kvstore.Committer) {
	s.db.SetCommitter(c)
}

// SnapshotPairs streams every live key/value pair of the shard in
// ascending key order — the full-state export behind replica bootstrap
// and snapshot catch-up. Metadata keys (0xff prefix) are included so a
// replica built from the snapshot is byte-identical to the primary. key
// and value alias the store's read buffers and die when fn returns; a
// consumer that keeps them copies them.
func (s *Store) SnapshotPairs(fn func(key, value []byte) bool) error {
	return s.db.Snapshot(fn)
}

// WipeForInstall discards the shard's entire contents ahead of a
// snapshot install (replica bootstrap / resync).
func (s *Store) WipeForInstall() error {
	s.inoMu.Lock()
	s.byIno = make(map[namespace.Ino]inoRef)
	s.files = make(map[namespace.Ino]int32)
	s.nFiles = 0
	s.inoMu.Unlock()
	return s.db.Wipe()
}

// ErrBadRecord reports a record ApplyRecord refused whole: an op whose
// key is neither a metadata key nor a (parent, name) key, or a put whose
// value is not the inode that key names.
var ErrBadRecord = errors.New("mds: bad record")

// isMetaKey reports whether key is a store-internal metadata key.
func isMetaKey(key []byte) bool { return len(key) > 0 && key[0] == 0xff }

// ApplyRecord applies b — whole WAL records from another store — as ONE
// atomic kvstore batch, keeping the directory index in step. Every op is
// checked before anything is applied: a key is a metadata key (0xff
// prefix; written verbatim and never indexed, which keeps replicas
// byte-identical to their primary) or a (parent, name) key, and a put
// under a (parent, name) key must carry the inode that key names.
// Otherwise nothing applies and the error wraps ErrBadRecord.
//
// It takes the stripes of every parent the record touches, so it runs
// beside request traffic (a migration destination keeps serving). The
// index follows the keys: what each held before the record is unbound,
// what each holds after it is bound — so a put over an entry unbinds the
// ino it replaced, a put then a delete of one key leaves nothing bound,
// and a put over a file, a setattr's, nets its parent's count zero; a
// key the record writes twice is read once on each side. Replay is
// idempotent (puts are last-writer-wins, deletes of absent keys no-ops),
// so a resync may double-apply safely. Once the checks pass the store
// keeps b's bytes, and b is left empty.
func (s *Store) ApplyRecord(b *kvstore.Batch) error {
	ops, n := b.Ops()
	var set stripeSet
	var bad error
	var keyBuf [2][]byte
	keys := keyBuf[:0]
	kvstore.ForEachOp(ops, n, func(key, value []byte, tombstone bool) {
		if bad != nil || isMetaKey(key) {
			return
		}
		if len(key) < 8 {
			bad = fmt.Errorf("%w: key %x is not a (parent, name) key", ErrBadRecord, key)
			return
		}
		parent := namespace.Ino(binary.BigEndian.Uint64(key))
		if !tombstone {
			var in namespace.Inode
			name, err := namespace.DecodeInodeInto(&in, value)
			if err == nil && (in.Parent != parent || !bytes.Equal(name, key[8:])) {
				err = fmt.Errorf("inode %d at (%d, %q)", in.Ino, in.Parent, name)
			}
			if err != nil {
				bad = fmt.Errorf("%w: value under (%d, %q): %v", ErrBadRecord, parent, key[8:], err)
				return
			}
		}
		set.add(parent)
		keys = append(keys, key)
	})
	if bad != nil {
		return bad
	}
	slices.SortFunc(keys, bytes.Compare)
	keys = slices.CompactFunc(keys, bytes.Equal)
	s.lockStripes(set)
	defer s.unlockStripes(set)
	var beforeBuf, afterBuf [2]inoRef
	before, err := s.refsAt(keys, beforeBuf[:0])
	if err == nil {
		err = s.db.ApplyBatch(b)
	}
	var after []inoRef
	if err == nil {
		after, err = s.refsAt(keys, afterBuf[:0])
	}
	if err != nil {
		return err
	}
	s.inoMu.Lock()
	for _, r := range before {
		s.indexLocked(r, -1)
	}
	for _, r := range after {
		s.indexLocked(r, 1)
	}
	s.inoMu.Unlock()
	return nil
}

// refsAt appends to dst the inoRef of what each (parent, name) key holds
// in the store now. Caller holds the keys' stripes.
func (s *Store) refsAt(keys [][]byte, dst []inoRef) ([]inoRef, error) {
	for _, key := range keys {
		var vb [recordScratch]byte
		v, found, err := s.db.GetInto(key, vb[:0])
		if err != nil {
			return dst, err
		}
		if r, ok := refAt(key, v); found && ok {
			dst = append(dst, r)
		}
	}
	return dst, nil
}

// absorbChunk is the record size of a promotion: one WAL record — and in
// sync-replication mode one downstream ack wait — per chunk of puts.
const absorbChunk = 512

// AbsorbFrom merges every inode record of src into this serving store —
// the promotion step that turns a warm replica into served metadata — as
// records of absorbChunk puts through ApplyRecord. Metadata keys are
// skipped: the promotee keeps its own allocation watermark and pin map,
// and ino ranges are disjoint per MDS (id << 48) so absorbed inodes can
// never collide with locally allocated ones. Returns the number of inode
// records absorbed.
func (s *Store) AbsorbFrom(src *Store) (absorbed int, err error) {
	var b kvstore.Batch
	apply := func() {
		absorbed += b.Len()
		err = s.ApplyRecord(&b)
	}
	scanErr := src.SnapshotPairs(func(k, v []byte) bool {
		if !isMetaKey(k) {
			b.Put(k, v)
		}
		if b.Len() == absorbChunk {
			apply()
		}
		return err == nil
	})
	if err == nil && b.Len() > 0 {
		apply()
	}
	if scanErr != nil {
		return absorbed, scanErr
	}
	return absorbed, err
}
