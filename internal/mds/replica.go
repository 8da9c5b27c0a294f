package mds

import (
	"origami/internal/kvstore"
	"origami/internal/namespace"
)

// Replication-facing Store methods. A backup MDS keeps a warm replica
// Store per primary it protects: the shipper on the primary taps the
// kvstore commit hook and streams every mutation here, where
// ApplyReplicated replays it. On failover the promotee absorbs the
// replica into its own serving store and starts answering for the dead
// primary's subtrees.

// SetCommitHook installs h on the underlying kvstore so every committed
// mutation (creates, removes, renames, attr updates, meta records) is
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
	s.inoMu.Unlock()
	return s.db.Wipe()
}

// applyReplicatedChunk is the batch stride of ApplyReplicated callers
// that stream large pair sets (snapshot install, promotion absorb): one
// WAL record — and in sync-replication mode one downstream ack wait —
// per chunk instead of per pair.
const applyReplicatedChunk = 512

// ApplyReplicated applies a batch of replicated mutations: one atomic
// kvstore batch plus the ino-index maintenance the normal request path
// does inline. Metadata keys (0xff prefix) are applied to the store
// verbatim, keeping replicas byte-identical to their primary, but are
// never indexed. Replay is idempotent — puts are last-writer-wins and
// deletes of absent keys are no-ops — so a resync may double-apply
// safely.
//
// It takes no stripe locks: the callers are replica stores with no
// request traffic, and promotion absorbs, whose directories are not yet
// served (the cluster map still points at the dead primary until the
// coordinator publishes the post-failover map).
func (s *Store) ApplyReplicated(muts []kvstore.Mutation) error {
	if len(muts) == 0 {
		return nil
	}
	type indexOp struct {
		ino namespace.Ino
		ref inoRef
		del bool
	}
	var idx []indexOp
	// pending tracks puts earlier in this same batch so a later delete of
	// the key deindexes the right ino (the db read below only sees
	// pre-batch state).
	pending := make(map[string]namespace.Ino)
	b := &kvstore.Batch{}
	for _, m := range muts {
		if len(m.Key) > 0 && m.Key[0] == 0xff { // metadata keys: store only
			if m.Tombstone {
				b.Delete(m.Key)
			} else {
				b.Put(m.Key, m.Value)
			}
			continue
		}
		parent, name, kerr := namespace.DecodeKey(m.Key)
		if m.Tombstone {
			b.Delete(m.Key)
			if kerr != nil {
				continue
			}
			// Deindex whatever ino currently sits at the key.
			gone := inoRef{parent: parent, name: name}
			if ino, ok := pending[string(m.Key)]; ok {
				delete(pending, string(m.Key))
				idx = append(idx, indexOp{ino: ino, ref: gone, del: true})
			} else if v, found, err := s.db.Get(m.Key); err == nil && found {
				if in, derr := namespace.DecodeInode(v); derr == nil {
					idx = append(idx, indexOp{ino: in.Ino, ref: gone, del: true})
				}
			}
			continue
		}
		b.Put(m.Key, m.Value)
		if kerr != nil {
			continue
		}
		if in, derr := namespace.DecodeInode(m.Value); derr == nil {
			pending[string(m.Key)] = in.Ino
			idx = append(idx, indexOp{
				ino: in.Ino,
				ref: inoRef{parent: parent, name: name, isDir: in.IsDir()},
			})
		}
	}
	if err := s.db.ApplyBatch(b); err != nil {
		return err
	}
	s.inoMu.Lock()
	for _, op := range idx {
		if op.del {
			s.unindexLocked(op.ino, op.ref.parent, op.ref.name)
		} else {
			s.byIno[op.ino] = op.ref
		}
	}
	s.inoMu.Unlock()
	return nil
}

// AbsorbFrom merges every inode record of src into this serving store —
// the promotion step that turns a warm replica into served metadata.
// Metadata keys are skipped: the promotee keeps its own allocation
// watermark and pin map, and ino ranges are disjoint per MDS (id << 48)
// so absorbed inodes can never collide with locally allocated ones.
// Returns the number of inode records absorbed.
func (s *Store) AbsorbFrom(src *Store) (int, error) {
	absorbed := 0
	chunk := make([]kvstore.Mutation, 0, applyReplicatedChunk)
	var applyErr error
	err := src.SnapshotPairs(func(k, v []byte) bool {
		if len(k) > 0 && k[0] == 0xff {
			return true
		}
		chunk = append(chunk, kvstore.Mutation{
			Key:   append([]byte(nil), k...),
			Value: append([]byte(nil), v...),
		})
		if len(chunk) >= applyReplicatedChunk {
			if applyErr = s.ApplyReplicated(chunk); applyErr != nil {
				return false
			}
			absorbed += len(chunk)
			chunk = chunk[:0]
		}
		return true
	})
	if err == nil {
		err = applyErr
	}
	if err != nil {
		return absorbed, err
	}
	if len(chunk) > 0 {
		if err := s.ApplyReplicated(chunk); err != nil {
			return absorbed, err
		}
		absorbed += len(chunk)
	}
	return absorbed, nil
}
