// Package replication implements primary–backup replication for the
// OrigamiFS metadata servers: every MDS ships its whole shard store to
// the next MDS of a ring, which keeps it as a warm replica — the
// failover path. The primary's Shipper is its store's commit hook: it
// streams the kvstore WAL records the hook hands out, unchanged, to the
// backup over the existing RPC layer, where a Receiver applies them whole
// into a replica mds.Store. A fresh or lagging replica first catches up
// from a snapshot of the store, shipped as records of puts, then switches
// to tail streaming. On failover the coordinator promotes the backup: the
// replica is absorbed into the promotee's serving store and the cluster
// map is repointed at it.
//
// The shipping protocol is a single-writer stream identified by a
// (primary, session) pair. Sessions restart from scratch — a new
// session always begins with a snapshot — and records within a session
// carry densely increasing sequence numbers, so the receiver can detect
// any gap and force a resync. A frame carries whole records only, and the
// receiver applies a frame as one atomic batch, so a replica never holds
// part of a record. Replay is idempotent (last-writer-wins puts, no-op
// deletes of absent keys), which lets a snapshot overlap the tail that
// accumulated while it was exported. Appends additionally carry the
// primary's head sequence, which the receiver reports as its lag.
package replication

import (
	"origami/internal/mds"
	"origami/internal/rpc"
)

// RPC method numbers of the replication protocol. They live in a range
// far above the metadata protocol so both handler sets share one server.
const (
	// MethodSnapBegin opens a new session: the receiver discards any
	// previous replica state for the primary and prepares a fresh store.
	MethodSnapBegin rpc.Method = iota + 100
	// MethodSnapChunk delivers one chunk of the snapshot: a record of
	// puts.
	MethodSnapChunk
	// MethodSnapEnd seals the snapshot: the replica is live and tail
	// appends resume from the carried base sequence number.
	MethodSnapEnd
	// MethodAppend delivers consecutive tail WAL records, whole.
	MethodAppend
	// MethodPromote absorbs the replica into the backup's serving store
	// (coordinator failover).
	MethodPromote
	// MethodReplStatus reports a replica's session/applied state.
	MethodReplStatus
)

// methodNames feeds the rpc metric name hook.
var methodNames = map[rpc.Method]string{
	MethodSnapBegin:  "repl_snap_begin",
	MethodSnapChunk:  "repl_snap_chunk",
	MethodSnapEnd:    "repl_snap_end",
	MethodAppend:     "repl_append",
	MethodPromote:    "repl_promote",
	MethodReplStatus: "repl_status",
}

// MethodName returns the metric segment for a replication method.
func MethodName(m rpc.Method) string { return methodNames[m] }

// CodeGap is the coded error a receiver returns when an append does not
// extend its replica exactly — wrong session or non-contiguous sequence.
// The shipper reacts by starting a new session with a fresh snapshot.
const CodeGap = "EREPLGAP"

// IsGap reports whether err is a receiver gap/session-mismatch error.
func IsGap(err error) bool { return mds.ErrCode(err) == CodeGap }

// Every replication body opens with the stream's primary and session:
//
//	SnapBegin  [primary][session]
//	SnapChunk  [primary][session][record list of one record of puts]
//	SnapEnd    [primary][session][base seq]
//	Append     [primary][session][head][from seq][record list]
//
// where [primary] is 4 bytes and a record list is the mds.DecodeRecords
// form shared with migration. An Append's records carry sequence numbers
// from, from+1, ...; an empty Append only updates the head.
func appendHeader(w *rpc.Wire, primary int, session uint64) {
	w.U32(uint32(primary)).U64(session)
}

func readHeader(r *rpc.Reader) (primary int, session uint64) {
	primary = int(r.U32())
	return primary, r.U64()
}

func decodeAppliedResp(body []byte) (uint64, error) {
	r := rpc.NewReader(body)
	applied := r.U64()
	return applied, r.Err()
}

// EncodePromote builds the body of a MethodPromote call: absorb the
// replica of the given dead primary into the serving store.
func EncodePromote(primary int) []byte {
	var w rpc.Wire
	w.U32(uint32(primary))
	return w.Bytes()
}

// DecodePromoteResp parses the MethodPromote response: the number of
// inode records absorbed.
func DecodePromoteResp(body []byte) (int, error) {
	r := rpc.NewReader(body)
	n := int(r.U64())
	return n, r.Err()
}
