package mds

import (
	"errors"
	"fmt"
	"strings"

	"origami/internal/kvstore"
	"origami/internal/namespace"
	"origami/internal/rpc"
)

// RPC method numbers of the OrigamiFS metadata protocol.
const (
	MethodPing rpc.Method = iota + 1
	MethodGetattr
	MethodReaddir
	MethodDump
	// MethodIngest carries a record list of puts: the copy a migration
	// prepare ships to its destination.
	MethodIngest
	MethodGetMap
	MethodSetMap
	// Two-phase migration (coordinator-driven): Prepare freezes the
	// source subtree and ships it to the destination, Commit swaps it
	// for a fake-inode redirect, Abort rolls the shipped copy back.
	MethodMigratePrepare
	MethodMigrateCommit
	MethodMigrateAbort
	// MethodEvict carries a record list of deletes that removes a
	// shipped-but-uncommitted subtree copy from a migration destination
	// (the rollback half of MethodMigrateAbort).
	MethodEvict
	// MethodMetrics returns the MDS's telemetry registry snapshot as
	// JSON (the RPC twin of the HTTP /metrics admin endpoint, for
	// clients that only know shard RPC addresses).
	MethodMetrics
	// MethodTraces returns the MDS's span store as a telemetry.TraceDump
	// JSON document; an optional 8-byte trace ID in the body selects one
	// trace (the RPC twin of the HTTP /traces admin endpoint).
	MethodTraces
	// MethodBuildInfo returns the process build info (version, go
	// runtime, uptime, enabled features) as JSON.
	MethodBuildInfo
	// MethodResolvePath resolves a run of path components server-side in
	// one RPC, stopping at the first missing entry, fake-inode redirect,
	// or shard boundary — the batching the Eq.-2 cost model assumes (one
	// RPC per same-owner run of components). The response carries a
	// terminal negative flag (the first missing component under an owned
	// directory resolves the whole path to "absent" in one round trip,
	// cacheable as a negative entry) and a lease-grant trailer for every
	// owned directory the walk traversed, so one warm-up resolve seeds
	// the client cache for the entire prefix.
	MethodResolvePath
	// MethodBatch is the one namespace mutation: a frame of one or more
	// sub-ops (create, mkdir, remove, setattr, rename, insert) applied
	// as one atomic WAL batch record and answered per-op. Ops carry
	// (clientID, opID) identities for idempotent replay after transport
	// failures and failover.
	MethodBatch
)

// Coordinator admin protocol. These methods are served not by the MDS
// itself but by the coordinator co-located with MDS 0 (the map
// authority), registered onto the same RPC server — the numbering range
// stays clear of both the metadata protocol above and the replication
// protocol (100+).
const (
	// MethodEpochRun asks the coordinator for one balancing round and
	// returns the EpochResult summary as JSON.
	MethodEpochRun rpc.Method = iota + 200
	// MethodModelInfo returns the coordinator's planner and its model
	// status (source, version, window rows, fits) as JSON.
	MethodModelInfo
	// MethodClusterMetrics returns the coordinator's merged cluster
	// snapshot — every live MDS's registry plus the coordinator's own —
	// as JSON (the scrape behind `origami-cli top`).
	MethodClusterMetrics
)

// methodNames maps method numbers to the segment used in metric names
// (rpc.client.<name>.calls, rpc.server.<name>.latency_ns, ...).
var methodNames = map[rpc.Method]string{
	MethodPing:           "ping",
	MethodGetattr:        "getattr",
	MethodReaddir:        "readdir",
	MethodDump:           "dump",
	MethodIngest:         "ingest",
	MethodGetMap:         "getmap",
	MethodSetMap:         "setmap",
	MethodResolvePath:    "resolve_path",
	MethodBatch:          "batch",
	MethodMigratePrepare: "migrate_prepare",
	MethodMigrateCommit:  "migrate_commit",
	MethodMigrateAbort:   "migrate_abort",
	MethodEvict:          "evict",
	MethodMetrics:        "metrics",
	MethodTraces:         "traces",
	MethodBuildInfo:      "buildinfo",
	MethodEpochRun:       "epoch_run",
	MethodModelInfo:      "model_info",
	MethodClusterMetrics: "cluster_metrics",
}

// MethodName returns the human-readable metric segment for a protocol
// method, or "" for unknown methods (the rpc layer then falls back to
// "m<N>").
func MethodName(m rpc.Method) string { return methodNames[m] }

// Error codes carried in RemoteError messages as "Exxx: detail". The
// NotOwner code is the networked analogue of a fake-inode redirect: the
// client refreshes its partition view and retries.
const (
	CodeNoEnt    = "ENOENT"
	CodeExist    = "EEXIST"
	CodeNotEmpty = "ENOTEMPTY"
	CodeNotDir   = "ENOTDIR"
	CodeIsDir    = "EISDIR"
	CodeNotOwner = "ENOTOWNER"
	CodeInvalid  = "EINVAL"
	CodeBusy     = "EBUSY"
)

// CodedError formats a protocol error.
func CodedError(code, format string, args ...interface{}) error {
	return fmt.Errorf("%s: %s", code, fmt.Sprintf(format, args...))
}

// ErrCode extracts the protocol code from an error returned by an RPC
// call, or "" if it is not a coded remote error.
func ErrCode(err error) string {
	var re *rpc.RemoteError
	if !errors.As(err, &re) {
		return ""
	}
	if i := strings.Index(re.Msg, ":"); i > 0 {
		return re.Msg[:i]
	}
	return ""
}

// IsNotOwner reports whether the error is a not-owner redirect.
func IsNotOwner(err error) bool { return ErrCode(err) == CodeNotOwner }

// appendInodeBlob appends in's record to w as a blob — a single-inode
// response body, or one element of a list. nil is the empty blob.
func appendInodeBlob(w *rpc.Wire, in *namespace.Inode) {
	if in == nil {
		w.U32(0)
		return
	}
	w.U32(uint32(namespace.RecordSize(in)))
	w.Set(namespace.AppendInode(w.Bytes(), in))
}

// A record list is the one wire form of store state — replication
// appends and snapshot chunks, migration ingest and evict: a count, then
// per record its op count and its op bodies (WAL layout) as a blob.
//
//	[4B records] records × ([4B ops][4B len][op bodies])

// AppendRecordList opens a record list of count records on w; each
// record then follows as an AppendRecord.
func AppendRecordList(w *rpc.Wire, count int) { w.U32(uint32(count)) }

// AppendRecord appends one record of n op bodies to w.
func AppendRecord(w *rpc.Wire, ops []byte, n int) { w.U32(uint32(n)).Blob(ops) }

// DecodeRecords reads the record list that ends r's body into b, checking
// every record (kvstore.Batch.AppendOps, which copies) and that nothing
// trails the list, and returns how many records it held. On error b may
// hold a prefix of the list and must be discarded.
func DecodeRecords(r *rpc.Reader, b *kvstore.Batch) (int, error) {
	count := int(r.U32())
	for i := 0; i < count && r.Err() == nil; i++ {
		n := int(r.U32())
		if ops := r.Blob(); r.Err() == nil {
			if err := b.AppendOps(ops, n); err != nil {
				return 0, err
			}
		}
	}
	if err := r.Err(); err != nil {
		return 0, err
	}
	if r.Remaining() != 0 {
		return 0, fmt.Errorf("%d bytes trail the record list", r.Remaining())
	}
	return count, nil
}

// PinEntry is one partition-map assignment on the wire.
type PinEntry struct {
	Ino namespace.Ino
	MDS int
}

// pinEntrySize is one pin's wire size: an ino and an MDS id.
const pinEntrySize = 8 + 4

// EncodeMap serialises a partition-map version and its pins.
func EncodeMap(version uint64, pins []PinEntry) []byte {
	var w rpc.Wire
	w.U64(version)
	w.U32(uint32(len(pins)))
	for _, p := range pins {
		w.U64(uint64(p.Ino))
		w.U32(uint32(p.MDS))
	}
	return w.Bytes()
}

// DecodeMap parses EncodeMap output. The body arrives from a socket
// (SetMap, a GetMap response) or from disk (the persisted pin map), so
// the pin count is checked against the bytes that follow it before
// anything is allocated.
func DecodeMap(body []byte) (version uint64, pins []PinEntry, err error) {
	r := rpc.NewReader(body)
	version = r.U64()
	n := int(r.U32())
	if err := r.Err(); err != nil {
		return 0, nil, err
	}
	if n > r.Remaining()/pinEntrySize {
		return 0, nil, fmt.Errorf("mds: map claims %d pins in %d bytes", n, r.Remaining())
	}
	pins = make([]PinEntry, n)
	for i := range pins {
		pins[i] = PinEntry{Ino: namespace.Ino(r.U64()), MDS: int(r.U32())}
	}
	if r.Remaining() != 0 {
		return 0, nil, fmt.Errorf("mds: %d bytes trail the map", r.Remaining())
	}
	return version, pins, r.Err()
}

// DumpRow is one directory's Data Collector record in a networked dump.
type DumpRow struct {
	Ino        namespace.Ino
	Parent     namespace.Ino
	Reads      int64
	Writes     int64
	Lookups    int64 // path resolutions through this directory
	ServiceNS  int64
	ChildFiles int32
}

// StatsSnapshot is the per-MDS tally block of a dump.
type StatsSnapshot struct {
	Ops       int64
	RPCs      int64
	ServiceNS int64
	Inodes    int64
}

// EncodeDump serialises a collector dump.
func EncodeDump(st StatsSnapshot, rows []DumpRow) []byte {
	var w rpc.Wire
	w.I64(st.Ops).I64(st.RPCs).I64(st.ServiceNS).I64(st.Inodes)
	w.U32(uint32(len(rows)))
	for _, row := range rows {
		w.U64(uint64(row.Ino)).U64(uint64(row.Parent))
		w.I64(row.Reads).I64(row.Writes).I64(row.Lookups).I64(row.ServiceNS)
		w.U32(uint32(row.ChildFiles))
	}
	return w.Bytes()
}

// dumpRowSize is one DumpRow's wire size: two inos, four int64
// tallies and a uint32 child-file count.
const dumpRowSize = 2*8 + 4*8 + 4

// DecodeDump parses EncodeDump output. The coordinator decodes one dump
// from every MDS each epoch, so the row count is checked against the
// bytes that follow it before anything is allocated, as in DecodeMap.
func DecodeDump(body []byte) (StatsSnapshot, []DumpRow, error) {
	r := rpc.NewReader(body)
	st := StatsSnapshot{
		Ops: r.I64(), RPCs: r.I64(), ServiceNS: r.I64(), Inodes: r.I64(),
	}
	n := int(r.U32())
	if err := r.Err(); err != nil {
		return StatsSnapshot{}, nil, err
	}
	if n > r.Remaining()/dumpRowSize {
		return StatsSnapshot{}, nil, fmt.Errorf("mds: dump claims %d rows in %d bytes", n, r.Remaining())
	}
	rows := make([]DumpRow, n)
	for i := range rows {
		rows[i] = DumpRow{
			Ino:        namespace.Ino(r.U64()),
			Parent:     namespace.Ino(r.U64()),
			Reads:      r.I64(),
			Writes:     r.I64(),
			Lookups:    r.I64(),
			ServiceNS:  r.I64(),
			ChildFiles: int32(r.U32()),
		}
	}
	if r.Remaining() != 0 {
		return StatsSnapshot{}, nil, fmt.Errorf("mds: %d bytes trail the dump", r.Remaining())
	}
	return st, rows, r.Err()
}
