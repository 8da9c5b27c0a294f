package replication

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"origami/internal/kvstore"
	"origami/internal/mds"
	"origami/internal/rpc"
	"origami/internal/telemetry"
)

// Receiver is the replica side of replication: it hosts one warm replica
// mds.Store per primary it protects, applies shipped snapshot chunks and
// WAL records into it — each frame as one atomic batch through
// mds.Store.ApplyRecord — and, on coordinator failover, absorbs the
// replica into the host MDS's own serving store (promotion).
//
// A receiver registers its handlers on the host MDS's RPC server, so
// replication shares the data-plane connections, fault injection, and
// telemetry of the metadata protocol. The handlers follow the server's
// buffer rule: a frame's records are decoded into a kvstore.Batch — the
// one copy of their bytes, which the replica's memtable then keeps — and
// neither the request body nor the response buffer outlives the call.
type Receiver struct {
	hostID  int
	dir     string // replica stores live at dir/replica-<primary>
	serving *mds.Store
	kvOpts  kvstore.Options
	reg     *telemetry.Registry
	log     *telemetry.Logger

	mu       sync.Mutex
	replicas map[int]*replica // keyed by primary
	closed   bool

	recordsC    *telemetry.Counter
	snapshotsC  *telemetry.Counter
	promotionsC *telemetry.Counter
	gapsC       *telemetry.Counter
}

// replica is the state of one protected primary. All fields are guarded
// by the receiver mutex; the shipper serialises its stream, so holding
// it across the store apply costs nothing in the common case.
type replica struct {
	store   *mds.Store
	dir     string
	session uint64
	applied uint64 // highest contiguous shipped seq applied
	head    uint64 // primary's last assigned seq, per latest append
	live    bool   // snapshot sealed; tail appends accepted
}

// NewReceiver creates a receiver for the MDS hostID whose serving store
// is serving. Replica stores are created under dir with kvOpts (use the
// same options as the serving store so durability matches). reg may be
// nil for a private registry.
func NewReceiver(hostID int, dir string, serving *mds.Store, kvOpts kvstore.Options, reg *telemetry.Registry) *Receiver {
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	return &Receiver{
		hostID:      hostID,
		dir:         dir,
		serving:     serving,
		kvOpts:      kvOpts,
		reg:         reg,
		log:         telemetry.L("repl").With("mds", hostID),
		replicas:    make(map[int]*replica),
		recordsC:    reg.Counter("repl.receiver.records_applied"),
		snapshotsC:  reg.Counter("repl.receiver.snapshots_installed"),
		promotionsC: reg.Counter("repl.receiver.promotions"),
		gapsC:       reg.Counter("repl.receiver.gaps"),
	}
}

// Register installs the replication handlers on the host's RPC server.
func (rc *Receiver) Register(srv *rpc.Server) {
	srv.HandleInfo(MethodSnapBegin, rc.handleSnapBegin)
	srv.HandleInfo(MethodSnapChunk, rc.handleSnapChunk)
	srv.HandleInfo(MethodSnapEnd, rc.handleSnapEnd)
	srv.HandleInfo(MethodAppend, rc.handleAppend)
	srv.HandleInfo(MethodPromote, rc.handlePromote)
	srv.HandleInfo(MethodReplStatus, rc.handleReplStatus)
}

func (rc *Receiver) appliedGauge(primary int) *telemetry.Gauge {
	return rc.reg.Gauge(fmt.Sprintf("repl.receiver.applied_seq.p%d", primary))
}

// invalid reports an undecodable request body: the frame is refused
// whole, before anything applies.
func invalid(err error) error { return mds.CodedError(mds.CodeInvalid, "%v", err) }

func noSnapshot(primary int, session uint64) error {
	return mds.CodedError(CodeGap, "no open snapshot for primary %d session %d", primary, session)
}

func (rc *Receiver) handleSnapBegin(_ rpc.CallInfo, body []byte, _ *rpc.Wire) error {
	r := rpc.NewReader(body)
	primary, session := readHeader(r)
	if err := r.Err(); err != nil {
		return invalid(err)
	}
	rc.mu.Lock()
	defer rc.mu.Unlock()
	if rc.closed {
		return fmt.Errorf("replication: receiver closed")
	}
	rep, ok := rc.replicas[primary]
	if ok {
		// Resync: reuse the open store, dropping its contents.
		if err := rep.store.WipeForInstall(); err != nil {
			return err
		}
	} else {
		dir := filepath.Join(rc.dir, fmt.Sprintf("replica-%d", primary))
		// Leftovers from a previous process are stale — a new session
		// always starts from an empty replica.
		if err := os.RemoveAll(dir); err != nil {
			return err
		}
		st, err := mds.OpenStore(dir, primary, rc.kvOpts)
		if err != nil {
			return err
		}
		rep = &replica{store: st, dir: dir}
		rc.replicas[primary] = rep
	}
	rep.session = session
	rep.applied = 0
	rep.head = 0
	rep.live = false
	rc.appliedGauge(primary).Set(0)
	rc.log.Info("replica session started", "primary", primary, "session", session)
	return nil
}

func (rc *Receiver) handleSnapChunk(_ rpc.CallInfo, body []byte, _ *rpc.Wire) error {
	r := rpc.NewReader(body)
	primary, session := readHeader(r)
	var b kvstore.Batch
	if _, err := mds.DecodeRecords(r, &b); err != nil {
		return invalid(err)
	}
	rc.mu.Lock()
	defer rc.mu.Unlock()
	rep, ok := rc.replicas[primary]
	if !ok || rep.session != session || rep.live {
		rc.gapsC.Inc()
		return noSnapshot(primary, session)
	}
	return rep.store.ApplyRecord(&b)
}

func (rc *Receiver) handleSnapEnd(_ rpc.CallInfo, body []byte, resp *rpc.Wire) error {
	r := rpc.NewReader(body)
	primary, session := readHeader(r)
	baseSeq := r.U64()
	if err := r.Err(); err != nil {
		return invalid(err)
	}
	rc.mu.Lock()
	defer rc.mu.Unlock()
	rep, ok := rc.replicas[primary]
	if !ok || rep.session != session || rep.live {
		rc.gapsC.Inc()
		return noSnapshot(primary, session)
	}
	rep.live = true
	rep.applied = baseSeq
	rep.head = baseSeq
	rc.snapshotsC.Inc()
	rc.appliedGauge(primary).Set(float64(baseSeq))
	rc.log.Info("replica snapshot sealed", "primary", primary, "base_seq", baseSeq)
	resp.U64(rep.applied)
	return nil
}

// handleAppend applies one frame of consecutive whole records as one
// atomic batch: the replica holds all of the frame or none of it, so it
// never holds part of a record.
func (rc *Receiver) handleAppend(_ rpc.CallInfo, body []byte, resp *rpc.Wire) error {
	r := rpc.NewReader(body)
	primary, session := readHeader(r)
	head := r.U64()
	fromSeq := r.U64()
	var b kvstore.Batch
	records, err := mds.DecodeRecords(r, &b)
	if err != nil {
		return invalid(err)
	}
	rc.mu.Lock()
	defer rc.mu.Unlock()
	rep, ok := rc.replicas[primary]
	if !ok || !rep.live || rep.session != session || (records > 0 && fromSeq != rep.applied+1) {
		rc.gapsC.Inc()
		return mds.CodedError(CodeGap, "append does not extend replica of primary %d (session %d from %d)", primary, session, fromSeq)
	}
	// An empty append extends nothing; it only updates the head.
	if records > 0 {
		if err := rep.store.ApplyRecord(&b); err != nil {
			return err
		}
		rep.applied += uint64(records)
		rc.recordsC.Add(int64(records))
		rc.appliedGauge(primary).Set(float64(rep.applied))
	}
	rep.head = head
	resp.U64(rep.applied)
	return nil
}

func (rc *Receiver) handlePromote(_ rpc.CallInfo, body []byte, resp *rpc.Wire) error {
	r := rpc.NewReader(body)
	primary := int(r.U32())
	if err := r.Err(); err != nil {
		return invalid(err)
	}
	rc.mu.Lock()
	defer rc.mu.Unlock()
	rep, ok := rc.replicas[primary]
	if !ok {
		return mds.CodedError(mds.CodeInvalid, "no replica of primary %d on mds %d", primary, rc.hostID)
	}
	if !rep.live {
		return mds.CodedError(mds.CodeBusy, "replica of primary %d still bootstrapping", primary)
	}
	absorbed, err := rc.serving.AbsorbFrom(rep.store)
	if err != nil {
		return fmt.Errorf("replication: absorb replica of %d: %w", primary, err)
	}
	delete(rc.replicas, primary)
	rep.store.Close()
	os.RemoveAll(rep.dir)
	rc.promotionsC.Inc()
	rc.appliedGauge(primary).Set(0)
	rc.log.Info("replica promoted", "primary", primary, "absorbed", absorbed, "applied_seq", rep.applied)
	resp.U64(uint64(absorbed))
	return nil
}

func (rc *Receiver) handleReplStatus(_ rpc.CallInfo, body []byte, resp *rpc.Wire) error {
	r := rpc.NewReader(body)
	primary := int(r.U32())
	if err := r.Err(); err != nil {
		return invalid(err)
	}
	rc.mu.Lock()
	defer rc.mu.Unlock()
	rep, ok := rc.replicas[primary]
	if !ok {
		resp.U8(0).U8(0).U64(0).U64(0)
		return nil
	}
	live := uint8(0)
	if rep.live {
		live = 1
	}
	resp.U8(1).U8(live).U64(rep.session).U64(rep.applied)
	return nil
}

// ReplicaStatus is one replica's state as reported on the admin surface.
type ReplicaStatus struct {
	Primary int    `json:"primary"`
	Session uint64 `json:"session"`
	Applied uint64 `json:"applied_seq"`
	Head    uint64 `json:"head_seq"`
	Live    bool   `json:"live"`
	Inodes  int    `json:"inodes"`
}

// Status reports every hosted replica (admin /healthz).
func (rc *Receiver) Status() []ReplicaStatus {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	out := make([]ReplicaStatus, 0, len(rc.replicas))
	for primary, rep := range rc.replicas {
		out = append(out, ReplicaStatus{
			Primary: primary,
			Session: rep.session,
			Applied: rep.applied,
			Head:    rep.head,
			Live:    rep.live,
			Inodes:  rep.store.Count(),
		})
	}
	return out
}

// ReplicaStore exposes the replica store hosted for primary (tests), or
// nil.
func (rc *Receiver) ReplicaStore(primary int) *mds.Store {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	if rep, ok := rc.replicas[primary]; ok {
		return rep.store
	}
	return nil
}

// Close shuts every hosted replica store.
func (rc *Receiver) Close() error {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	if rc.closed {
		return nil
	}
	rc.closed = true
	var err error
	for primary, rep := range rc.replicas {
		if cerr := rep.store.Close(); err == nil {
			err = cerr
		}
		delete(rc.replicas, primary)
	}
	return err
}
