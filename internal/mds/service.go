package mds

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"origami/internal/kvstore"
	"origami/internal/lease"
	"origami/internal/namespace"
	"origami/internal/rpc"
	"origami/internal/telemetry"
)

// Service is one running metadata server: the shard store, the Data
// Collector counters, the local copy of the partition map, and the RPC
// handlers.
type Service struct {
	ID    int
	store *Store
	srv   *rpc.Server

	// opMu orders a migration's freeze against in-flight mutations:
	// MethodBatch holds it shared from its freeze check through its
	// apply, and a prepare holds it exclusively only while it installs
	// the frozen set, so once the set is in place no mutation admitted
	// without seeing it is still applying. Reads never take it. opMu sits
	// at the top of the shard's lock hierarchy:
	//
	//	opMu → Store stripe(s) → Store.inoMu → kvstore.DB
	opMu sync.RWMutex

	// freeze is the in-flight migration, nil when there is none. A
	// mutation that touches its frozen set waits until the commit or
	// abort that lifts it (§4.1's freeze-copy-switch, one subtree wide):
	// without the freeze, a create landing between collect and commit
	// would be orphaned on the source.
	freeze atomic.Pointer[preparedMigration]

	// mu guards the low-rate control state: the partition map, the
	// prepared migration, and the abort count. The hot-path Data
	// Collector counters deliberately do NOT use it — they are the
	// atomics and shards below, so concurrent requests never contend
	// on one mutex just to bump statistics.
	mu   sync.Mutex
	pins map[namespace.Ino]int
	// mapVersion is written under mu with the map it names; the read
	// handlers stamp it on every owner-served response without the lock.
	mapVersion atomic.Uint64

	// Data Collector epoch counters (dumped and reset by handleDump).
	ops       atomic.Int64
	rpcs      atomic.Int64
	serviceNS atomic.Int64
	// dirAcc shards the per-directory access counters by ino so the
	// get-or-create map step doesn't serialise unrelated directories.
	dirAcc [dirAccShards]dirAccShard

	now   func() int64
	peers func(id int) (*rpc.Client, error) // for migration pushes

	// prep is the shipped migration awaiting its commit or abort;
	// PrepareTimeout bounds how long an abandoned prepare may hold its
	// freeze before auto-abort.
	prep            *preparedMigration
	PrepareTimeout  time.Duration
	MigrationAborts int64 // auto- or explicit aborts (observability)

	// leases is the shard's per-directory lease table. Owner-served
	// read responses carry grant trailers from it, mutations bump the
	// touched directory's epoch, and migrations revoke the shipped
	// subtree. It is rebuilt (with a fresh ID salt) whenever a Service
	// is, so restarts and replica promotions invalidate every
	// outstanding grant implicitly.
	leases *lease.Table

	// reg holds the shard's telemetry: per-op service latency,
	// migration phase timings, store size. Exported over both the
	// MethodMetrics RPC and the HTTP admin endpoint.
	reg *telemetry.Registry
	log *telemetry.Logger

	// tracer (tracerBox) is the shard's span recorder, installed by
	// SetTracer; nil disables span collection.
	tracer atomic.Value

	// opHist holds the per-kind service latency histograms handleBatch
	// records once per sub-op, indexed by BatchOpKind.
	opHist [len(batchOpNames)]*telemetry.Histogram

	// replays deduplicates re-sent MethodBatch ops by (clientID, opID),
	// so a frame retried across a transport failure is answered instead
	// of double-applied.
	replays replayTable

	// featMu guards features, the extra feature flags reported by
	// BuildInfo.
	featMu   sync.Mutex
	features []string
}

type tracerBox struct{ t *telemetry.Tracer }

// SetTracer installs the shard's span tracer, wiring it through the RPC
// server (dispatch spans) and the store (kvstore commit spans) as well.
// Call it after Serve; safe while serving.
func (s *Service) SetTracer(t *telemetry.Tracer) {
	s.tracer.Store(tracerBox{t})
	if s.srv != nil {
		s.srv.SetTracer(t)
	}
	s.store.SetTracer(t)
}

func (s *Service) spanTracer() *telemetry.Tracer {
	if box, ok := s.tracer.Load().(tracerBox); ok {
		return box.t
	}
	return nil
}

// Tracer returns the shard's span tracer (nil when none installed).
func (s *Service) Tracer() *telemetry.Tracer { return s.spanTracer() }

// AddBuildFeature records an enabled feature flag ("replication",
// "commit-async", "online-learning") for BuildInfo.
func (s *Service) AddBuildFeature(f string) {
	s.featMu.Lock()
	s.features = append(s.features, f)
	s.featMu.Unlock()
}

// preparedMigration is the source-side state of one migration, from
// MigratePrepare until MigrateCommit or MigrateAbort. Its frozen set —
// every directory of the subtree plus the root's own entry — is fixed
// when the prepare installs it.
type preparedMigration struct {
	root       namespace.Ino
	dest       int
	dirs       map[namespace.Ino]bool
	rootParent namespace.Ino
	rootName   string
	frozenAt   time.Time
	thawed     chan struct{} // closed when the freeze lifts
	inos       []*namespace.Inode
	timer      *time.Timer
}

// holds reports whether the entry (parent, name) is in the frozen set.
func (p *preparedMigration) holds(parent namespace.Ino, name string) bool {
	return p.dirs[parent] || (parent == p.rootParent && name == p.rootName)
}

// dirAccShards splits the per-directory counter map; 16 shards are
// plenty given the counters themselves are atomic (the shard mutex is
// only held for the map lookup).
const dirAccShards = 16

type dirAccShard struct {
	mu sync.Mutex
	m  map[namespace.Ino]*dirCounters
}

// dirCounters accumulates one directory's epoch counters. Fields are
// atomic so two requests touching the same directory bump them without
// holding any lock.
type dirCounters struct {
	reads, writes, lookups, serviceNS atomic.Int64
}

// NewService assembles a service around an open store. peers resolves
// other MDS ids to RPC clients (used by the migration source); it may be
// nil on clusters that never migrate.
func NewService(id int, store *Store, peers func(int) (*rpc.Client, error)) *Service {
	s := &Service{
		ID:    id,
		store: store,
		pins:  make(map[namespace.Ino]int),
		now:   func() int64 { return time.Now().UnixNano() },
		peers: peers,

		PrepareTimeout: 30 * time.Second,

		reg: telemetry.NewRegistry(),
		log: telemetry.L("mds").With("mds", id),
	}
	s.leases = lease.NewTable(s.reg, lease.DefaultTTL)
	for kind, name := range batchOpNames {
		if name != "" {
			s.opHist[kind] = s.reg.Histogram("mds.op." + name + ".latency_ns")
		}
	}
	for i := range s.dirAcc {
		s.dirAcc[i].m = make(map[namespace.Ino]*dirCounters)
	}
	if id == 0 {
		// MDS 0 owns the root in the initial state (§4.2).
		if has := store.HasIno(namespace.RootIno); !has {
			root := &namespace.Inode{
				Ino: namespace.RootIno, Parent: namespace.RootIno, Name: "",
				Type: namespace.TypeDir, Mode: 0o755, Nlink: 2,
			}
			_ = store.Put(root)
		}
	}
	// Recover the partition map persisted by the last SetMap push, so the
	// map authority survives restarts.
	if data, err := store.LoadPinMap(); err == nil && data != nil {
		if version, pins, derr := DecodeMap(data); derr == nil {
			s.mapVersion.Store(version)
			for _, p := range pins {
				s.pins[p.Ino] = p.MDS
			}
		}
	}
	return s
}

// Serve registers handlers and starts listening; it returns the bound
// address.
func (s *Service) Serve(addr string) (string, error) {
	srv := rpc.NewServer()
	srv.SetTelemetry(s.reg, MethodName)
	srv.Handle(MethodPing, s.handlePing)
	srv.HandleInfo(MethodGetattr, s.timed("getattr", s.handleGetattr))
	srv.HandleInfo(MethodReaddir, s.timed("readdir", s.handleReaddir))
	// A frame's service time is charged to its sub-ops' kinds by
	// handleBatch, so the frame itself records no histogram.
	srv.HandleInfo(MethodBatch, s.instrument("batch", nil, s.handleBatch))
	srv.Handle(MethodDump, s.handleDump)
	srv.HandleInfo(MethodIngest, s.handleIngest)
	srv.Handle(MethodMigratePrepare, s.handleMigratePrepare)
	srv.Handle(MethodMigrateCommit, s.handleMigrateCommit)
	srv.Handle(MethodMigrateAbort, s.handleMigrateAbort)
	srv.HandleInfo(MethodEvict, s.handleIngest)
	srv.Handle(MethodGetMap, s.handleGetMap)
	srv.Handle(MethodSetMap, s.handleSetMap)
	srv.HandleInfo(MethodResolvePath, s.timed("resolve_path", s.handleResolvePath))
	srv.Handle(MethodMetrics, s.handleMetrics)
	srv.Handle(MethodTraces, s.handleTraces)
	srv.Handle(MethodBuildInfo, s.handleBuildInfo)
	s.srv = srv
	if t := s.spanTracer(); t != nil {
		srv.SetTracer(t)
	}
	return srv.Listen(addr)
}

// Close stops the RPC server and the store, lifting any migration
// freeze left by an uncommitted prepare.
func (s *Service) Close() error {
	var err error
	if s.srv != nil {
		err = s.srv.Close()
	}
	s.mu.Lock()
	if s.prep != nil {
		s.prep.timer.Stop()
		s.prep = nil
	}
	s.mu.Unlock()
	if p := s.freeze.Load(); p != nil {
		s.thaw(p)
	}
	if cerr := s.store.Close(); err == nil {
		err = cerr
	}
	return err
}

// Server exposes the underlying RPC server (fault injection, tests,
// replication handler registration).
func (s *Service) Server() *rpc.Server { return s.srv }

// SetLeaseTTL adjusts the validity window stamped on lease grants
// (the -lease-ttl flag). Safe while serving.
func (s *Service) SetLeaseTTL(d time.Duration) { s.leases.SetTTL(d) }

// appendTrailer appends the trailer of an owner-served read onto its
// response body: the lease grants for dirs, then the partition-map
// version this MDS serves — how a client whose calls keep succeeding
// learns, within one RPC of its publication, that a migration has
// published a newer map.
func (s *Service) appendTrailer(resp *rpc.Wire, dirs ...namespace.Ino) {
	s.appendGrants(resp, dirs)
	resp.U64(s.mapVersion.Load())
}

// appendGrants writes the lease-grant trailer for dirs onto w.
func (s *Service) appendGrants(w *rpc.Wire, dirs []namespace.Ino) {
	var buf [4]lease.Grant // a response rarely vouches for more directories
	grants := buf[:0]
	for _, d := range dirs {
		grants = append(grants, s.leases.Grant(d))
	}
	lease.AppendGrants(w, grants)
}

// dirInos filters a collected subtree down to its directory inos — the
// lease entries a migration must revoke.
func dirInos(inos []*namespace.Inode) []namespace.Ino {
	dirs := make([]namespace.Ino, 0, len(inos))
	for _, in := range inos {
		if in.IsDir() {
			dirs = append(dirs, in.Ino)
		}
	}
	return dirs
}

// Store exposes the shard store (replication shipping and promotion).
func (s *Service) Store() *Store { return s.store }

// StoreStats exposes the shard store's counters (benchmarks, admin).
func (s *Service) StoreStats() kvstore.Stats { return s.store.DBStats() }

// MapVersion returns the partition-map version this MDS currently serves.
func (s *Service) MapVersion() uint64 { return s.mapVersion.Load() }

// opHandler is a metadata-op handler receiving the span context the
// store layers beneath it parent their spans on: the op's span when the
// trace is sampled, zero otherwise. Like the rpc.InfoHandler it runs
// inside, it appends its response to resp and keeps neither body nor
// resp.
type opHandler func(sc telemetry.SpanContext, body []byte, resp *rpc.Wire) error

// timed instruments h with the per-op-type service latency histogram
// mds.op.<op>.latency_ns.
func (s *Service) timed(op string, h opHandler) rpc.InfoHandler {
	return s.instrument(op, s.reg.Histogram("mds.op."+op+".latency_ns"), h)
}

// instrument wraps a handler with busy-time and RPC accounting, a service
// latency histogram (nil = none), an "mds.op.<op>" span under the
// request's propagated trace, and — at debug level — a per-request span
// log line.
func (s *Service) instrument(op string, hist *telemetry.Histogram, h opHandler) rpc.InfoHandler {
	spanName := "mds.op." + op
	return func(info rpc.CallInfo, body []byte, resp *rpc.Wire) error {
		span := s.spanTracer().StartSpanFrom(telemetry.SpanContext{
			TraceID: info.TraceID, SpanID: info.SpanID}, spanName)
		// Sampled: the kvstore and replication layers hang child spans
		// off this op. Unsampled ops hand them the zero span context —
		// their inner spans could never be retained, so they start none,
		// and slow capture still sees this op-level span.
		var sc telemetry.SpanContext
		if id := span.ID(); id != 0 {
			sc = telemetry.SpanContext{TraceID: info.TraceID, SpanID: id}
		}
		start := time.Now()
		err := h(sc, body, resp)
		el := time.Since(start).Nanoseconds()
		span.Finish(err)
		s.rpcs.Add(1)
		s.serviceNS.Add(el)
		if hist != nil {
			hist.Record(el)
		}
		if s.log.Enabled(telemetry.LevelDebug) {
			status := "ok"
			if err != nil {
				status = err.Error()
			}
			s.log.Debug("span",
				"trace", telemetry.FormatTraceID(info.TraceID),
				"op", op, "ns", el, "status", status)
		}
		return err
	}
}

// Registry exposes the shard's telemetry registry (admin endpoint,
// tests).
func (s *Service) Registry() *telemetry.Registry { return s.reg }

// refreshStoreGauges publishes the shard store's point-in-time numbers:
// the inode count and the kvstore read path's cumulative attempts vs.
// useful work (probes per get = kvstore.table.probes / kvstore.get.calls,
// filter hit rate = kvstore.bloom.skips / kvstore.table.probes), the
// dead entries — tombstones and shadowed versions — readdir scans walked
// past without listing (kvstore.scan.skips), group commit's cumulative
// WAL records, fsyncs and leader cohort wait (records per fsync =
// kvstore.wal.records / kvstore.wal.syncs), and the bytes the WAL wrote:
// its sector write-outs and zero-fill (kvstore.wal.write_bytes).
func (s *Service) refreshStoreGauges() {
	st := s.store.DBStats()
	s.reg.Gauge("mds.store.inodes").Set(float64(s.store.Count()))
	s.reg.Gauge("kvstore.get.calls").Set(float64(st.Gets))
	s.reg.Gauge("kvstore.table.probes").Set(float64(st.TableProbes))
	s.reg.Gauge("kvstore.bloom.skips").Set(float64(st.BloomSkips))
	s.reg.Gauge("kvstore.block.reads").Set(float64(st.BlockReads))
	s.reg.Gauge("kvstore.scan.skips").Set(float64(st.ScanSkips))
	s.reg.Gauge("kvstore.wal.records").Set(float64(st.WALRecords))
	s.reg.Gauge("kvstore.wal.syncs").Set(float64(st.WALSyncs))
	s.reg.Gauge("kvstore.wal.leader_wait_ns").Set(float64(st.WALSyncWaitNs))
	s.reg.Gauge("kvstore.wal.write_bytes").Set(float64(st.WALWriteBytes))
}

// handleMetrics serves the registry snapshot as JSON.
func (s *Service) handleMetrics(body []byte) ([]byte, error) {
	s.refreshStoreGauges()
	var buf bytes.Buffer
	if err := s.reg.WriteJSON(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// handleTraces serves the shard's span store: an optional 8-byte
// big-endian trace ID in the body selects one trace (empty or zero =
// recent spans). The response is the tracer's TraceDump as JSON.
func (s *Service) handleTraces(body []byte) ([]byte, error) {
	var traceID uint64
	if len(body) >= 8 {
		r := rpc.NewReader(body)
		traceID = r.U64()
		if err := r.Err(); err != nil {
			return nil, CodedError(CodeInvalid, "%v", err)
		}
	}
	dump := s.spanTracer().Dump(traceID)
	if dump.Node == "" {
		dump.Node = fmt.Sprintf("mds%d", s.ID)
	}
	return json.Marshal(dump)
}

// BuildInfo is the process build info (version, go runtime, uptime)
// with the features recorded on this service, plus "tracing" while a
// span tracer is installed. MethodBuildInfo and the admin endpoint's
// /buildinfo both serve it.
func (s *Service) BuildInfo() telemetry.BuildInfo {
	s.featMu.Lock()
	feats := append([]string(nil), s.features...)
	s.featMu.Unlock()
	if s.spanTracer() != nil {
		feats = append(feats, "tracing")
	}
	return telemetry.CollectBuildInfo(feats...)
}

func (s *Service) handleBuildInfo(body []byte) ([]byte, error) {
	return json.Marshal(s.BuildInfo())
}

func (s *Service) dirAccum(ino namespace.Ino) *dirCounters {
	sh := &s.dirAcc[uint64(ino)%dirAccShards]
	sh.mu.Lock()
	c, ok := sh.m[ino]
	if !ok {
		c = &dirCounters{}
		sh.m[ino] = c
	}
	sh.mu.Unlock()
	return c
}

func (s *Service) recordRead(dir namespace.Ino, ns int64) {
	s.ops.Add(1)
	c := s.dirAccum(dir)
	c.reads.Add(1)
	c.serviceNS.Add(ns)
}

func (s *Service) recordWrite(dir namespace.Ino, ns int64) {
	s.ops.Add(1)
	c := s.dirAccum(dir)
	c.writes.Add(1)
	c.serviceNS.Add(ns)
}

func (s *Service) recordLookup(dir namespace.Ino) {
	s.dirAccum(dir).lookups.Add(1)
}

// ownsEntry reports whether this shard serves entries under parent: a
// directory the index binds here. A missing inode, a migration's fake or
// a file is not — the caller answers not-owner so the client refreshes
// its map. The index is kept in step by every write: no store read.
func (s *Service) ownsEntry(parent namespace.Ino) bool {
	return s.store.HasIno(parent)
}

// ownsStored is ownsEntry read from the store itself. The re-checks that
// catch a migration committing mid-request use it: the commit's record
// lands in the store before the index follows.
func (s *Service) ownsStored(parent namespace.Ino) bool {
	in, found, err := s.store.getattr(parent)
	return err == nil && found && in.Type != namespace.TypeFake
}

func (s *Service) handlePing(body []byte) ([]byte, error) {
	return []byte("pong"), nil
}

// handleResolvePath is the cache-coherent batched walk behind the SDK's
// lease cache: it walks as many of the requested components as this
// shard holds, stopping (without error) at a fake-inode — the client
// follows the redirect — or at the first component this shard cannot
// serve. A missing component under an owned directory is not an error:
// the response returns the chain-so-far with a terminal-negative flag
// set, so the client both learns the answer ("this path does not exist")
// and may cache it — errors carry no body, and a negative nobody vouches
// for could never be cached. The response also carries a lease grant for
// every owned directory the walk read under, seeding the client's cache
// for the whole prefix in one round trip.
func (s *Service) handleResolvePath(_ telemetry.SpanContext, body []byte, resp *rpc.Wire) error {
	r := rpc.NewReader(body)
	parent := namespace.Ino(r.U64())
	n := int(r.U32())
	if err := r.Err(); err != nil || n == 0 || n > 4096 {
		return CodedError(CodeInvalid, "bad resolve-path request")
	}
	if !s.ownsEntry(parent) {
		return CodedError(CodeNotOwner, "dir %d not on MDS %d", parent, s.ID)
	}
	cur := parent
	var dirBuf [8]namespace.Ino
	grantDirs := dirBuf[:0]
	negative := false
	count := resp.BeginBlob() // patched into the chain length below
	chain := uint32(0)
	for i := 0; i < n; i++ {
		name := r.Blob()
		if err := r.Err(); err != nil {
			return CodedError(CodeInvalid, "%v", err)
		}
		in, found, err := s.store.lookupRaw(cur, name, resp)
		if err != nil {
			return err
		}
		if !found {
			// An authoritative miss (migrated subtrees leave fakes, so an
			// owned directory is the truth about its children): the whole
			// remaining path is absent.
			negative = true
			break
		}
		chain++
		grantDirs = append(grantDirs, cur)
		s.recordLookup(cur)
		if i == n-1 && in.Type != namespace.TypeFake {
			// The terminal component is the operation's target: a stat of
			// /a/b/c is a read against directory /a/b, exactly how the
			// simulator's Data Collector tallies it. Intermediate hops stay
			// pure traversals (the lookups counter above).
			s.recordRead(cur, 0)
		}
		if in.Type == namespace.TypeFake || !in.IsDir() {
			break
		}
		cur = in.Ino
	}
	resp.PatchU32(count, chain)
	if negative {
		if !s.ownsStored(cur) {
			// A migration committed mid-walk: the miss is the subtree
			// leaving, not an answer.
			return CodedError(CodeNotOwner, "dir %d not on MDS %d", cur, s.ID)
		}
		grantDirs = append(grantDirs, cur) // the directory proven not to hold the name
		resp.U8(1)
	} else {
		resp.U8(0)
	}
	s.appendTrailer(resp, grantDirs...)
	return nil
}

func (s *Service) handleGetattr(_ telemetry.SpanContext, body []byte, resp *rpc.Wire) error {
	r := rpc.NewReader(body)
	ino := namespace.Ino(r.U64())
	if err := r.Err(); err != nil {
		return CodedError(CodeInvalid, "%v", err)
	}
	in, found, err := s.store.getattr(ino)
	if err != nil {
		return err
	}
	if !found || in.Type == namespace.TypeFake { // a fake: the caller's map is stale
		return CodedError(CodeNotOwner, "ino %d not on MDS %d", ino, s.ID)
	}
	s.recordRead(in.Parent, 0)
	appendInodeBlob(resp, &in)
	return nil
}

func (s *Service) handleReaddir(_ telemetry.SpanContext, body []byte, resp *rpc.Wire) error {
	start := time.Now()
	r := rpc.NewReader(body)
	ino := namespace.Ino(r.U64())
	if err := r.Err(); err != nil {
		return CodedError(CodeInvalid, "%v", err)
	}
	if !s.ownsEntry(ino) {
		return CodedError(CodeNotOwner, "dir %d not on MDS %d", ino, s.ID)
	}
	n, err := s.store.readDirRaw(ino, resp)
	if err != nil {
		return err
	}
	if n == 0 && !s.ownsStored(ino) {
		// A migration committed between the ownership check and the
		// scan: the directory is empty because it left.
		return CodedError(CodeNotOwner, "dir %d not on MDS %d", ino, s.ID)
	}
	s.recordRead(ino, time.Since(start).Nanoseconds())
	s.appendTrailer(resp, ino)
	return nil
}

// handleDump emits the epoch's Data Collector rows and resets the epoch
// counters (the collector's Reset happens at dump time, like the
// simulator's).
func (s *Service) handleDump(body []byte) ([]byte, error) {
	// Swap each shard's map out and zero the scalar counters. Requests
	// racing the dump land their increments in either the old epoch or
	// the new one — never lost, at worst attributed one epoch late.
	var acc [dirAccShards]map[namespace.Ino]*dirCounters
	for i := range s.dirAcc {
		sh := &s.dirAcc[i]
		sh.mu.Lock()
		acc[i] = sh.m
		sh.m = make(map[namespace.Ino]*dirCounters)
		sh.mu.Unlock()
	}
	st := StatsSnapshot{
		Ops:       s.ops.Swap(0),
		RPCs:      s.rpcs.Swap(0),
		ServiceNS: s.serviceNS.Swap(0),
		Inodes:    int64(s.store.Count()),
	}
	s.refreshStoreGauges()

	// Every directory on the shard appears in the dump (idle ones with
	// zero counters) so the coordinator can reconstruct parent chains
	// and subtree aggregates. The rows come from the directory index.
	rows := s.store.dirRows()
	for i := range rows {
		r := &rows[i]
		if c := acc[uint64(r.Ino)%dirAccShards][r.Ino]; c != nil {
			r.Reads = c.reads.Load()
			r.Writes = c.writes.Load()
			r.Lookups = c.lookups.Load()
			r.ServiceNS = c.serviceNS.Load()
		}
	}
	return EncodeDump(st, rows), nil
}

// handleIngest serves both halves of a migration's data movement: the
// record list of MethodIngest (a prepare's copy, puts) and of MethodEvict
// (its rollback, deletes) goes through the store's one record apply. A
// migration moves namespace entries only, so a record holding a metadata
// key is refused whole before anything applies — a shipped copy can never
// overwrite the destination's ino watermark or partition map. ApplyRecord
// checks every other op.
func (s *Service) handleIngest(_ rpc.CallInfo, body []byte, _ *rpc.Wire) error {
	var b kvstore.Batch
	if _, err := DecodeRecords(rpc.NewReader(body), &b); err != nil {
		return CodedError(CodeInvalid, "%v", err)
	}
	meta := false
	ops, n := b.Ops()
	kvstore.ForEachOp(ops, n, func(key, _ []byte, _ bool) { meta = meta || isMetaKey(key) })
	if meta {
		return CodedError(CodeInvalid, "migration record holds a metadata key")
	}
	err := s.store.ApplyRecord(&b)
	if errors.Is(err, ErrBadRecord) {
		return CodedError(CodeInvalid, "%v", err)
	}
	return err
}

// migrateChunk bounds a migration record: a prepare ships its subtree,
// and a rollback evicts it, in records of at most this many ops.
const migrateChunk = 512

// shipSubtree sends a collected subtree to a peer as records of at most
// migrateChunk ops: puts of every inode for MethodIngest, deletes of
// every key for MethodEvict.
func shipSubtree(peer *rpc.Client, method rpc.Method, inos []*namespace.Inode) error {
	for i := 0; i < len(inos); i += migrateChunk {
		var b kvstore.Batch
		addSubtree(&b, inos[i:min(i+migrateChunk, len(inos))], method == MethodIngest)
		var w rpc.Wire
		ops, n := b.Ops()
		AppendRecordList(&w, 1)
		AppendRecord(&w, ops, n)
		if _, err := peer.Call(method, w.Bytes()); err != nil {
			return err
		}
	}
	return nil
}

// addSubtree adds to b a put of every inode of a collected subtree, or —
// put false — a delete of every one's key.
func addSubtree(b *kvstore.Batch, inos []*namespace.Inode, put bool) {
	var kb [keyScratch]byte
	var vb [recordScratch]byte
	for _, in := range inos {
		k := namespace.AppendKey(kb[:0], in.Parent, in.Name)
		if put {
			b.Put(k, namespace.AppendInode(vb[:0], in))
		} else {
			b.Delete(k)
		}
	}
}

// handleMigratePrepare is phase one of a two-phase migration: freeze the
// subtree, collect it, ship a copy to the destination, and hold the
// freeze until MigrateCommit or MigrateAbort (or the PrepareTimeout
// auto-abort, which also rolls the destination copy back). The freeze
// covers the subtree's directories and the root's own entry only: the
// rest of the shard, and every read, keeps being served.
func (s *Service) handleMigratePrepare(body []byte) ([]byte, error) {
	start := time.Now()
	r := rpc.NewReader(body)
	root := namespace.Ino(r.U64())
	destID := int(r.U32())
	if err := r.Err(); err != nil {
		return nil, CodedError(CodeInvalid, "%v", err)
	}
	if s.peers == nil {
		return nil, errors.New("mds: no peer resolver configured")
	}
	if destID == s.ID {
		return nil, CodedError(CodeInvalid, "migration dest %d is the source", destID)
	}
	p, err := s.freezeSubtree(root, destID)
	if err != nil {
		return nil, err
	}
	inos, err := s.store.CollectSubtree(root)
	if err != nil {
		s.thaw(p)
		return nil, CodedError(CodeNoEnt, "%v", err)
	}
	peer, err := s.peers(destID)
	if err == nil {
		err = shipSubtree(peer, MethodIngest, inos)
	}
	if err != nil {
		// Roll back whatever partial copy landed on the destination.
		if peer != nil {
			s.evictFrom(peer, inos)
		}
		s.thaw(p)
		return nil, err
	}
	p.inos = inos
	s.mu.Lock()
	s.prep = p
	p.timer = time.AfterFunc(s.PrepareTimeout, func() { s.abortPrepared(root) })
	s.mu.Unlock()
	s.reg.Histogram("mds.migration.prepare_ns").Record(time.Since(start).Nanoseconds())
	s.log.Info("migration prepared", "root", uint64(root), "dest", destID, "inodes", len(inos))
	var w rpc.Wire
	w.U32(uint32(len(inos)))
	return w.Bytes(), nil
}

// freezeSubtree installs the frozen set of a migration of root: with
// opMu held exclusively, so every mutation either finished applying
// before it or is admitted against it.
func (s *Service) freezeSubtree(root namespace.Ino, dest int) (*preparedMigration, error) {
	s.opMu.Lock()
	defer s.opMu.Unlock()
	if busy := s.freeze.Load(); busy != nil {
		return nil, CodedError(CodeBusy, "migration of %d already prepared on MDS %d", busy.root, s.ID)
	}
	dirs, ref, ok := s.store.subtreeDirs(root)
	if !ok {
		return nil, CodedError(CodeNoEnt, "subtree root %d not on MDS %d", root, s.ID)
	}
	p := &preparedMigration{
		root: root, dest: dest, dirs: dirs,
		rootParent: ref.parent, rootName: ref.name,
		frozenAt: time.Now(), thawed: make(chan struct{}),
	}
	s.freeze.Store(p)
	return p, nil
}

// thaw lifts p's freeze, waking the mutations parked on it, and records
// how long it held. Lifting a freeze twice is a no-op.
func (s *Service) thaw(p *preparedMigration) {
	if s.freeze.CompareAndSwap(p, nil) {
		s.reg.Histogram("mds.migration.freeze_ns").Record(time.Since(p.frozenAt).Nanoseconds())
		close(p.thawed)
	}
}

// takePrepared claims the prepared migration for root, stopping its
// auto-abort timer. The caller inherits its freeze and must thaw it.
func (s *Service) takePrepared(root namespace.Ino) (*preparedMigration, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.prep == nil || s.prep.root != root {
		return nil, false
	}
	p := s.prep
	s.prep = nil
	p.timer.Stop()
	return p, true
}

// handleMigrateCommit is phase two: drop the local subtree and swap in
// the fake-inode redirect. Only valid after a matching MigratePrepare.
func (s *Service) handleMigrateCommit(body []byte) ([]byte, error) {
	start := time.Now()
	r := rpc.NewReader(body)
	root := namespace.Ino(r.U64())
	if err := r.Err(); err != nil {
		return nil, CodedError(CodeInvalid, "%v", err)
	}
	p, ok := s.takePrepared(root)
	if !ok {
		return nil, CodedError(CodeInvalid, "no prepared migration for subtree %d on MDS %d", root, s.ID)
	}
	defer s.thaw(p)
	// One record deletes every key of the subtree and leaves a fake-inode
	// behind (§3.1): the boundary dirent stays resolvable on the source
	// and records the destination MDS in Size, so clients with stale maps
	// follow the redirect. A crash keeps the whole subtree or only the
	// redirect, never half a subtree without one.
	fake := *p.inos[0]
	fake.Type = namespace.TypeFake
	fake.Size = int64(p.dest)
	var b kvstore.Batch
	addSubtree(&b, p.inos, false)
	addSubtree(&b, []*namespace.Inode{&fake}, true)
	if err := s.store.ApplyRecord(&b); err != nil {
		return nil, err
	}
	// Commit point: the subtree now lives on the destination, so its
	// directories' leases die here with it.
	s.leases.RevokeSubtree(dirInos(p.inos))
	s.reg.Histogram("mds.migration.commit_ns").Record(time.Since(start).Nanoseconds())
	s.log.Info("migration committed", "root", uint64(root), "dest", p.dest, "inodes", len(p.inos))
	var w rpc.Wire
	w.U32(uint32(len(p.inos)))
	return w.Bytes(), nil
}

// handleMigrateAbort rolls back a prepared migration: the destination
// copy is evicted and the freeze lifts. Aborting a migration that is not
// prepared is a no-op (the coordinator aborts best-effort).
func (s *Service) handleMigrateAbort(body []byte) ([]byte, error) {
	r := rpc.NewReader(body)
	root := namespace.Ino(r.U64())
	if err := r.Err(); err != nil {
		return nil, CodedError(CodeInvalid, "%v", err)
	}
	s.abortPrepared(root)
	return nil, nil
}

// abortPrepared releases a prepared migration, evicting the shipped copy
// from the destination best-effort. Shared by the explicit abort RPC and
// the PrepareTimeout auto-abort.
func (s *Service) abortPrepared(root namespace.Ino) {
	p, ok := s.takePrepared(root)
	if !ok {
		return
	}
	if peer, err := s.peers(p.dest); err == nil {
		s.evictFrom(peer, p.inos)
	}
	s.mu.Lock()
	s.MigrationAborts++
	s.mu.Unlock()
	s.reg.Counter("mds.migration.aborts").Inc()
	s.log.Warn("migration aborted", "root", uint64(root), "dest", p.dest, "inodes", len(p.inos))
	s.thaw(p)
}

// evictFrom asks a migration destination to drop shipped inodes
// (best-effort rollback; the destination never served them, because the
// partition map was never repointed).
func (s *Service) evictFrom(peer *rpc.Client, inos []*namespace.Inode) {
	_ = shipSubtree(peer, MethodEvict, inos)
}

func (s *Service) handleGetMap(body []byte) ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	pins := make([]PinEntry, 0, len(s.pins))
	for ino, mds := range s.pins {
		pins = append(pins, PinEntry{Ino: ino, MDS: mds})
	}
	return EncodeMap(s.mapVersion.Load(), pins), nil
}

func (s *Service) handleSetMap(body []byte) ([]byte, error) {
	version, pins, err := DecodeMap(body)
	if err != nil {
		return nil, CodedError(CodeInvalid, "%v", err)
	}
	s.mu.Lock()
	if cur := s.mapVersion.Load(); version <= cur && cur != 0 {
		s.mu.Unlock()
		return nil, nil // stale push
	}
	s.pins = make(map[namespace.Ino]int, len(pins))
	for _, p := range pins {
		s.pins[p.Ino] = p.MDS
	}
	s.mapVersion.Store(version)
	s.mu.Unlock()
	// Persist so a restarted MDS still serves the latest map.
	if err := s.store.SavePinMap(body); err != nil {
		return nil, err
	}
	return nil, nil
}
