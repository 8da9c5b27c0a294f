package main

import (
	"fmt"
	"math/rand"

	"origami/internal/client"
	"origami/internal/costmodel"
	"origami/internal/kvstore"
	"origami/internal/mds"
	"origami/internal/namespace"
	"origami/internal/rpc"
	"origami/internal/server"
	"origami/internal/trace"
	tracegen "origami/internal/workload"
)

// scaleFactor is the one recorded factor by which the issue's 30-second
// design is scaled to fit the driver's budget of 92 runs in under an
// hour: stat-cold preloads 500x100 files (for 2000x100), every shard
// runs 1 MiB memtables (for the 4 MiB default), and the measured length
// is the --seconds argument instead of a frozen op count.
const scaleFactor = 0.25

// kvOpts are the store options of every workload's shards. The memtable
// is scaled with the run: a 20 s write run then spans several flushes
// and an L0 compaction, as a 30 s run at four times the size would;
// with the 4 MiB default the first flush comes near the end of a run
// and the kvstore's flush and compaction paths would go unmeasured.
func kvOpts(syncWAL bool) kvstore.Options {
	return kvstore.Options{SyncWAL: syncWAL, MemtableBytes: int(4 << 20 * scaleFactor)}
}

// numWorkers closed-loop callers drive every workload: DFS callers wait
// for their reply, and two saturate the 2-core reference host without
// letting the harness compete with the servers it shares the process
// with. Each worker is its own client.Fork (own lease cache, own map
// view) over one shared connection per MDS.
const numWorkers = 2

type opKind uint8

const (
	kStat opKind = iota
	kReaddir
	kCreate
	kRemove
	kSetattr
	kRename
	kMkdir
)

var kindNames = [...]string{"stat", "readdir", "create", "remove", "setattr", "rename", "mkdir"}

func (k opKind) String() string { return kindNames[k] }

// isWrite splits the latency metrics: read_* covers stat/open/readdir,
// write_* covers create/remove/setattr/rename.
func (k opKind) isWrite() bool { return k >= kCreate }

// op is one generated SDK call. Ops are generated between rounds from
// the seed, so the timed loop holds nothing but the call itself.
type op struct {
	kind opKind
	path string
	dst  string // rename target
	// want is the expected inode number of a stat (0 = any); a readdir
	// with checkN set must return wantLo..wantHi entries.
	want           uint64
	checkN         bool
	wantLo, wantHi int
	// refork makes the worker continue as a fresh virtual client (cold
	// lease cache) from this op on.
	refork bool
}

// opResult is what the timed loop keeps of one call.
type opResult struct {
	err error
	ino uint64
	n   int
}

// exec issues one op through the SDK.
func exec(c *client.Client, o *op) opResult {
	var r opResult
	switch o.kind {
	case kStat:
		var in *namespace.Inode
		if in, r.err = c.Stat(o.path); r.err == nil {
			r.ino = uint64(in.Ino)
		}
	case kReaddir:
		var ents []*namespace.Inode
		ents, r.err = c.Readdir(o.path)
		r.n = len(ents)
	case kCreate:
		var in *namespace.Inode
		if in, r.err = c.Create(o.path); r.err == nil {
			r.ino = uint64(in.Ino)
		}
	case kMkdir:
		_, r.err = c.Mkdir(o.path)
	case kRemove:
		r.err = c.Remove(o.path)
	case kSetattr:
		_, r.err = c.Setattr(o.path, 1<<12, 0o644)
	case kRename:
		r.err = c.Rename(o.path, o.dst)
	}
	return r
}

// right reports whether a completed op returned what the model expects.
func (o *op) right(r opResult) bool {
	if r.err != nil {
		return false
	}
	switch o.kind {
	case kStat:
		return o.want == 0 || r.ino == o.want
	case kReaddir:
		return !o.checkN || (r.n >= o.wantLo && r.n <= o.wantHi)
	}
	return true
}

// workload is one benchmark scenario: a cluster shape, a namespace to
// preload, a seeded op stream per worker, and an exact model of what the
// namespace must hold afterwards.
type workload interface {
	// numMDS and config shape the cluster; batchWindow configures the SDK.
	numMDS() int
	config() server.ClusterConfig
	batchWindow() int
	// balanced workloads run a coordinator with the Origami strategy and
	// a balancing epoch ahead of every measured round.
	balanced() bool
	// minRPCPerOp is the wire-frames-per-op floor below which the lease
	// cache is doing the workload's work (0: no floor).
	minRPCPerOp() float64
	// preload builds the namespace (part of setup) through the root
	// client or, for bulk, through raw frames to the shard addresses.
	preload(c *client.Client, addrs []string) error
	// round generates worker w's next round of ops and advances the
	// model past them (every generated round is run), nil when the
	// seeded input is exhausted.
	round(w int) []op
	// verify compares the namespace seen through c with the model and
	// returns the number of mismatching entries and of entries checked.
	verify(c *client.Client) (bad, checked int, err error)
}

type workloadInfo struct {
	Name string
	Why  string
	New  func(seed int64) workload
}

// workloads is the frozen set; names and reasons are repeated in
// BENCHMARK.json (bench_test.go keeps them equal).
var workloads = []workloadInfo{
	{"create-storm", "durable single-op writes on 1 MDS: rpc, dispatch, stripe lock, WAL and group-commit fsync do the work; cache and kvstore reads almost none", newCreateStorm},
	{"stat-cold", "cold stats over a working set far past the lease cache and memtable: rpc, resolve_path and SSTable gets do the work; WAL and fsync none", newStatCold},
	{"mixed-shared", "reads beside batched async writes on shared dirs: lease invalidation, MethodBatch apply and ack-from-memtable instead of the single-op fsync path", newMixedShared},
	{"trace-rw-balance", "the paper's Trace-RW on 5 MDS with Origami epochs under traffic: multi-shard resolve, redirects, dumps, GBDT, 2PC migration, lease revocation", newTraceRW},
}

func findWorkload(name string) *workloadInfo {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i]
		}
	}
	return nil
}

func workerRand(seed int64, w int, salt int64) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + int64(w)*7919 + salt))
}

// churn is a worker's create/remove stream in one directory family: a
// remove trails every create once live files are resident, so the
// directory stays bounded and the live set is an exact function of the
// two counters.
type churn struct {
	created, removed int
	live             int // resident files before removes start
}

func (ch *churn) next(name func(seq int) string) op {
	if ch.created-ch.removed >= ch.live {
		o := op{kind: kRemove, path: name(ch.removed)}
		ch.removed++
		return o
	}
	o := op{kind: kCreate, path: name(ch.created)}
	ch.created++
	return o
}

// checkDir lists dir through c and counts the entries that differ from
// want (name -> expected inode number, 0 = any): missing names, wrong
// inodes and names that should not be there.
func checkDir(c *client.Client, dir string, want map[string]uint64) (bad int, err error) {
	ents, err := c.Readdir(dir)
	if err != nil {
		return 0, err
	}
	seen := 0
	for _, e := range ents {
		ino, ok := want[e.Name]
		switch {
		case !ok:
			bad++ // unexpected entry
		case ino != 0 && ino != uint64(e.Ino):
			bad++
			seen++
		default:
			seen++
		}
	}
	return bad + len(want) - seen, nil
}

// liveSet adds the names a churn stream must have left behind.
func (ch *churn) liveSet(want map[string]uint64, base func(seq int) string) {
	for seq := ch.removed; seq < ch.created; seq++ {
		want[base(seq)] = 0
	}
}

func tempBase(seq int) string { return fmt.Sprintf("t%08d", seq) }

// ---------------------------------------------------------------- create-storm

// createStorm: each worker creates in its own directory with a remove
// trailing every create once 16 files are live. One op in 32 is a
// readdir of a quiet 16-file directory — never served from cache, so it
// prices a read on a server busy with fsyncs without changing what the
// workload stresses. (Listing the churned directory instead costs 1 ms
// and more on the seed code and swings with the memtable cycle: the scan
// walks every tombstone since the last flush. See README.)
type createStorm struct {
	ch [numWorkers]churn
	n  [numWorkers]int
}

const (
	createStormRound = 600 // ops per worker per round
	probeEvery       = 32
	liveFiles        = 16
)

func newCreateStorm(int64) workload {
	cs := &createStorm{}
	for w := range cs.ch {
		cs.ch[w].live = liveFiles
	}
	return cs
}

func (*createStorm) numMDS() int          { return 1 }
func (*createStorm) batchWindow() int     { return 0 }
func (*createStorm) balanced() bool       { return false }
func (*createStorm) minRPCPerOp() float64 { return 0 }
func (*createStorm) config() server.ClusterConfig {
	// CommitMode alone leaves SyncWAL off and every "durable" ack would
	// come from the page cache; the guard in runner.go checks WALSyncs.
	return server.ClusterConfig{CommitMode: "sync-fsync", KvOpts: kvOpts(true)}
}

func csDir(w int) string   { return fmt.Sprintf("/cs/w%d", w) }
func csQuiet(w int) string { return fmt.Sprintf("/cs/q%d", w) }

func (*createStorm) preload(c *client.Client, _ []string) error {
	if _, err := c.Mkdir("/cs"); err != nil {
		return err
	}
	for w := 0; w < numWorkers; w++ {
		if _, err := c.Mkdir(csDir(w)); err != nil {
			return err
		}
		if _, err := c.Mkdir(csQuiet(w)); err != nil {
			return err
		}
		for f := 0; f < liveFiles; f++ {
			if _, err := c.Create(csQuiet(w) + "/" + tempBase(f)); err != nil {
				return err
			}
		}
	}
	return nil
}

func (cs *createStorm) round(w int) []op {
	ops := make([]op, createStormRound)
	ch := &cs.ch[w]
	name := func(seq int) string { return csDir(w) + "/" + tempBase(seq) }
	for i := range ops {
		cs.n[w]++
		if cs.n[w]%probeEvery == 0 {
			ops[i] = op{kind: kReaddir, path: csQuiet(w), checkN: true, wantLo: liveFiles, wantHi: liveFiles}
			continue
		}
		ops[i] = ch.next(name)
	}
	return ops
}

func (cs *createStorm) verify(c *client.Client) (bad, checked int, err error) {
	for w := 0; w < numWorkers; w++ {
		for _, dir := range []struct {
			path string
			ch   churn
		}{{csDir(w), cs.ch[w]}, {csQuiet(w), churn{created: liveFiles}}} {
			want := map[string]uint64{}
			dir.ch.liveSet(want, tempBase)
			b, err := checkDir(c, dir.path, want)
			if err != nil {
				return 0, 0, err
			}
			bad += b
			checked += len(want)
		}
	}
	return bad, checked, nil
}

// ------------------------------------------------------------------- stat-cold

// statCold: 90% stats over the first 90% of the directories, 10%
// readdirs over the rest (disjoint, so a listing never warms the stat
// set). A worker walks a seeded permutation of its half of the stat
// files and continues as a fresh fork when the walk wraps: every stat is
// a cold client's first touch, whatever the throughput — sampling with
// replacement would turn into a cache-hit storm within seconds, because
// each miss re-extends its directory's lease. One op in 32 is a
// create/remove in a scratch directory, pricing a write beside the read
// storm.
type statCold struct {
	inos []uint64 // preload inode per file, index dir*statColdFiles+file
	perm [numWorkers][]int32
	pos  [numWorkers]int
	rnd  [numWorkers]*rand.Rand
	n    [numWorkers]int
	ch   [numWorkers]churn
}

const (
	statColdDirs     = 500 // 2000 x scaleFactor
	statColdFiles    = 100
	statColdStatDirs = statColdDirs * 9 / 10
	statColdRound    = 2000
)

func newStatCold(seed int64) workload {
	sc := &statCold{inos: make([]uint64, statColdDirs*statColdFiles)}
	for w := 0; w < numWorkers; w++ {
		sc.rnd[w] = workerRand(seed, w, 11)
		sc.ch[w].live = 1
		for d := w; d < statColdStatDirs; d += numWorkers {
			for f := 0; f < statColdFiles; f++ {
				sc.perm[w] = append(sc.perm[w], int32(d*statColdFiles+f))
			}
		}
		perm := sc.perm[w]
		sc.rnd[w].Shuffle(len(perm), func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
	}
	return sc
}

func (*statCold) numMDS() int          { return 1 }
func (*statCold) batchWindow() int     { return 0 }
func (*statCold) balanced() bool       { return false }
func (*statCold) minRPCPerOp() float64 { return 0.7 }
func (*statCold) config() server.ClusterConfig {
	// The 50k-file preload ends up in more than five flushed tables
	// across L0/L1.
	return server.ClusterConfig{CommitMode: "async", KvOpts: kvOpts(false)}
}

func scDir(d int) string     { return fmt.Sprintf("/sc/d%04d", d) }
func scFile(f int) string    { return fmt.Sprintf("f%03d", f) }
func scScratch(w int) string { return fmt.Sprintf("/sc/w%d", w) }

// preload builds the 500x100 namespace with MethodBatch frames of 64
// sent in a fixed order over one connection (the wire protocol's public
// encoders). The order fixes the store's flush and compaction history:
// concurrent loaders leave 6 to 17 L1 tables from one run to the next,
// and without bloom filters that alone moved stat latency by a fifth.
func (sc *statCold) preload(c *client.Client, addrs []string) error {
	root, err := c.Mkdir("/sc")
	if err != nil {
		return err
	}
	for w := 0; w < numWorkers; w++ {
		if _, err := c.Mkdir(scScratch(w)); err != nil {
			return err
		}
	}
	conn, err := rpc.Dial(addrs[0])
	if err != nil {
		return err
	}
	defer conn.Close()
	dirs := make([]batchEntry, statColdDirs)
	for d := range dirs {
		dirs[d] = batchEntry{root.Ino, fmt.Sprintf("d%04d", d), namespace.TypeDir}
	}
	dirInos, err := createBatched(conn, dirs)
	if err != nil {
		return err
	}
	files := make([]batchEntry, 0, len(sc.inos))
	for d := 0; d < statColdDirs; d++ {
		for f := 0; f < statColdFiles; f++ {
			files = append(files, batchEntry{namespace.Ino(dirInos[d]), scFile(f), namespace.TypeFile})
		}
	}
	sc.inos, err = createBatched(conn, files)
	return err
}

type batchEntry struct {
	parent namespace.Ino
	name   string
	typ    namespace.FileType
}

// createBatched creates entries in order, 64 to a MethodBatch frame, and
// returns their inode numbers.
func createBatched(conn *rpc.Client, entries []batchEntry) ([]uint64, error) {
	const frame = 64
	inos := make([]uint64, 0, len(entries))
	for lo := 0; lo < len(entries); lo += frame {
		chunk := entries[lo:min(lo+frame, len(entries))]
		subs := make([][]byte, len(chunk))
		for i, e := range chunk {
			subs[i] = mds.EncodeBatchCreate(uint64(lo+i+1), e.parent, e.name, e.typ)
		}
		// Client id 0: no replay identity, the frames are sent once.
		body, err := conn.Call(mds.MethodBatch, mds.EncodeBatchRequest(0, subs))
		if err != nil {
			return nil, err
		}
		res, _, err := mds.DecodeBatchResponse(body)
		if err != nil {
			return nil, err
		}
		if len(res) != len(chunk) {
			return nil, fmt.Errorf("batch of %d answered with %d verdicts", len(chunk), len(res))
		}
		for i, r := range res {
			if r.Err != nil || r.Inode == nil {
				return nil, fmt.Errorf("batched create of %s: %v", chunk[i].name, r.Err)
			}
			inos = append(inos, uint64(r.Inode.Ino))
		}
	}
	return inos, nil
}

func (sc *statCold) round(w int) []op {
	ops := make([]op, statColdRound)
	ch := &sc.ch[w]
	temp := func(seq int) string { return scScratch(w) + "/" + tempBase(seq) }
	for i := range ops {
		sc.n[w]++
		switch {
		case sc.n[w]%probeEvery == 0:
			ops[i] = ch.next(temp)
		case sc.n[w]%10 == 5:
			d := statColdStatDirs + sc.rnd[w].Intn(statColdDirs-statColdStatDirs)
			ops[i] = op{kind: kReaddir, path: scDir(d), checkN: true, wantLo: statColdFiles, wantHi: statColdFiles}
		default:
			refork := sc.pos[w] == len(sc.perm[w])
			if refork {
				sc.pos[w] = 0
			}
			idx := int(sc.perm[w][sc.pos[w]])
			sc.pos[w]++
			ops[i] = op{kind: kStat, path: scDir(idx/statColdFiles) + "/" + scFile(idx%statColdFiles),
				want: sc.inos[idx], refork: refork}
		}
	}
	return ops
}

func (sc *statCold) verify(c *client.Client) (bad, checked int, err error) {
	for d := 0; d < statColdDirs; d++ {
		want := make(map[string]uint64, statColdFiles)
		for f := 0; f < statColdFiles; f++ {
			want[scFile(f)] = sc.inos[d*statColdFiles+f]
		}
		b, err := checkDir(c, scDir(d), want)
		if err != nil {
			return 0, 0, err
		}
		bad += b
		checked += len(want)
	}
	for w := 0; w < numWorkers; w++ {
		want := map[string]uint64{}
		sc.ch[w].liveSet(want, tempBase)
		b, err := checkDir(c, scScratch(w), want)
		if err != nil {
			return 0, 0, err
		}
		bad += b
		checked += len(want)
	}
	return bad, checked, nil
}

// ---------------------------------------------------------------- mixed-shared

// mixedShared: both workers on the same 64 directories of 32 pre-files:
// 60% stat, 20% readdir, 20% create/remove. The other worker's creates
// bump lease epochs and flush this worker's warm cache; with
// BatchWindow 64 every mutation travels as a MethodBatch frame.
type mixedShared struct {
	inos [mixedDirs * mixedFiles]uint64
	rnd  [numWorkers]*rand.Rand
	ch   [numWorkers]churn
}

const (
	mixedDirs  = 64
	mixedFiles = 32
	mixedRound = 4000
)

func newMixedShared(seed int64) workload {
	ms := &mixedShared{}
	for w := 0; w < numWorkers; w++ {
		ms.rnd[w] = workerRand(seed, w, 23)
		ms.ch[w].live = liveFiles
	}
	return ms
}

func (*mixedShared) numMDS() int          { return 1 }
func (*mixedShared) batchWindow() int     { return 64 }
func (*mixedShared) balanced() bool       { return false }
func (*mixedShared) minRPCPerOp() float64 { return 0 }
func (*mixedShared) config() server.ClusterConfig {
	// SyncWAL keeps the durability work real: async acks from the
	// memtable and the pipeline's background syncer fsyncs behind it.
	return server.ClusterConfig{CommitMode: "async", KvOpts: kvOpts(true)}
}

func msDir(d int) string  { return fmt.Sprintf("/ms/d%02d", d) }
func msFile(f int) string { return fmt.Sprintf("p%02d", f) }

// msTemp names worker w's seq-th temp file. The files go round the
// directories, so with 16 live a directory holds at most one per worker.
func msTemp(w, seq int) string { return fmt.Sprintf("t%d_%08d", w, seq) }

func (ms *mixedShared) preload(c *client.Client, _ []string) error {
	if _, err := c.Mkdir("/ms"); err != nil {
		return err
	}
	for d := 0; d < mixedDirs; d++ {
		if _, err := c.Mkdir(msDir(d)); err != nil {
			return err
		}
		for f := 0; f < mixedFiles; f++ {
			in, err := c.Create(msDir(d) + "/" + msFile(f))
			if err != nil {
				return err
			}
			ms.inos[d*mixedFiles+f] = uint64(in.Ino)
		}
	}
	return nil
}

func (ms *mixedShared) round(w int) []op {
	ops := make([]op, mixedRound)
	ch, rnd := &ms.ch[w], ms.rnd[w]
	temp := func(seq int) string { return msDir(seq%mixedDirs) + "/" + msTemp(w, seq) }
	for i := range ops {
		switch pick := rnd.Intn(100); {
		case pick < 20:
			ops[i] = ch.next(temp)
		case pick < 40:
			ops[i] = op{kind: kReaddir, path: msDir(rnd.Intn(mixedDirs)), checkN: true,
				wantLo: mixedFiles, wantHi: mixedFiles + numWorkers}
		default:
			d, f := rnd.Intn(mixedDirs), rnd.Intn(mixedFiles)
			ops[i] = op{kind: kStat, path: msDir(d) + "/" + msFile(f), want: ms.inos[d*mixedFiles+f]}
		}
	}
	return ops
}

func (ms *mixedShared) verify(c *client.Client) (bad, checked int, err error) {
	for d := 0; d < mixedDirs; d++ {
		want := make(map[string]uint64, mixedFiles+numWorkers)
		for f := 0; f < mixedFiles; f++ {
			want[msFile(f)] = ms.inos[d*mixedFiles+f]
		}
		for w := 0; w < numWorkers; w++ {
			for seq := ms.ch[w].removed; seq < ms.ch[w].created; seq++ {
				if seq%mixedDirs == d {
					want[msTemp(w, seq)] = 0
				}
			}
		}
		b, err := checkDir(c, msDir(d), want)
		if err != nil {
			return 0, 0, err
		}
		bad += b
		checked += len(want)
	}
	return bad, checked, nil
}

// ------------------------------------------------------------ trace-rw-balance

// traceRW replays workload.TraceRW on a 5-MDS cluster with a balancing
// epoch ahead of every round (about every 11k ops). Compile units (each starts at an lsdir and ends with its object file
// renamed into place) are dealt round-robin to the workers and replayed
// in order; a round is traceUnits units per worker.
type traceRW struct {
	setup []trace.Op
	units [][][]trace.Op // per worker
	next  [numWorkers]int
}

const (
	traceUnits  = 200    // compile units per worker per round
	traceGenOps = 900000 // about twice what the seed code replays in 20 s
)

// traceMemo keeps the generated trace of a seed: an end-to-end run sets
// up three times and the input is the same each time.
var traceMemo = map[int64]*traceRW{}

func newTraceRW(seed int64) workload {
	gen := traceMemo[seed]
	if gen == nil {
		cfg := tracegen.DefaultRW()
		cfg.Seed = seed
		cfg.NumOps = traceGenOps
		t := tracegen.TraceRW(cfg)
		gen = &traceRW{setup: t.Setup, units: dealUnits(t.Ops, numWorkers)}
		traceMemo[seed] = gen
	}
	return &traceRW{setup: gen.setup, units: gen.units}
}

// dealUnits cuts a trace into compile units at each lsdir and deals them
// round-robin, keeping every unit's ops in order. A trailing partial
// unit (the generator stops at an op count) is dropped: its object file
// would never appear.
func dealUnits(ops []trace.Op, workers int) [][][]trace.Op {
	out := make([][][]trace.Op, workers)
	var starts []int
	for i, o := range ops {
		if o.Type == costmodel.OpLsdir {
			starts = append(starts, i)
		}
	}
	for u := 0; u+1 < len(starts); u++ {
		w := u % workers
		out[w] = append(out[w], ops[starts[u]:starts[u+1]])
	}
	return out
}

func (*traceRW) numMDS() int          { return 5 }
func (*traceRW) batchWindow() int     { return 0 }
func (*traceRW) balanced() bool       { return true }
func (*traceRW) minRPCPerOp() float64 { return 0 }
func (*traceRW) config() server.ClusterConfig {
	return server.ClusterConfig{CommitMode: "sync-fsync", KvOpts: kvOpts(true)}
}

func traceOp(o trace.Op) op {
	switch o.Type {
	case costmodel.OpMkdir:
		return op{kind: kMkdir, path: o.Path}
	case costmodel.OpCreate:
		return op{kind: kCreate, path: o.Path}
	case costmodel.OpLsdir:
		return op{kind: kReaddir, path: o.Path}
	case costmodel.OpSetattr:
		return op{kind: kSetattr, path: o.Path}
	case costmodel.OpRename:
		return op{kind: kRename, path: o.Path, dst: o.Dst}
	case costmodel.OpUnlink, costmodel.OpRmdir:
		return op{kind: kRemove, path: o.Path}
	default: // stat, open
		return op{kind: kStat, path: o.Path}
	}
}

func (tr *traceRW) preload(c *client.Client, _ []string) error {
	for _, o := range tr.setup {
		so := traceOp(o)
		if r := exec(c, &so); r.err != nil {
			return fmt.Errorf("%s %s: %w", so.kind, so.path, r.err)
		}
	}
	return nil
}

func (tr *traceRW) round(w int) []op {
	if tr.next[w]+traceUnits > len(tr.units[w]) {
		return nil
	}
	var ops []op
	for _, unit := range tr.units[w][tr.next[w] : tr.next[w]+traceUnits] {
		for _, o := range unit {
			ops = append(ops, traceOp(o))
		}
	}
	tr.next[w] += traceUnits
	return ops
}

// verify checks every finished unit: its object file exists in its
// module's build directory and nothing else does (no .tmp left behind).
func (tr *traceRW) verify(c *client.Client) (bad, checked int, err error) {
	want := map[string]map[string]uint64{}
	for w := 0; w < numWorkers; w++ {
		for _, unit := range tr.units[w][:tr.next[w]] {
			for _, o := range unit {
				if o.Type == costmodel.OpRename {
					dir, name := namespace.ParentPath(o.Dst)
					if want[dir] == nil {
						want[dir] = map[string]uint64{}
					}
					want[dir][name] = 0
				}
			}
		}
	}
	for dir, names := range want {
		b, err := checkDir(c, dir, names)
		if err != nil {
			return 0, 0, err
		}
		bad += b
		checked += len(names)
	}
	return bad, checked, nil
}
