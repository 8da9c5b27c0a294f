package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"origami/internal/commit"
	"origami/internal/kvstore"
	"origami/internal/lease"
	"origami/internal/mds"
	"origami/internal/ml"
	"origami/internal/namespace"
	"origami/internal/rpc"
	"origami/internal/server"
	"origami/internal/telemetry"
)

// The direct-call probes price each layer alone, from outside, with the
// same options the workload's cluster uses. Every probe call sits inside
// a bench span; a probe reports the median of its per-call times (means
// where a single call is too short to time).

type prober struct {
	rec    *spanRecorder
	parent uint64
	dir    string
	vals   map[string]float64
	err    error
}

// each times n calls of fn one by one inside a span named name and
// returns the median in µs.
func (p *prober) each(name string, n int, fn func(i int)) float64 {
	times := make([]float64, n)
	p.rec.timed(name, p.parent, func() {
		for i := 0; i < n; i++ {
			t0 := time.Now()
			fn(i)
			times[i] = float64(time.Since(t0)) / 1e3
		}
	})
	return median(times)
}

// bulk times n calls of fn as one block and returns the mean in ns plus
// mallocs and allocated bytes per call — for calls too short to time
// singly.
func (p *prober) bulk(name string, n int, fn func(i int)) (ns, allocs, bytes float64) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	d := p.rec.timed(name, p.parent, func() {
		for i := 0; i < n; i++ {
			fn(i)
		}
	})
	runtime.ReadMemStats(&m1)
	return float64(d) / float64(n), float64(m1.Mallocs-m0.Mallocs) / float64(n),
		float64(m1.TotalAlloc-m0.TotalAlloc) / float64(n)
}

// check keeps the first error of a probe; the traced run fails on it,
// because a probe that could not run measured nothing.
func (p *prober) check(err error) {
	if err != nil && p.err == nil {
		p.err = err
	}
}

// runProbes runs every direct-call probe and fills vals.
func runProbes(rec *spanRecorder, dir string, cfg server.ClusterConfig, vals map[string]float64) error {
	p := &prober{rec: rec, dir: dir, vals: vals}
	p.parent = rec.begin("bench.probes", 0)
	defer rec.end(p.parent)
	for _, probe := range []func(){
		p.rpcProbe, p.kvWriteProbe, p.kvReadProbe, func() { p.mdsProbe(cfg) },
		p.commitProbe, p.leaseProbe, p.mlProbe,
	} {
		if probe(); p.err != nil {
			return fmt.Errorf("probe: %w", p.err)
		}
	}
	return nil
}

// hostProbes measure the host itself before a traced run: a session
// whose host.* numbers moved did not regress in code.
func hostProbes(rec *spanRecorder, dir string, vals map[string]float64) error {
	p := &prober{rec: rec, dir: dir, vals: vals}
	f, err := os.Create(filepath.Join(dir, "fsync-probe"))
	if err != nil {
		return err
	}
	defer os.Remove(f.Name())
	defer f.Close()
	block := make([]byte, 4096)
	var ferr error
	vals["host.fsync_us"] = p.each("bench.host.fsync", 200, func(int) {
		if _, err := f.Write(block); err != nil && ferr == nil {
			ferr = err
		}
		if err := f.Sync(); err != nil && ferr == nil {
			ferr = err
		}
	})
	if ferr != nil {
		return fmt.Errorf("fsync probe: %w", ferr)
	}
	const spins = 50_000_000
	x := uint64(88172645463325252)
	d := rec.timed("bench.host.spin", 0, func() {
		for i := 0; i < spins; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
		}
	})
	spinSink = x
	vals["host.spin_mops"] = spins / (float64(d) / 1e3) // xorshift steps per µs
	return nil
}

var spinSink uint64

// rpcProbe: an rpc.Server of its own with no-op handlers, so the numbers
// are codec + framing + dispatch + loopback TCP and nothing else.
func (p *prober) rpcProbe() {
	const mSmall, mLarge rpc.Method = 1, 2
	small, large := make([]byte, 64), make([]byte, 4096)
	srv := rpc.NewServer()
	srv.Handle(mSmall, func([]byte) ([]byte, error) { return small, nil })
	srv.Handle(mLarge, func([]byte) ([]byte, error) { return large, nil })
	addr, err := srv.Listen("127.0.0.1:0")
	if p.check(err); err != nil {
		return
	}
	defer srv.Close()
	cli, err := rpc.Dial(addr)
	if p.check(err); err != nil {
		return
	}
	defer cli.Close()
	req := make([]byte, 32)
	call := func(m rpc.Method) func(int) {
		return func(int) {
			_, err := cli.Call(m, req)
			p.check(err)
		}
	}
	p.each("bench.rpc.warm", 500, call(mSmall))
	p.vals["rpc.echo_rtt_us"] = p.each("bench.rpc.echo", 4000, call(mSmall))
	p.vals["rpc.echo_rtt_us_4k"] = p.each("bench.rpc.echo_4k", 2000, call(mLarge))
	_, allocs, bytes := p.bulk("bench.rpc.echo_allocs", 2000, call(mSmall))
	p.vals["rpc.echo_allocs_per_call"] = allocs
	p.vals["rpc.echo_bytes_per_call"] = bytes

	subs := make([][]byte, 64)
	for i := range subs {
		subs[i] = mds.EncodeBatchCreate(uint64(i+1), 2, fmt.Sprintf("t%08d", i), namespace.TypeFile)
	}
	ns, _, _ := p.bulk("bench.rpc.batch_codec", 2000, func(int) {
		out, err := rpc.DecodeBatch(rpc.EncodeBatch(subs))
		if err != nil || len(out) != len(subs) {
			p.check(fmt.Errorf("batch codec round trip: %d subs, err %v", len(out), err))
		}
	})
	p.vals["rpc.batch_codec_ns_per_op"] = ns / float64(len(subs))
}

// inodeValue is a value the size of an encoded file inode.
func inodeValue(i int) []byte {
	return namespace.EncodeInode(&namespace.Inode{
		Ino: namespace.Ino(i + 2), Parent: 2, Name: fmt.Sprintf("file%08d", i),
		Type: namespace.TypeFile, Mode: 0o644, Nlink: 1,
	})
}

func kvKey(i int) []byte { return []byte(fmt.Sprintf("\x00\x00\x00\x00\x00\x00\x00\x02file%08d", i)) }

// openKV opens a scratch store; on failure it records the error and
// returns nil, and the caller skips its probe.
func (p *prober) openKV(name string, opts kvstore.Options) *kvstore.DB {
	db, err := kvstore.Open(filepath.Join(p.dir, name), opts)
	if p.check(err); err != nil {
		return nil
	}
	return db
}

func (p *prober) kvWriteProbe() {
	syncDB := p.openKV("kv-sync", kvstore.Options{SyncWAL: true})
	if syncDB == nil {
		return
	}
	defer syncDB.Close()
	p.vals["kvstore.put_us.sync"] = p.each("bench.kvstore.put_sync", 300, func(i int) {
		p.check(syncDB.Put(kvKey(i), inodeValue(i)))
	})
	db := p.openKV("kv-nosync", kvstore.Options{})
	if db == nil {
		return
	}
	defer db.Close()
	const n = 20000
	keys, vals := make([][]byte, n), make([][]byte, n)
	for i := range keys {
		keys[i], vals[i] = kvKey(i), inodeValue(i)
	}
	ns, allocs, _ := p.bulk("bench.kvstore.put_nosync", n, func(i int) { p.check(db.Put(keys[i], vals[i])) })
	p.vals["kvstore.put_us.nosync"] = ns / 1e3
	p.vals["kvstore.allocs_per_put"] = allocs
	p.vals["kvstore.fsync_us"] = p.vals["kvstore.put_us.sync"] - p.vals["kvstore.put_us.nosync"]
	p.vals["kvstore.batch64_us"] = p.each("bench.kvstore.batch64", 200, func(i int) {
		var b kvstore.Batch
		for j := 0; j < 64; j++ {
			b.Put(kvKey(n+i*64+j), vals[j])
		}
		p.check(db.ApplyBatch(&b))
	})
}

// kvReadProbe reads a memtable-resident store and a flushed one (50k
// keys, the issue's 200k x scaleFactor, under small memtables so the
// keys spread over L0 and L1).
func (p *prober) kvReadProbe() {
	rnd := rand.New(rand.NewSource(7))
	load := func(db *kvstore.DB, n int) {
		for i := 0; i < n; i++ {
			p.check(db.Put(kvKey(i), inodeValue(i)))
		}
	}
	get := func(db *kvstore.DB, n int) func(int) {
		return func(int) {
			_, found, err := db.Get(kvKey(rnd.Intn(n)))
			if err == nil && !found {
				err = fmt.Errorf("kvstore probe: key missing")
			}
			p.check(err)
		}
	}
	const memKeys, sstKeys = 10000, 50000
	mem := p.openKV("kv-mem", kvstore.Options{})
	if mem == nil {
		return
	}
	defer mem.Close()
	load(mem, memKeys)
	ns, _, _ := p.bulk("bench.kvstore.get_mem", 20000, get(mem, memKeys))
	p.vals["kvstore.get_us.mem"] = ns / 1e3

	sst := p.openKV("kv-sst", kvstore.Options{MemtableBytes: 512 << 10})
	if sst == nil {
		return
	}
	defer sst.Close()
	load(sst, sstKeys)
	p.check(sst.Flush())
	ns, allocs, _ := p.bulk("bench.kvstore.get_sst", 20000, get(sst, sstKeys))
	p.vals["kvstore.get_us.sst"] = ns / 1e3
	p.vals["kvstore.allocs_per_get"] = allocs
	p.vals["kvstore.scan_us.100"] = p.each("bench.kvstore.scan100", 500, func(int) {
		lo := rnd.Intn(sstKeys - 100)
		seen := 0
		p.check(sst.Scan(kvKey(lo), kvKey(lo+100), func(_, _ []byte) bool { seen++; return true }))
		if seen != 100 {
			p.check(fmt.Errorf("kvstore probe: scan saw %d keys, want 100", seen))
		}
	})
}

// mdsProbe: a scratch shard with the workload's store options and commit
// policy, called directly (store) and through one-op MethodBatch frames
// (service + rpc), which separates the service from the store below it.
func (p *prober) mdsProbe(cfg server.ClusterConfig) {
	mode, err := commit.ParseMode(cfg.CommitMode)
	if p.check(err); err != nil {
		return
	}
	store, err := mds.OpenStore(filepath.Join(p.dir, "mds-scratch"), 0, cfg.KvOpts)
	if p.check(err); err != nil {
		return
	}
	svc := mds.NewService(0, store, nil)
	pipe := commit.NewPipeline(mode, cfg.CommitWindow, svc.Registry())
	store.SetCommitter(pipe)
	defer func() {
		pipe.Drain()
		svc.Close()
	}()
	addr, err := svc.Serve("127.0.0.1:0")
	if p.check(err); err != nil {
		return
	}
	dir := &namespace.Inode{Ino: store.AllocIno(), Parent: namespace.RootIno, Name: "probe", Type: namespace.TypeDir, Mode: 0o755, Nlink: 2}
	p.check(store.CreateEntry(dir))
	n := 2000
	if cfg.KvOpts.SyncWAL && mode == commit.SyncFsync {
		n = 400 // every call waits for an fsync
	}
	name := func(i int) string { return fmt.Sprintf("t%08d", i) }
	p.vals["mds.store_us.create_entry"] = p.each("bench.mds.create_entry", n, func(i int) {
		p.check(store.CreateEntry(&namespace.Inode{Ino: store.AllocIno(), Parent: dir.Ino, Name: name(i),
			Type: namespace.TypeFile, Mode: 0o644, Nlink: 1}))
	})
	p.vals["mds.store_us.lookup"] = p.each("bench.mds.lookup", 5000, func(i int) {
		_, found, err := store.Lookup(dir.Ino, name(i%n))
		if err == nil && !found {
			err = fmt.Errorf("mds probe: %s missing", name(i%n))
		}
		p.check(err)
	})
	p.vals["mds.store_us.readdir"] = p.each("bench.mds.readdir", 300, func(int) {
		ents, err := store.ReadDir(dir.Ino)
		if err == nil && len(ents) != n {
			err = fmt.Errorf("mds probe: readdir saw %d, want %d", len(ents), n)
		}
		p.check(err)
	})
	p.vals["mds.store_us.readdir"] *= 100 / float64(n) // per 100 entries
	p.vals["mds.store_us.remove_entry"] = p.each("bench.mds.remove_entry", n, func(i int) {
		_, err := store.RemoveEntry(dir.Ino, name(i))
		p.check(err)
	})
	cli, err := rpc.Dial(addr)
	if p.check(err); err != nil {
		return
	}
	defer cli.Close()
	p.vals["mds.batch1_call_us"] = p.each("bench.mds.batch1", n, func(i int) {
		frame := mds.EncodeBatchRequest(1, [][]byte{
			mds.EncodeBatchCreate(uint64(i+1), dir.Ino, name(n+i), namespace.TypeFile)})
		body, err := cli.Call(mds.MethodBatch, frame)
		p.check(err)
		res, _, err := mds.DecodeBatchResponse(body)
		if err == nil && (len(res) != 1 || res[0].Err != nil) {
			err = fmt.Errorf("mds probe: batch verdicts %+v", res)
		}
		p.check(err)
	})
}

// commitProbe: what the pipeline itself adds to an acknowledgement when
// the durability waits cost nothing.
func (p *prober) commitProbe() {
	ctx := context.Background()
	nop := func() error { return nil }
	sync := commit.NewPipeline(commit.SyncFsync, 0, nil)
	ns, _, _ := p.bulk("bench.commit.sync_fsync", 200000, func(int) { p.check(sync.Commit(ctx, nop, nil)) })
	p.vals["commit.overhead_ns.sync_fsync"] = ns
	async := commit.NewPipeline(commit.Async, 0, nil)
	ns, _, _ = p.bulk("bench.commit.async", 20000, func(int) { p.check(async.Commit(ctx, nop, nil)) })
	async.Drain()
	p.vals["commit.overhead_ns.async"] = ns
}

func (p *prober) leaseProbe() {
	const dirs, names = 256, 64
	reg := telemetry.NewRegistry()
	table := lease.NewTable(reg, 0)
	ns, _, _ := p.bulk("bench.lease.grant", 200000, func(i int) { table.Grant(namespace.Ino(2 + i%dirs)) })
	p.vals["lease.table_grant_ns"] = ns
	ns, _, _ = p.bulk("bench.lease.bump", 200000, func(i int) { table.Bump(namespace.Ino(2 + i%dirs)) })
	p.vals["lease.table_bump_ns"] = ns

	cache := lease.NewClientCache(reg)
	grants := make([]lease.Grant, dirs)
	for d := range grants {
		grants[d] = table.Grant(namespace.Ino(2 + d))
		cache.Observe(grants[d])
	}
	fileNames := make([]string, names)
	for i := range fileNames {
		fileNames[i] = fmt.Sprintf("f%03d", i)
	}
	in := &namespace.Inode{Ino: 99, Type: namespace.TypeFile}
	ns, _, _ = p.bulk("bench.lease.put", dirs*names, func(i int) { cache.Put(grants[i%dirs], fileNames[i/dirs], in) })
	p.vals["lease.cache_put_ns"] = ns
	ns, _, _ = p.bulk("bench.lease.lookup_hit", 200000, func(i int) {
		if _, _, ok := cache.Lookup(grants[i%dirs].Dir, fileNames[i%names]); !ok {
			p.check(fmt.Errorf("lease probe: expected a hit"))
		}
	})
	p.vals["lease.cache_lookup_ns.hit"] = ns
	ns, _, _ = p.bulk("bench.lease.lookup_miss", 200000, func(i int) {
		if _, _, ok := cache.Lookup(grants[i%dirs].Dir, "absent"); ok {
			p.check(fmt.Errorf("lease probe: expected a miss"))
		}
	})
	p.vals["lease.cache_lookup_ns.miss"] = ns
}

// mlProbe trains the balancer's model family on a fixed synthetic set of
// the live feature width and times single predictions.
func (p *prober) mlProbe() {
	const rows, feats = 2000, 7
	rnd := rand.New(rand.NewSource(42))
	var ds ml.Dataset
	for i := 0; i < rows; i++ {
		x := make([]float64, feats)
		y := 0.0
		for j := range x {
			x[j] = rnd.Float64()
			y += float64(j+1) * x[j] * x[(j+1)%feats]
		}
		ds.Append(x, y)
	}
	var model *ml.GBDT
	d := p.rec.timed("bench.ml.train", p.parent, func() {
		var err error
		// The configuration balancer.Origami trains with every epoch.
		model, err = ml.TrainGBDT(ds, ml.GBDTConfig{Rounds: 80, NumLeaves: 16, EarlyStopRounds: 10})
		p.check(err)
	})
	p.vals["ml.train_ms"] = float64(d) / 1e6
	sink := 0.0
	ns, _, _ := p.bulk("bench.ml.predict", 100000, func(i int) { sink += model.Predict(ds.X[i%rows]) })
	predictSink = sink
	p.vals["ml.predict_ns"] = ns
}

var predictSink float64
