package scenario

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"origami/internal/client"
	"origami/internal/costmodel"
	"origami/internal/loadgen"
	"origami/internal/namespace"
	"origami/internal/server"
	"origami/internal/telemetry"
	"origami/internal/trace"
	"origami/internal/workload"
)

// driver offers load while a timeline plays. The mix driver tracks
// every acknowledged create — the ground truth the loss assertions
// check after the run — and can point a share of its ops at a hot
// directory when a flash-crowd event fires. The trace drivers replay
// internal/workload traces through the SDK.
type driver struct {
	sc  *Scenario
	sdk *client.Client

	tr       *trace.Trace  // non-nil for trace-* kinds
	rootIno  namespace.Ino // the workload root's inode (pin target)
	stopCh   chan struct{}
	wg       sync.WaitGroup
	started  bool
	hot      atomic.Pointer[flashCrowd]
	attempts atomic.Int64
	oks      atomic.Int64
	errs     atomic.Int64

	mu    sync.Mutex
	acked []string
	lats  []time.Duration
}

type flashCrowd struct {
	path  string
	pct   float64
	until time.Time // zero = until the run ends
}

// hotPreFiles is how many stat targets engine.prepare seeds in each
// flash-crowd directory; the crowd's read side cycles over them.
const hotPreFiles = 8

func hotPrePath(dir string, i int) string {
	return fmt.Sprintf("%s/hot-pre-%02d", dir, i)
}

func newDriver(sc *Scenario, cl *server.Cluster, seed int64) (*driver, error) {
	sdk, err := client.Dial(client.Config{
		Addrs:        cl.Addrs,
		Cache:        "leases",
		CallTimeout:  sc.Fleet.CallTimeout,
		RetryBackoff: 5 * time.Millisecond,
		LinkInjector: cl.ClientInjector,
		BatchWindow:  sc.Workload.Batch,
	})
	if err != nil {
		return nil, err
	}
	d := &driver{sc: sc, sdk: sdk, stopCh: make(chan struct{})}
	if sc.Workload.Kind == "none" {
		return d, nil
	}
	root, err := d.mkdirAll("/" + sc.Workload.Root)
	if err != nil {
		sdk.Close()
		return nil, err
	}
	d.rootIno = root.Ino
	switch {
	case sc.Workload.Kind == "mix", sc.Workload.Kind == "stat":
		for i := 0; i < sc.Workload.PreFiles; i++ {
			if _, err := sdk.Create(d.prePath(i)); err != nil {
				sdk.Close()
				return nil, fmt.Errorf("pre-create %d: %w", i, err)
			}
		}
	case strings.HasPrefix(sc.Workload.Kind, "trace-"):
		tr, err := workload.ByName(strings.TrimPrefix(sc.Workload.Kind, "trace-"), seed, sc.Workload.Ops)
		if err != nil {
			sdk.Close()
			return nil, err
		}
		d.tr = tr
		for _, op := range tr.Setup {
			d.applyTraceOp(op) // best-effort; the access phase measures
		}
	}
	return d, nil
}

func (d *driver) prePath(i int) string {
	return fmt.Sprintf("/%s/pre-%04d", d.sc.Workload.Root, i)
}

// mkdirAll creates a directory path segment by segment, tolerating
// segments that already exist.
func (d *driver) mkdirAll(path string) (*namespace.Inode, error) {
	var in *namespace.Inode
	cur := ""
	for _, seg := range strings.Split(strings.Trim(path, "/"), "/") {
		if seg == "" {
			continue
		}
		cur += "/" + seg
		made, err := d.sdk.Mkdir(cur)
		if err != nil {
			if made, err = d.sdk.Stat(cur); err != nil {
				return nil, fmt.Errorf("mkdir %s: %w", cur, err)
			}
		}
		in = made
	}
	return in, nil
}

// setHot points pct% of subsequent mix ops at the hot directory.
func (d *driver) setHot(path string, pct float64, dur time.Duration) {
	fc := &flashCrowd{path: path, pct: pct}
	if dur > 0 {
		fc.until = time.Now().Add(dur)
	}
	d.hot.Store(fc)
}

func (d *driver) start() {
	if d.sc.Workload.Kind == "none" {
		return
	}
	d.started = true
	for w := 0; w < d.sc.Workload.Workers; w++ {
		d.wg.Add(1)
		go d.worker(w)
	}
}

func (d *driver) worker(w int) {
	defer d.wg.Done()
	rnd := rand.New(rand.NewSource(int64(w)*7919 + d.sc.Seed))
	var lats []time.Duration
	record := func(start time.Time, err error) {
		lats = append(lats, time.Since(start))
		d.attempts.Add(1)
		if err != nil {
			d.errs.Add(1)
		} else {
			d.oks.Add(1)
		}
	}
	for i := 0; ; i++ {
		select {
		case <-d.stopCh:
			d.mu.Lock()
			d.lats = append(d.lats, lats...)
			d.mu.Unlock()
			return
		default:
		}
		if d.tr != nil {
			op := d.tr.Ops[(i*d.sc.Workload.Workers+w)%len(d.tr.Ops)]
			start := time.Now()
			record(start, d.applyTraceOp(op))
			continue
		}
		if d.sc.Workload.Kind == "stat" {
			// Pure stat storm over the pre-created files: after one cold
			// pass the lease cache should answer almost everything, which
			// is what the rpc-per-op assertion measures.
			start := time.Now()
			_, err := d.sdk.Stat(d.prePath(rnd.Intn(d.sc.Workload.PreFiles)))
			record(start, err)
			continue
		}
		// Mix op, possibly redirected at the flash-crowd hot dir.
		if fc := d.hot.Load(); fc != nil &&
			(fc.until.IsZero() || time.Now().Before(fc.until)) &&
			rnd.Float64()*100 < fc.pct {
			start := time.Now()
			if rnd.Intn(100) < d.sc.Workload.WritePct {
				path := fmt.Sprintf("%s/hot-w%d-f%05d", fc.path, w, i)
				err := d.trackCreate(path)
				record(start, err)
			} else if rnd.Intn(4) == 0 {
				_, err := d.sdk.Readdir(fc.path)
				record(start, err)
			} else {
				// Stat files *inside* the hot dir, not the dir itself: the
				// read then counts against the hot subtree (a stat of /hot/f
				// is a read on /hot), and a warm lease on /hot answers it
				// from the client cache.
				_, err := d.sdk.Stat(hotPrePath(fc.path, rnd.Intn(hotPreFiles)))
				record(start, err)
			}
			continue
		}
		start := time.Now()
		switch {
		case rnd.Intn(100) < d.sc.Workload.WritePct:
			path := fmt.Sprintf("/%s/w%d-f%05d", d.sc.Workload.Root, w, i)
			record(start, d.trackCreate(path))
		case rnd.Intn(2) == 0 && d.sc.Workload.PreFiles > 0:
			_, err := d.sdk.Stat(d.prePath(rnd.Intn(d.sc.Workload.PreFiles)))
			record(start, err)
		default:
			_, err := d.sdk.Readdir("/" + d.sc.Workload.Root)
			record(start, err)
		}
	}
}

// trackCreate creates a file and records it as acknowledged on success.
func (d *driver) trackCreate(path string) error {
	_, err := d.sdk.Create(path)
	if err == nil {
		d.mu.Lock()
		d.acked = append(d.acked, path)
		d.mu.Unlock()
	}
	return err
}

func (d *driver) applyTraceOp(op trace.Op) error {
	p := "/" + d.sc.Workload.Root + "/" + op.Path
	var err error
	switch op.Type {
	case costmodel.OpMkdir:
		_, err = d.sdk.Mkdir(p)
	case costmodel.OpCreate:
		_, err = d.sdk.Create(p)
	case costmodel.OpStat, costmodel.OpOpen:
		_, err = d.sdk.Stat(p)
	case costmodel.OpLsdir:
		_, err = d.sdk.Readdir(p)
	case costmodel.OpSetattr:
		_, err = d.sdk.Setattr(p, 1<<12, 0o644)
	case costmodel.OpRename:
		err = d.sdk.Rename(p, "/"+d.sc.Workload.Root+"/"+op.Dst)
	case costmodel.OpUnlink, costmodel.OpRmdir:
		err = d.sdk.Remove(p)
	default:
		_, err = d.sdk.Stat(p)
	}
	return err
}

func (d *driver) stop() {
	if d.started {
		close(d.stopCh)
		d.wg.Wait()
		d.started = false
	}
}

func (d *driver) stats() WorkloadStats {
	d.mu.Lock()
	lats := append([]time.Duration{}, d.lats...)
	acked := len(d.acked)
	d.mu.Unlock()
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	return WorkloadStats{
		Attempted: d.attempts.Load(),
		Ops:       d.oks.Load(),
		Errors:    d.errs.Load(),
		Acked:     acked,
		P50:       loadgen.Percentile(lats, 50),
		P95:       loadgen.Percentile(lats, 95),
		P99:       loadgen.Percentile(lats, 99),
	}
}

// ackedPaths snapshots the acknowledged creates for the loss check.
func (d *driver) ackedPaths() []string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return append([]string{}, d.acked...)
}

func (d *driver) registry() *telemetry.Registry { return d.sdk.Registry() }

func (d *driver) close() {
	d.stop()
	d.sdk.Close()
}
