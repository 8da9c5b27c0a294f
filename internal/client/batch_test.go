package client_test

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"origami/internal/client"
	"origami/internal/server"
	"origami/internal/telemetry"
)

func startBatched(t *testing.T, window int) (*server.Cluster, *client.Client) {
	t.Helper()
	cl, err := server.StartCluster(1, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	sdk, err := client.Dial(client.Config{
		Addrs:       cl.Addrs,
		Cache:       "leases",
		BatchWindow: window,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sdk.Close() })
	return cl, sdk
}

// TestBatcherSequentialOpsDoNotLinger pins the self-clocking design: a
// lone mutation leads its own frame immediately instead of waiting out
// a linger timer, so single-threaded callers pay zero batching latency.
// The observable contract: sequential ops each ride a frame of their
// own (ops/frame = 1) and every result is correct.
func TestBatcherSequentialOpsDoNotLinger(t *testing.T) {
	_, sdk := startBatched(t, 32)
	if _, err := sdk.Mkdir("/seq"); err != nil {
		t.Fatal(err)
	}
	const n = 20
	for i := 0; i < n; i++ {
		if _, err := sdk.Create(fmt.Sprintf("/seq/f%02d", i)); err != nil {
			t.Fatal(err)
		}
	}
	st := sdk.Stats()
	if st.BatchFrames == 0 {
		t.Fatal("no batched frames: mutations bypassed the batcher")
	}
	if st.BatchedOps != st.BatchFrames {
		t.Errorf("%d ops over %d frames; sequential ops must not coalesce (nothing to wait for)",
			st.BatchedOps, st.BatchFrames)
	}
}

// TestBatcherConcurrentOpsCoalesce pins the other half: mutations issued
// while a frame is in flight queue up and ride the next frame together,
// so concurrent callers amortise the per-RPC cost.
func TestBatcherConcurrentOpsCoalesce(t *testing.T) {
	_, sdk := startBatched(t, 32)
	if _, err := sdk.Mkdir("/con"); err != nil {
		t.Fatal(err)
	}
	const workers, per = 8, 25
	var wg sync.WaitGroup
	errs := make(chan error, workers*per)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if _, err := sdk.Create(fmt.Sprintf("/con/w%d-f%03d", w, i)); err != nil {
					errs <- err
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	st := sdk.Stats()
	if st.BatchedOps < workers*per {
		t.Fatalf("only %d ops batched, want >= %d", st.BatchedOps, workers*per)
	}
	if st.BatchFrames >= st.BatchedOps {
		t.Errorf("%d frames for %d ops: concurrent mutations did not coalesce",
			st.BatchFrames, st.BatchedOps)
	}
	// Everything acked must be there, exactly once per path.
	for w := 0; w < workers; w++ {
		for i := 0; i < per; i++ {
			if _, err := sdk.Stat(fmt.Sprintf("/con/w%d-f%03d", w, i)); err != nil {
				t.Fatalf("batched create w%d f%d not readable: %v", w, i, err)
			}
		}
	}
}

// TestBatcherMixedOpsAndErrors checks per-op verdicts inside shared
// frames: a duplicate create fails with EEXIST while the ops sharing
// its frame succeed, and removes interleave with creates correctly.
func TestBatcherMixedOpsAndErrors(t *testing.T) {
	_, sdk := startBatched(t, 16)
	if _, err := sdk.Mkdir("/mix"); err != nil {
		t.Fatal(err)
	}
	if _, err := sdk.Create("/mix/dup"); err != nil {
		t.Fatal(err)
	}
	const workers = 6
	var wg sync.WaitGroup
	dupErrs := make(chan error, workers)
	okErrs := make(chan error, workers*2)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			if _, err := sdk.Create("/mix/dup"); err != nil {
				dupErrs <- err
			}
			if _, err := sdk.Create(fmt.Sprintf("/mix/ok-%d", w)); err != nil {
				okErrs <- err
			}
			if err := sdk.Remove(fmt.Sprintf("/mix/ok-%d", w)); err != nil {
				okErrs <- err
			}
		}(w)
	}
	wg.Wait()
	close(dupErrs)
	close(okErrs)
	if got := len(dupErrs); got != workers {
		t.Errorf("%d of %d duplicate creates failed; every one must see EEXIST", got, workers)
	}
	for err := range okErrs {
		t.Errorf("op sharing a frame with a failing op: %v", err)
	}
	for w := 0; w < workers; w++ {
		if _, err := sdk.Stat(fmt.Sprintf("/mix/ok-%d", w)); err == nil {
			t.Errorf("ok-%d still present after remove", w)
		}
	}
}

// TestBatchedOpKeepsItsTrace: a frame travels under its leading op's
// context, so a traced SDK mutation keeps its server-side children —
// rpc.server.batch → mds.op.batch → kvstore.commit — whether it is sent
// inline as a frame of one or led by the coalescer's goroutine.
func TestBatchedOpKeepsItsTrace(t *testing.T) {
	for _, window := range []int{0, 32} {
		_, sdk := startBatched(t, window)
		if _, err := sdk.Mkdir("/tr"); err != nil {
			t.Fatal(err)
		}
		if _, err := sdk.Create("/tr/f"); err != nil {
			t.Fatal(err)
		}
		spans, err := sdk.GatherTrace(sdk.LastTraceID())
		if err != nil {
			t.Fatal(err)
		}
		roots := telemetry.AssembleTrace(spans)
		if len(roots) != 1 || roots[0].Name != "client.op.create" {
			t.Fatalf("window %d: assembled %d roots (first %+v), want one client.op.create", window, len(roots), roots)
		}
		node := roots[0]
		for _, want := range []string{"rpc.server.batch", "mds.op.batch", "kvstore.commit"} {
			var next *telemetry.TraceNode
			for _, c := range node.Children {
				if c.Name == want {
					next = c
				}
			}
			if next == nil {
				var tree strings.Builder
				telemetry.RenderTraceTree(&tree, roots)
				t.Fatalf("window %d: span %s has no %s child:\n%s", window, node.Name, want, tree.String())
			}
			node = next
		}
	}
}
