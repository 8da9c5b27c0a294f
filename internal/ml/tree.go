package ml

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Histogram-based regression trees. Feature values are quantised once per
// training run into at most Bins buckets per feature (quantile edges);
// split search then scans per-bin gradient sums instead of sorted raw
// values — LightGBM's core trick.

// binner holds per-feature bin edges and maps raw values to bin indices.
type binner struct {
	edges [][]float64 // per feature, ascending upper edges (len <= bins-1)
}

func newBinner(X [][]float64, bins int) *binner {
	if bins < 2 {
		bins = 2
	}
	nf := len(X[0])
	b := &binner{edges: make([][]float64, nf)}
	vals := make([]float64, len(X))
	for f := 0; f < nf; f++ {
		for i := range X {
			vals[i] = X[i][f]
		}
		sort.Float64s(vals)
		edges := make([]float64, 0, bins-1)
		for q := 1; q < bins; q++ {
			v := vals[q*len(vals)/bins]
			if len(edges) == 0 || v > edges[len(edges)-1] {
				edges = append(edges, v)
			}
		}
		b.edges[f] = edges
	}
	return b
}

// binOf maps a raw value to its bin index in [0, len(edges)]: the number
// of edges <= v, found with one upper-bound search. A value equal to an
// edge lands in the bin to its right, so the split predicate "v < edge"
// agrees between training and prediction; NaN compares false against
// every edge and lands in the last bin, as it goes right at every split.
func (b *binner) binOf(f int, v float64) int {
	edges := b.edges[f]
	lo, hi := 0, len(edges)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if v < edges[m] {
			hi = m
		} else {
			lo = m + 1
		}
	}
	return lo
}

// quantise converts the matrix to bin indices in one column-major slab:
// cols[f][i] is row i's bin for feature f, so a histogram scan and a
// split's partition each read one contiguous column.
func (b *binner) quantise(X [][]float64) [][]uint8 {
	nf := len(b.edges)
	slab := make([]uint8, nf*len(X))
	cols := make([][]uint8, nf)
	for f := range cols {
		cols[f] = slab[f*len(X) : (f+1)*len(X)]
	}
	for i, row := range X {
		for f, v := range row {
			cols[f][i] = uint8(b.binOf(f, v))
		}
	}
	return cols
}

// treeNode is one node of a fitted regression tree.
type treeNode struct {
	Feature   int     `json:"f"`
	Threshold float64 `json:"t"` // raw-value threshold: go left when v < t
	Left      int     `json:"l"` // child indices; -1 for leaves
	Right     int     `json:"r"`
	Value     float64 `json:"v"` // leaf output
}

// tree is a fitted regression tree in flattened form.
type tree struct {
	Nodes []treeNode `json:"nodes"`
}

func (t *tree) predict(x []float64) float64 {
	i := 0
	for {
		n := &t.Nodes[i]
		if n.Left < 0 {
			return n.Value
		}
		if x[n.Feature] < n.Threshold {
			i = n.Left
		} else {
			i = n.Right
		}
	}
}

// grower fits the trees of one training run. Everything it works in is
// sized once from the dataset and reused by every tree of the run: the
// quantised columns, the sample-index array each tree partitions in
// place, and the split search's per-worker histogram scratch.
//
// Two rules keep the fitted model independent of this layout, bit for
// bit (TestGBDTGoldenModels). A partition is stable, so every leaf
// visits its samples in ascending row order and every gradient sum adds
// the same terms in the same order. Each leaf's histograms are built
// from its own samples — never derived from a sibling by subtraction,
// which would reorder the sums.
type grower struct {
	cols      [][]uint8 // quantised features, column-major
	grads     []float64 // gradient per sample (residual for MSE)
	binEdges  [][]float64
	numLeaves int
	maxDepth  int  // used in depth-wise mode
	depthWise bool // growth order
	minLeaf   int
	lambda    float64
	gainAcc   []float64 // per-feature cumulative split gain (importance)
	splitAcc  []int     // per-feature split counts

	idx    []int32 // sample indices; every leaf owns a contiguous range
	spill  []int32 // right-hand samples of the partition in progress
	leaves []leafCand
	cands  []featSplit   // per-feature best split of the leaf in search
	hist   []histScratch // one per split-search worker; hist[0] is the caller's

	// The split-search pool: len(hist)-1 helpers, each woken by one token
	// on work per leaf. job and cursor are written only while the helpers
	// are parked; cands only at disjoint features.
	work    chan struct{}
	wg      sync.WaitGroup // tokens of the leaf in search
	helpers sync.WaitGroup // running helpers
	cursor  atomic.Int64
	job     splitJob
}

// histScratch is one worker's per-bin gradient sums and counts.
type histScratch struct {
	sums   []float64
	counts []int
}

// splitJob is the leaf the split search is scanning.
type splitJob struct {
	samples           []int32
	gTot, parentScore float64
}

// leafCand is a grown-but-unsplit leaf and its best available split.
type leafCand struct {
	node     int     // index into tree.Nodes
	samples  []int32 // the leaf's range of grower.idx, in row order
	gSum     float64 // gradient sum over samples
	depth    int
	gain     float64
	feature  int
	binSplit int // split before this bin: left bins < binSplit
}

// newGrower quantises X and sizes every buffer of a training run;
// workers > 1 starts the split-search helpers, which stop must release.
func newGrower(b *binner, X [][]float64, grads []float64, cfg GBDTConfig, model *GBDT) *grower {
	nf := len(b.edges)
	g := &grower{
		cols:      b.quantise(X),
		grads:     grads,
		binEdges:  b.edges,
		numLeaves: cfg.NumLeaves,
		maxDepth:  cfg.MaxDepth,
		depthWise: cfg.DepthWise,
		minLeaf:   cfg.MinLeafSamples,
		lambda:    cfg.Lambda,
		gainAcc:   model.Gain,
		splitAcc:  model.Splits,
		idx:       make([]int32, len(X)),
		spill:     make([]int32, 0, len(X)),
		leaves:    make([]leafCand, 0, cfg.NumLeaves+1),
		cands:     make([]featSplit, nf),
	}
	maxBins := 0
	for _, e := range b.edges {
		maxBins = max(maxBins, len(e)+1)
	}
	workers := max(min(cfg.Workers, nf), 1)
	g.hist = make([]histScratch, workers)
	for w := range g.hist {
		g.hist[w] = histScratch{sums: make([]float64, maxBins), counts: make([]int, maxBins)}
	}
	if workers > 1 {
		g.work = make(chan struct{})
		g.helpers.Add(workers - 1)
		for w := 1; w < workers; w++ {
			go g.helper(w)
		}
	}
	return g
}

// stop releases the split-search helpers and returns once they exited.
func (g *grower) stop() {
	if g.work != nil {
		close(g.work)
		g.helpers.Wait()
	}
}

func (g *grower) helper(w int) {
	defer g.helpers.Done()
	for range g.work {
		g.scan(w)
		g.wg.Done()
	}
}

// grow fits one regression tree to the current gradients. Its final
// leaves are left in g.leaves, each with the samples that reach it.
func (g *grower) grow() *tree {
	for i := range g.idx {
		g.idx[i] = int32(i)
	}
	t := &tree{Nodes: make([]treeNode, 0, 2*g.numLeaves-1)}
	g.leaves = append(g.leaves[:0], g.newLeaf(t, g.idx, 0))
	numLeaves := 1
	for {
		// Pick the next leaf to split.
		best := -1
		if g.depthWise {
			// Depth-wise: split in FIFO order while depth allows.
			for i := range g.leaves {
				if g.leaves[i].gain > 0 && g.leaves[i].depth < g.maxDepth {
					best = i
					break
				}
			}
		} else {
			// Leaf-wise: split the highest-gain leaf.
			for i := range g.leaves {
				if g.leaves[i].gain <= 0 {
					continue
				}
				if best == -1 || g.leaves[i].gain > g.leaves[best].gain {
					best = i
				}
			}
		}
		if best == -1 || numLeaves >= g.numLeaves {
			break
		}
		lc := g.leaves[best]
		g.leaves = append(g.leaves[:best], g.leaves[best+1:]...)
		// Materialise the split.
		nl := g.partition(lc.samples, lc.feature, lc.binSplit)
		g.gainAcc[lc.feature] += lc.gain
		g.splitAcc[lc.feature]++
		left := g.newLeaf(t, lc.samples[:nl], lc.depth+1)
		right := g.newLeaf(t, lc.samples[nl:], lc.depth+1)
		n := &t.Nodes[lc.node]
		n.Feature = lc.feature
		n.Threshold = g.binEdges[lc.feature][lc.binSplit-1]
		n.Left = left.node
		n.Right = right.node
		numLeaves++
		g.leaves = append(g.leaves, left, right)
	}
	return t
}

// partition reorders samples so those going left (bin < binSplit) come
// first, each side keeping its row order, and returns the left count.
func (g *grower) partition(samples []int32, f, binSplit int) int {
	col := g.cols[f]
	spill := g.spill[:0]
	nl := 0
	for _, si := range samples {
		if int(col[si]) < binSplit {
			samples[nl] = si
			nl++
		} else {
			spill = append(spill, si)
		}
	}
	copy(samples[nl:], spill)
	return nl
}

// newLeaf appends a leaf node over samples to t — its value is the optimal
// MSE output, the mean residual with L2 shrinkage — and finds its best
// split.
func (g *grower) newLeaf(t *tree, samples []int32, depth int) leafCand {
	lc := leafCand{node: len(t.Nodes), samples: samples, depth: depth}
	for _, si := range samples {
		lc.gSum += g.grads[si]
	}
	var v float64
	if len(samples) > 0 {
		v = lc.gSum / (float64(len(samples)) + g.lambda)
	}
	t.Nodes = append(t.Nodes, treeNode{Left: -1, Right: -1, Value: v})
	g.findBest(&lc)
	return lc
}

// addLeaves adds lr times each final leaf's value to the predictions of
// the samples that reached it — the tree's prediction for every training
// row, read off the partition instead of walking the tree per row.
func (g *grower) addLeaves(t *tree, pred []float64, lr float64) {
	for i := range g.leaves {
		v := t.Nodes[g.leaves[i].node].Value
		for _, si := range g.leaves[i].samples {
			pred[si] += lr * v
		}
	}
}

// parallelMinSamples is the leaf size below which fanning the split
// search out to the worker pool costs more than the scan itself.
const parallelMinSamples = 256

// featSplit is one feature's best available split on a leaf.
type featSplit struct {
	gain     float64
	binSplit int
}

// findBest computes the leaf's best split via per-bin histograms. With
// helpers running, the per-feature histogram scans are shared out over
// the pool; each feature's scan is self-contained and the final reduction
// walks features in ascending order with the same strict-greater
// tie-break as the inline loop, so the chosen split (and hence the fitted
// tree) is bit-identical to the sequential result.
func (g *grower) findBest(lc *leafCand) {
	lc.gain = 0
	if len(lc.samples) < 2*g.minLeaf {
		return
	}
	nTot := float64(len(lc.samples))
	g.job = splitJob{samples: lc.samples, gTot: lc.gSum, parentScore: lc.gSum * lc.gSum / (nTot + g.lambda)}
	g.cursor.Store(0)
	if helpers := len(g.hist) - 1; helpers > 0 && len(lc.samples) >= parallelMinSamples {
		g.wg.Add(helpers)
		for i := 0; i < helpers; i++ {
			g.work <- struct{}{}
		}
		g.scan(0)
		g.wg.Wait()
	} else {
		g.scan(0)
	}
	for f, c := range g.cands {
		if c.gain > lc.gain {
			lc.gain = c.gain
			lc.feature = f
			lc.binSplit = c.binSplit
		}
	}
}

// scan claims features off the shared cursor until none is left and
// records each one's best split, using worker w's histogram scratch.
func (g *grower) scan(w int) {
	h := &g.hist[w]
	for {
		f := int(g.cursor.Add(1)) - 1
		if f >= len(g.cands) {
			return
		}
		g.cands[f] = g.bestSplitOn(h, f)
	}
}

// bestSplitOn scans one feature's bin histogram for the best split of the
// job's leaf. The arithmetic and scan order match the historical inline
// loop exactly — parallel and sequential training must produce identical
// models.
func (g *grower) bestSplitOn(h *histScratch, f int) featSplit {
	var best featSplit
	nbins := len(g.binEdges[f]) + 1
	if nbins < 2 {
		return best
	}
	sums, counts := h.sums[:nbins], h.counts[:nbins]
	clear(sums)
	clear(counts)
	col := g.cols[f]
	samples := g.job.samples
	for _, si := range samples {
		b := col[si]
		sums[b] += g.grads[si]
		counts[b]++
	}
	gTot, parentScore := g.job.gTot, g.job.parentScore
	var gl float64
	nl := 0
	for b := 1; b < nbins; b++ {
		gl += sums[b-1]
		nl += counts[b-1]
		nr := len(samples) - nl
		if nl < g.minLeaf || nr < g.minLeaf {
			continue
		}
		gr := gTot - gl
		gain := gl*gl/(float64(nl)+g.lambda) +
			gr*gr/(float64(nr)+g.lambda) - parentScore
		if gain > best.gain && !math.IsNaN(gain) {
			best.gain = gain
			best.binSplit = b
		}
	}
	return best
}
