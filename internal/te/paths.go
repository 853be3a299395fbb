package te

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"figret/internal/graph"
)

// PathSet holds the candidate paths for every SD pair of a topology together
// with the precomputed incidence structures that map split ratios to edge
// flows (the SDtoPath and PathtoEdge matrices of Function 1, Appendix D.1,
// stored sparsely).
//
// A PathSet is immutable after construction and safe for concurrent use.
type PathSet struct {
	G     *graph.Graph
	Pairs Pairs
	// K is the candidate-path budget the set was computed with (paths per
	// pair where the topology allows; pairs may hold fewer). PathStore
	// uses it to content-address the set on disk.
	K int

	// Paths is the flat list of all candidate paths across all pairs.
	Paths []graph.Path
	// PairOf[p] is the pair index served by path p.
	PairOf []int
	// EdgeIDs[p] lists the edge indices traversed by path p.
	EdgeIDs [][]int
	// Cap[p] is the path capacity C_p = min edge capacity along p.
	Cap []float64
	// PairPaths[k] lists the path indices serving pair k (ordered by length).
	PairPaths [][]int

	// Flat CSR mirror of EdgeIDs, built lazily: csrEdges[csrStart[p]:
	// csrStart[p+1]] are path p's edge ids in one contiguous array. The
	// hot loops (EdgeFlows, the training loss gradient, the gradient
	// solver) walk this layout instead of the slice-of-slices, trading
	// one indirection per path for none and keeping the edge ids dense
	// in cache. csrCap caches per-edge capacities for the same loops.
	csrOnce  sync.Once
	csrEdges []int32
	csrStart []int32
	csrCap   []float64
}

// PathSelector chooses candidate paths for one SD pair.
type PathSelector func(g *graph.Graph, s, d, k int) []graph.Path

// SelectorYen is the content-address name of the default Yen selector.
const SelectorYen = "yen"

// PathSetOptions configures NewPathSetOpt.
type PathSetOptions struct {
	// Workers sizes the precomputation worker pool; <= 0 selects
	// runtime.GOMAXPROCS(0), 1 runs sequentially. The resulting PathSet is
	// bitwise identical for every worker count: each pair's candidate
	// list lands in an index-addressed slot and the set is flattened in
	// pair order, so scheduling never reorders output.
	Workers int
	// Selector overrides path selection. Nil selects Yen's algorithm run
	// on per-worker solvers with reused scratch (graph.YenSolver). A
	// non-nil Selector must be safe for concurrent use when Workers != 1
	// (it is called from multiple goroutines with distinct pairs).
	Selector PathSelector
	// SelectorName content-addresses the selector for Store lookups.
	// Defaults to SelectorYen when Selector is nil. A custom Selector
	// with an empty SelectorName disables the Store (an unnamed selector
	// cannot be addressed on disk).
	SelectorName string
	// Store, when non-nil, is consulted before computing: a cache hit
	// (same topology content hash, k and selector name) reloads the
	// persisted set instead of solving, and a miss persists the freshly
	// computed set for the next process. Corrupt or stale entries are
	// treated as misses and overwritten (self-healing), and persistence
	// is best-effort: a failed write (read-only or full cache volume)
	// never discards the freshly computed set — the next process simply
	// recomputes. Call PathStore.Save directly to treat a write failure
	// as an error.
	Store *PathStore
}

// NewPathSet computes candidate paths for every SD pair of g using sel
// (k paths per pair where the topology allows). It returns an error if any
// pair has no path (disconnected topology). Precomputation fans out across
// runtime.GOMAXPROCS(0) workers; use NewPathSetOpt to pin the worker count or
// attach an on-disk PathStore. Output is identical for any worker count.
func NewPathSet(g *graph.Graph, k int, sel PathSelector) (*PathSet, error) {
	return NewPathSetOpt(g, k, PathSetOptions{Selector: sel})
}

// NewPathSetOpt is NewPathSet with explicit precomputation options.
func NewPathSetOpt(g *graph.Graph, k int, opt PathSetOptions) (*PathSet, error) {
	if k <= 0 {
		return nil, fmt.Errorf("te: path count k=%d must be positive", k)
	}
	if opt.Workers <= 0 {
		opt.Workers = runtime.GOMAXPROCS(0)
	}
	selName := opt.SelectorName
	if opt.Selector == nil && selName == "" {
		selName = SelectorYen
	}
	if opt.Store != nil && selName != "" {
		if ps, err := opt.Store.Load(g, k, selName); err == nil {
			return ps, nil
		} else if !IsPathCacheMiss(err) {
			return nil, err
		}
	}
	pairs := NewPairs(g.NumVertices())
	perPair, err := computePairPaths(g, k, pairs, opt)
	if err != nil {
		return nil, err
	}
	ps, err := assemblePathSet(g, k, pairs, perPair)
	if err != nil {
		return nil, err
	}
	if opt.Store != nil && selName != "" {
		// Best-effort: the computed set is valid regardless of whether
		// it could be persisted; failing startup over a cache write
		// would invert the store's purpose.
		_ = opt.Store.Save(ps, selName)
	}
	return ps, nil
}

// computePairPaths runs the per-pair selector over all SD pairs on a worker
// pool and returns the candidate lists in index-addressed slots (slot pi
// holds pair pi's paths), so the output layout is independent of worker
// count and scheduling. Pair indices are claimed in ascending order and a
// failure stops further claims; because every claimed index runs to
// completion, the smallest failing pair is always among the completed ones
// and the returned error is deterministic.
func computePairPaths(g *graph.Graph, k int, pairs Pairs, opt PathSetOptions) ([][]graph.Path, error) {
	count := pairs.Count()
	perPair := make([][]graph.Path, count)
	// newSel builds one worker's selector: the shared custom selector, or
	// a worker-owned Yen solver whose Dijkstra/spur scratch is reused
	// across every pair the worker claims.
	newSel := func() PathSelector {
		if opt.Selector != nil {
			return opt.Selector
		}
		ys := graph.NewYenSolver(g)
		return func(g *graph.Graph, s, d, k int) []graph.Path {
			return ys.KShortestPaths(s, d, k, graph.HopWeight)
		}
	}
	solve := func(sel PathSelector, pi int) error {
		s, d := pairs.SD(pi)
		cand := sel(g, s, d, k)
		if len(cand) == 0 {
			return fmt.Errorf("te: no path from %d to %d", s, d)
		}
		perPair[pi] = cand
		return nil
	}
	workers := opt.Workers
	if workers > count {
		workers = count
	}
	if workers == 1 {
		sel := newSel()
		for pi := 0; pi < count; pi++ {
			if err := solve(sel, pi); err != nil {
				return nil, err
			}
		}
		return perPair, nil
	}
	errs := make([]error, count)
	var next atomic.Int64
	var failed atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sel := newSel()
			for {
				// Check-then-claim, exactly as eval.Parallel: indices are
				// claimed ascending, so every index below a failing one
				// has been claimed and completes, making the smallest
				// failing index deterministic.
				if failed.Load() {
					return
				}
				pi := int(next.Add(1)) - 1
				if pi >= count {
					return
				}
				if err := solve(sel, pi); err != nil {
					errs[pi] = err
					failed.Store(true)
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return perPair, nil
}

// assemblePathSet flattens index-addressed per-pair candidate lists into a
// PathSet in pair order — the same order the original sequential
// implementation appended in, which is what keeps parallel output bitwise
// identical to sequential. It validates every path against g (also the
// integrity backstop for PathStore loads).
func assemblePathSet(g *graph.Graph, k int, pairs Pairs, perPair [][]graph.Path) (*PathSet, error) {
	ps := &PathSet{
		G:         g,
		Pairs:     pairs,
		K:         k,
		PairPaths: make([][]int, pairs.Count()),
	}
	for pi, cand := range perPair {
		if len(cand) == 0 {
			s, d := pairs.SD(pi)
			return nil, fmt.Errorf("te: no path from %d to %d", s, d)
		}
		for _, p := range cand {
			eids, ok := p.Edges(g)
			if !ok {
				s, d := pairs.SD(pi)
				return nil, fmt.Errorf("te: selector returned invalid path %v for (%d,%d)", p, s, d)
			}
			id := len(ps.Paths)
			ps.Paths = append(ps.Paths, p)
			ps.PairOf = append(ps.PairOf, pi)
			ps.EdgeIDs = append(ps.EdgeIDs, eids)
			ps.Cap = append(ps.Cap, p.Capacity(g))
			ps.PairPaths[pi] = append(ps.PairPaths[pi], id)
		}
	}
	ps.ensureCSR()
	return ps, nil
}

// NumPaths returns the total number of candidate paths.
func (ps *PathSet) NumPaths() int { return len(ps.Paths) }

// ensureCSR builds the flat edge-incidence layout. It runs eagerly in
// NewPathSet and lazily (via sync.Once, so still concurrency-safe) for
// PathSets assembled by hand in tests.
func (ps *PathSet) ensureCSR() {
	ps.csrOnce.Do(func() {
		total := 0
		for _, eids := range ps.EdgeIDs {
			total += len(eids)
		}
		ps.csrEdges = make([]int32, 0, total)
		ps.csrStart = make([]int32, len(ps.EdgeIDs)+1)
		for p, eids := range ps.EdgeIDs {
			for _, e := range eids {
				ps.csrEdges = append(ps.csrEdges, int32(e))
			}
			ps.csrStart[p+1] = int32(len(ps.csrEdges))
		}
		ne := ps.G.NumEdges()
		ps.csrCap = make([]float64, ne)
		for e := 0; e < ne; e++ {
			ps.csrCap[e] = ps.G.Edge(e).Capacity
		}
	})
}

// EdgeCSR returns the flat edge-incidence layout: ids[start[p]:start[p+1]]
// are the edge indices of path p. Both slices are shared and must not be
// modified.
func (ps *PathSet) EdgeCSR() (ids []int32, start []int32) {
	ps.ensureCSR()
	return ps.csrEdges, ps.csrStart
}

// EdgeCaps returns the cached per-edge capacity vector (shared; read-only).
func (ps *PathSet) EdgeCaps() []float64 {
	ps.ensureCSR()
	return ps.csrCap
}

// EdgeFlows accumulates the per-edge flow induced by demand vector d (indexed
// by pair) and split ratios r (indexed by path): f_e = Σ_p d[pair(p)]·r[p]
// over paths containing e. The result has one entry per directed edge.
// dst, if non-nil and correctly sized, is reused to avoid allocation.
func (ps *PathSet) EdgeFlows(d, r []float64, dst []float64) []float64 {
	ps.ensureCSR()
	ne := ps.G.NumEdges()
	if dst == nil || len(dst) != ne {
		dst = make([]float64, ne)
	} else {
		for i := range dst {
			dst[i] = 0
		}
	}
	ids, start := ps.csrEdges, ps.csrStart
	pairOf := ps.PairOf
	for p := range pairOf {
		f := d[pairOf[p]] * r[p]
		if f == 0 {
			continue
		}
		for _, e := range ids[start[p]:start[p+1]] {
			dst[e] += f
		}
	}
	return dst
}

// MLU returns the max link utilization induced by demand d under split
// ratios r, and the index of the arg-max edge. For an all-zero demand it
// returns (0, 0).
func (ps *PathSet) MLU(d, r []float64) (float64, int) {
	flows := ps.EdgeFlows(d, r, nil)
	return ps.MLUFromFlows(flows)
}

// MLUFromFlows converts per-edge flows to (max utilization, argmax edge).
func (ps *PathSet) MLUFromFlows(flows []float64) (float64, int) {
	best, arg := 0.0, 0
	for e, f := range flows {
		u := f / ps.G.Edge(e).Capacity
		if u > best {
			best, arg = u, e
		}
	}
	return best, arg
}

// Sensitivities returns S_p = r_p / C_p for every path (the paper's path
// sensitivity metric, §4.1). Capacities can optionally be normalized so the
// topology's smallest edge capacity counts as 1, as the paper does when
// plotting Figure 8; pass normalize=true for that convention.
func (ps *PathSet) Sensitivities(r []float64, normalize bool) []float64 {
	scale := 1.0
	if normalize {
		if m := ps.G.MinCapacity(); m > 0 {
			scale = m
		}
	}
	s := make([]float64, len(r))
	for p := range r {
		s[p] = r[p] * scale / ps.Cap[p]
	}
	return s
}

// MaxPairSensitivities returns S^max_sd per pair: the maximum sensitivity
// among the paths serving each pair (used by the L2 loss term, Eq. 8).
func (ps *PathSet) MaxPairSensitivities(r []float64, normalize bool) []float64 {
	s := ps.Sensitivities(r, normalize)
	out := make([]float64, ps.Pairs.Count())
	for i := range out {
		out[i] = math.Inf(-1)
	}
	for p, v := range s {
		if pi := ps.PairOf[p]; v > out[pi] {
			out[pi] = v
		}
	}
	for i, v := range out {
		if math.IsInf(v, -1) {
			out[i] = 0
		}
	}
	return out
}
