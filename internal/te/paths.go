package te

import (
	"cmp"
	"fmt"
	"math"
	"runtime"
	"slices"
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
	// Cap[p] is the path capacity C_p = min edge capacity along p.
	Cap []float64
	// PairPaths[k] lists the path indices serving pair k (ordered by length).
	PairPaths [][]int

	// The path-to-edge incidence, stored once as a CSR:
	// csrEdges[csrStart[p]:csrStart[p+1]] are path p's edge ids in hop
	// order, in one contiguous array (see PathEdges and EdgeCSR). csrCap
	// holds the per-edge capacities the hot loops divide by.
	csrEdges []int32
	csrStart []int32
	csrCap   []float64

	// The gradient solver's layouts, built on its first call (see
	// ensureSolverLayouts) and never by NewPathSet or PathStore.Load.
	solverOnce    sync.Once
	groupEdges    []int32 // paths four abreast, see PathGroups
	groupStart    []int32
	edgeQuadPaths []int32 // edges four abreast, see EdgeQuads
	edgeQuadStart []int32
	edgeOf        []int32
	pairQuadPaths []int32 // pairs four abreast, see PairQuads
	pairQuadStart []int32
	pairOf32      []int32
}

// PathSelector chooses candidate paths for one SD pair.
type PathSelector func(g *graph.Graph, s, d, k int) []graph.Path

// SelectorYen is the content-address name of the default Yen selector.
const SelectorYen = "yen"

// PathSetOptions configures NewPathSetOpt.
type PathSetOptions struct {
	// Selector overrides path selection. Nil selects Yen's algorithm run
	// on per-worker solvers with reused scratch (graph.YenSolver). A
	// non-nil Selector must be safe for concurrent use (it is called from
	// multiple goroutines with distinct pairs).
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
// runtime.GOMAXPROCS(0) workers; use NewPathSetOpt to attach an on-disk
// PathStore. Output is identical for any worker count: each pair's
// candidate list lands in an index-addressed slot and the set is flattened
// in pair order, so scheduling never reorders output.
func NewPathSet(g *graph.Graph, k int, sel PathSelector) (*PathSet, error) {
	return NewPathSetOpt(g, k, PathSetOptions{Selector: sel})
}

// NewPathSetOpt is NewPathSet with explicit precomputation options.
func NewPathSetOpt(g *graph.Graph, k int, opt PathSetOptions) (*PathSet, error) {
	if k <= 0 {
		return nil, fmt.Errorf("te: path count k=%d must be positive", k)
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
	perPair, err := computePairPaths(g, k, pairs, opt.Selector, runtime.GOMAXPROCS(0))
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

// computePairPaths runs the per-pair selector (nil: Yen) over all SD pairs
// on a pool of the given width and returns the candidate lists in index-addressed slots (slot pi
// holds pair pi's paths), so the output layout is independent of worker
// count and scheduling. Pair indices are claimed in ascending order and a
// failure stops further claims; because every claimed index runs to
// completion, the smallest failing pair is always among the completed ones
// and the returned error is deterministic.
func computePairPaths(g *graph.Graph, k int, pairs Pairs, custom PathSelector, workers int) ([][]graph.Path, error) {
	count := pairs.Count()
	perPair := make([][]graph.Path, count)
	// newSel builds one worker's selector: the shared custom selector, or
	// a worker-owned Yen solver whose Dijkstra/spur scratch is reused
	// across every pair the worker claims.
	newSel := func() PathSelector {
		if custom != nil {
			return custom
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
// identical to sequential. It is the integrity backstop of a fresh solve
// and of a PathStore load alike: every pair must hold between 1 and k
// paths, each a walk of g from the pair's source to its destination that
// visits no vertex twice, none listed twice (TestPathSetBackstop). One walk
// over each path's hops fills its CSR run and its capacity.
func assemblePathSet(g *graph.Graph, k int, pairs Pairs, perPair [][]graph.Path) (*PathSet, error) {
	nPaths, nHops := 0, 0
	for _, cand := range perPair {
		nPaths += len(cand)
		for _, p := range cand {
			nHops += max(len(p)-1, 0)
		}
	}
	ps := &PathSet{
		G:         g,
		Pairs:     pairs,
		K:         k,
		Paths:     make([]graph.Path, 0, nPaths),
		PairOf:    make([]int, 0, nPaths),
		Cap:       make([]float64, 0, nPaths),
		PairPaths: make([][]int, pairs.Count()),
		csrEdges:  make([]int32, 0, nHops),
		csrStart:  make([]int32, 1, nPaths+1),
		csrCap:    make([]float64, g.NumEdges()),
	}
	for e := range ps.csrCap {
		ps.csrCap[e] = g.Edge(e).Capacity
	}
	// Each pair's PairPaths entry is carved off the front of pathIDs.
	pathIDs := make([]int, nPaths)
	// visit[v] == id+1 marks v as on path id, so no pass clears it.
	visit := make([]int, g.NumVertices())
	for pi, cand := range perPair {
		s, d := pairs.SD(pi)
		if len(cand) == 0 {
			return nil, fmt.Errorf("te: no path from %d to %d", s, d)
		}
		if len(cand) > k {
			return nil, fmt.Errorf("te: pair (%d,%d) has %d paths, more than k=%d", s, d, len(cand), k)
		}
		ids := pathIDs[:len(cand):len(cand)]
		pathIDs = pathIDs[len(cand):]
		for i, p := range cand {
			id := len(ps.Paths)
			c, ok := ps.appendHops(p)
			if !ok {
				return nil, fmt.Errorf("te: pair (%d,%d): path %v is no walk of the graph", s, d, p)
			}
			if p[0] != s || p[len(p)-1] != d {
				return nil, fmt.Errorf("te: pair (%d,%d): path %v has the wrong endpoints", s, d, p)
			}
			for _, v := range p {
				if visit[v] == id+1 {
					return nil, fmt.Errorf("te: pair (%d,%d): path %v visits %d twice", s, d, p, v)
				}
				visit[v] = id + 1
			}
			for _, q := range cand[:i] {
				if q.Equal(p) {
					return nil, fmt.Errorf("te: pair (%d,%d): path %v is listed twice", s, d, p)
				}
			}
			ps.Paths = append(ps.Paths, p)
			ps.PairOf = append(ps.PairOf, pi)
			ps.Cap = append(ps.Cap, c)
			ids[i] = id
		}
		ps.PairPaths[pi] = ids
	}
	return ps, nil
}

// appendHops appends path p's edge ids to the CSR and closes its run. It
// returns the path capacity, the minimum of its edge capacities, and false
// when p is shorter than one hop or a hop is no edge of the graph.
func (ps *PathSet) appendHops(p graph.Path) (float64, bool) {
	if len(p) < 2 {
		return 0, false
	}
	c := math.Inf(1)
	for i := 0; i+1 < len(p); i++ {
		e, ok := ps.G.EdgeID(p[i], p[i+1])
		if !ok {
			return 0, false
		}
		ps.csrEdges = append(ps.csrEdges, int32(e))
		c = min(c, ps.csrCap[e])
	}
	ps.csrStart = append(ps.csrStart, int32(len(ps.csrEdges)))
	return c, true
}

// NumPaths returns the total number of candidate paths.
func (ps *PathSet) NumPaths() int { return len(ps.Paths) }

// PathEdges returns path p's edge ids in hop order: its run of the CSR.
// The slice is shared and must not be modified.
func (ps *PathSet) PathEdges(p int) []int32 {
	lo, hi := ps.csrStart[p], ps.csrStart[p+1]
	return ps.csrEdges[lo:hi:hi]
}

// EdgeCSR returns the flat edge-incidence layout: ids[start[p]:start[p+1]]
// are the edge indices of path p. Both slices are shared and must not be
// modified.
func (ps *PathSet) EdgeCSR() (ids []int32, start []int32) {
	return ps.csrEdges, ps.csrStart
}

// EdgeCaps returns the cached per-edge capacity vector (shared; read-only).
func (ps *PathSet) EdgeCaps() []float64 {
	return ps.csrCap
}

// ensureSolverLayouts builds the three layouts the gradient solver walks
// instead of the CSR and PairPaths, each four lists abreast (see quads):
// the paths' edges (PathGroups), the edges' paths (EdgeQuads) and the
// pairs' paths (PairQuads). They are derived from the CSR and PairPaths, so
// every list keeps its order. It panics when PairPaths and PairOf disagree
// or leave a path out, which only a hand-assembled set can do.
func (ps *PathSet) ensureSolverLayouts() {
	ps.solverOnce.Do(func() {
		ids, start := ps.csrEdges, ps.csrStart
		P, ne := len(ps.PairOf), ps.G.NumEdges()

		pairOf := make([]int32, P)
		pairPaths := make([][]int32, len(ps.PairPaths))
		flat := make([]int32, 0, P)
		seen := make([]bool, P)
		for i, pp := range ps.PairPaths {
			for _, p := range pp {
				if p < 0 || p >= P || ps.PairOf[p] != i || seen[p] {
					panic(fmt.Sprintf("te: pair %d lists path %d, which is not one of its own", i, p))
				}
				seen[p] = true
				pairOf[p] = int32(i)
				flat = append(flat, int32(p))
			}
			pairPaths[i] = flat[len(flat)-len(pp):]
		}
		if len(flat) != P {
			panic(fmt.Sprintf("te: pairs cover %d of %d paths", len(flat), P))
		}

		// Transpose by counting sort: paths visited in ascending order
		// land in each edge's list in ascending order.
		edgeStart := make([]int32, ne+1)
		for _, e := range ids {
			edgeStart[e+1]++
		}
		for e := 0; e < ne; e++ {
			edgeStart[e+1] += edgeStart[e]
		}
		edgePaths := make([]int32, len(ids))
		fill := append([]int32(nil), edgeStart[:ne]...)
		for p := 0; p < P; p++ {
			for _, e := range ids[start[p]:start[p+1]] {
				edgePaths[fill[e]] = int32(p)
				fill[e]++
			}
		}
		// Longest list first, so that a quad's lanes pad little.
		edgeOf := make([]int32, ne)
		for e := range edgeOf {
			edgeOf[e] = int32(e)
		}
		size := func(e int32) int32 { return edgeStart[e+1] - edgeStart[e] }
		slices.SortStableFunc(edgeOf, func(a, b int32) int { return cmp.Compare(size(b), size(a)) })
		edgeLists := make([][]int32, ne)
		for s, e := range edgeOf {
			edgeLists[s] = edgePaths[edgeStart[e]:edgeStart[e+1]]
		}

		pathLists := make([][]int32, P)
		for p := range pathLists {
			pathLists[p] = ids[start[p]:start[p+1]]
		}

		ps.groupEdges, ps.groupStart = quads(pathLists, int32(ne))
		ps.edgeQuadPaths, ps.edgeQuadStart = quads(edgeLists, int32(P))
		ps.edgeOf = edgeOf
		ps.pairQuadPaths, ps.pairQuadStart = quads(pairPaths, int32(P))
		ps.pairOf32 = pairOf
	})
}

// quads lays lists out four abreast: quad q holds lists 4q..4q+3 in
// ids[start[q]:start[q+1]], where entry k*4+lane is the k-th id of list
// 4q+lane. Each quad is as long as its longest list; shorter lists, and
// the lanes past the last list, are padded with pad.
func quads(lists [][]int32, pad int32) (ids, start []int32) {
	n := (len(lists) + 3) / 4
	start = make([]int32, n+1)
	for q := 0; q < n; q++ {
		longest := 0
		for _, l := range lists[4*q : min(4*q+4, len(lists))] {
			longest = max(longest, len(l))
		}
		start[q+1] = start[q] + 4*int32(longest)
	}
	ids = make([]int32, start[n])
	for i := range ids {
		ids[i] = pad
	}
	for i, l := range lists {
		quad := ids[start[i/4]:]
		for k, id := range l {
			quad[4*k+i%4] = id
		}
	}
	return ids, start
}

// PathGroups returns the paths four abreast: group g holds paths 4g..4g+3
// in ids[start[g]:start[g+1]], where entry k*4+lane is the k-th edge of
// path 4g+lane. Each group is as long as its longest path; shorter paths,
// and the lanes past the last path, are padded with the sentinel edge id
// G.NumEdges(). Built on first use; shared and read-only.
func (ps *PathSet) PathGroups() (ids, start []int32) {
	ps.ensureSolverLayouts()
	return ps.groupEdges, ps.groupStart
}

// EdgeQuads returns the edges four abreast: quad q holds the edges in
// slots 4q..4q+3, edgeOf[slot] being the edge in a slot, and entry k*4+lane
// of ids[start[q]:start[q+1]] is the k-th path through edge
// edgeOf[4q+lane], in ascending id order: the order EdgeFlows adds flows
// to an edge. Edges are slotted by descending path count (stable in edge
// id). Each quad is as long as its longest list; shorter lists, and the
// slots past the last edge, are padded with the sentinel path id
// NumPaths(). Built on first use; shared and read-only.
func (ps *PathSet) EdgeQuads() (ids, start, edgeOf []int32) {
	ps.ensureSolverLayouts()
	return ps.edgeQuadPaths, ps.edgeQuadStart, ps.edgeOf
}

// PairQuads returns the pairs four abreast: quad q holds pairs 4q..4q+3 in
// ids[start[q]:start[q+1]], where entry k*4+lane is the k-th path of
// PairPaths[4q+lane]. Each quad is as long as its largest pair; smaller
// pairs, and the lanes past the last pair, are padded with the sentinel
// path id NumPaths(). pairOf is PairOf as int32. Built on first use;
// shared and read-only.
func (ps *PathSet) PairQuads() (ids, start, pairOf []int32) {
	ps.ensureSolverLayouts()
	return ps.pairQuadPaths, ps.pairQuadStart, ps.pairOf32
}

// EdgeFlows accumulates the per-edge flow induced by demand vector d (indexed
// by pair) and split ratios r (indexed by path): f_e = Σ_p d[pair(p)]·r[p]
// over paths containing e. The result has one entry per directed edge.
// dst, if non-nil and correctly sized, is reused to avoid allocation.
func (ps *PathSet) EdgeFlows(d, r []float64, dst []float64) []float64 {
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
