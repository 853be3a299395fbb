package graph

import (
	"slices"
)

// KShortestPaths computes up to k loopless shortest paths from src to dst
// under weight w using Yen's algorithm, as used by the paper for candidate
// path precomputation ("we employ Yen's algorithm to precompute the three
// shortest paths between every pair of nodes").
//
// Paths are returned sorted by total weight (ties broken by the vertex
// sequence for determinism). Fewer than k paths are returned when the graph
// does not contain k distinct simple paths.
func (g *Graph) KShortestPaths(src, dst, k int, w EdgeWeight) []Path {
	return NewYenSolver(g).KShortestPaths(src, dst, k, w)
}

// yenCand is one Yen candidate path with its cached total weight.
type yenCand struct {
	p    Path
	cost float64
}

// YenSolver runs Yen's K-shortest-paths queries on one graph with reusable
// scratch: the Dijkstra working arrays and heap, the spur-search ban masks,
// the candidate lists and the spur path buffer are allocated once and
// shared across queries. Whole-topology precomputation issues one query per
// SD pair with several Dijkstra runs each; with the scratch reused, a query
// allocates only the paths it keeps: each candidate once, at its final
// length, and the returned slice.
//
// Results are identical to Graph.KShortestPaths — only working storage is
// reused; every returned path is freshly allocated. A YenSolver is NOT safe
// for concurrent use: give each goroutine its own solver (they are cheap,
// four O(V) slices and one O(E)).
type YenSolver struct {
	g         *Graph
	sc        *dijkstraScratch
	banEdge   []bool
	banVertex []bool
	// bannedEdges lists the ids a spur search set in banEdge, so that
	// only those are cleared again; its banned vertices are its root's.
	bannedEdges     []int
	accepted, cands []yenCand
	spur            Path
}

// NewYenSolver returns a solver bound to g. The graph must not gain vertices
// or edges while the solver is in use.
func NewYenSolver(g *Graph) *YenSolver {
	return &YenSolver{
		g:         g,
		sc:        newDijkstraScratch(g.n),
		banEdge:   make([]bool, len(g.edges)),
		banVertex: make([]bool, g.n),
	}
}

// KShortestPaths is Graph.KShortestPaths evaluated on the solver's scratch.
func (ys *YenSolver) KShortestPaths(src, dst, k int, w EdgeWeight) []Path {
	if k <= 0 || src == dst {
		return nil
	}
	g, sc := ys.g, ys.sc
	if !g.search(sc, src, dst, w, nil, nil) {
		return nil
	}
	pathCost := func(p Path) float64 {
		var c float64
		for i := 0; i+1 < len(p); i++ {
			id, _ := g.EdgeID(p[i], p[i+1])
			c += w(g.edges[id])
		}
		return c
	}
	first := sc.pathTo(nil, nil, dst)
	accepted := append(ys.accepted[:0], yenCand{p: first, cost: pathCost(first)})
	candidates := ys.cands[:0]

	haveCand := func(p Path) bool {
		for _, c := range candidates {
			if c.p.Equal(p) {
				return true
			}
		}
		return false
	}

	banEdge := ys.banEdge
	banVertex := ys.banVertex

	for len(accepted) < k {
		prevPath := accepted[len(accepted)-1].p
		// For each spur node in the previous accepted path.
		for i := 0; i+1 < len(prevPath); i++ {
			spur := prevPath[i]
			root := prevPath[:i+1]

			// Ban edges that would recreate an already-accepted path sharing
			// this root.
			for _, ap := range accepted {
				if len(ap.p) > i && ap.p[:i+1].Equal(root) {
					if id, ok := g.EdgeID(ap.p[i], ap.p[i+1]); ok {
						banEdge[id] = true
						ys.bannedEdges = append(ys.bannedEdges, id)
					}
				}
			}
			// Ban root vertices except the spur node to keep paths simple.
			for _, v := range root[:len(root)-1] {
				banVertex[v] = true
			}

			ok := g.search(sc, spur, dst, w, banVertex, banEdge)
			for _, id := range ys.bannedEdges {
				banEdge[id] = false
			}
			ys.bannedEdges = ys.bannedEdges[:0]
			for _, v := range root[:len(root)-1] {
				banVertex[v] = false
			}
			if !ok {
				continue
			}
			ys.spur = sc.pathTo(ys.spur, root[:len(root)-1], dst)
			if !haveCand(ys.spur) {
				p := slices.Clone(ys.spur)
				candidates = append(candidates, yenCand{p: p, cost: pathCost(p)})
			}
		}
		if len(candidates) == 0 {
			break
		}
		slices.SortFunc(candidates, compareCands)
		best := candidates[0]
		// Pop-front by copying down so the candidate buffer keeps its
		// backing array across queries.
		copy(candidates, candidates[1:])
		candidates = candidates[:len(candidates)-1]
		dup := false
		for _, ap := range accepted {
			if ap.p.Equal(best.p) {
				dup = true
				break
			}
		}
		if !dup {
			accepted = append(accepted, best)
		}
	}
	slices.SortStableFunc(accepted, compareCands)
	out := make([]Path, len(accepted))
	for i, a := range accepted {
		out[i] = a.p
	}
	ys.accepted, ys.cands = accepted[:0], candidates[:0]
	return out
}

// compareCands orders candidates by cost, then by vertex sequence. The
// sorts read only whether the result is negative, that is whether a sorts
// before b; a NaN cost sorts before no other cost, and none before it.
func compareCands(a, b yenCand) int {
	if a.cost != b.cost {
		if a.cost < b.cost {
			return -1
		}
		return 1
	}
	if lessPath(a.p, b.p) {
		return -1
	}
	return 1
}

func lessPath(a, b Path) bool {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return len(a) < len(b)
}

// IsSimple reports whether p visits no vertex twice.
func (p Path) IsSimple() bool {
	seen := make(map[int]bool, len(p))
	for _, v := range p {
		if seen[v] {
			return false
		}
		seen[v] = true
	}
	return true
}
