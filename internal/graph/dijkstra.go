package graph

import (
	"container/heap"
	"math"
)

// Path is a sequence of vertex indices; Path[0] is the source and
// Path[len-1] the destination. A valid path has length >= 2 and every
// consecutive pair is an edge of the graph.
type Path []int

// Equal reports whether two paths visit the same vertex sequence.
func (p Path) Equal(q Path) bool {
	if len(p) != len(q) {
		return false
	}
	for i := range p {
		if p[i] != q[i] {
			return false
		}
	}
	return true
}

// Clone returns a copy of p.
func (p Path) Clone() Path { return append(Path(nil), p...) }

// Edges maps the path to its edge indices in g. It returns false if any hop
// is not an edge of g.
func (p Path) Edges(g *Graph) ([]int, bool) {
	if len(p) < 2 {
		return nil, false
	}
	ids := make([]int, 0, len(p)-1)
	for i := 0; i+1 < len(p); i++ {
		id, ok := g.EdgeID(p[i], p[i+1])
		if !ok {
			return nil, false
		}
		ids = append(ids, id)
	}
	return ids, true
}

// Capacity returns the path capacity: the minimum capacity over the path's
// edges (the paper's C_p). It returns 0 if the path is invalid in g.
func (p Path) Capacity(g *Graph) float64 {
	ids, ok := p.Edges(g)
	if !ok {
		return 0
	}
	c := math.Inf(1)
	for _, id := range ids {
		if cap := g.Edge(id).Capacity; cap < c {
			c = cap
		}
	}
	return c
}

// EdgeWeight gives the cost of traversing an edge; used to parameterize
// shortest-path computations (hop count, custom).
type EdgeWeight func(e Edge) float64

// HopWeight weights every edge 1, so shortest path = fewest hops.
func HopWeight(Edge) float64 { return 1 }

type pqItem struct {
	v    int
	dist float64
}

type pq []pqItem

func (q pq) Len() int            { return len(q) }
func (q pq) Less(i, j int) bool  { return q[i].dist < q[j].dist }
func (q pq) Swap(i, j int)       { q[i], q[j] = q[j], q[i] }
func (q *pq) Push(x interface{}) { *q = append(*q, x.(pqItem)) }
func (q *pq) Pop() interface{} {
	old := *q
	n := len(old)
	it := old[n-1]
	*q = old[:n-1]
	return it
}

// dijkstraScratch holds the per-search working arrays of Dijkstra's
// algorithm so repeated searches (Yen's algorithm runs hundreds per pair,
// path precomputation millions per topology) reuse one set of buffers
// instead of allocating three O(V) slices plus a heap per call.
type dijkstraScratch struct {
	dist []float64
	prev []int
	done []bool
	q    pq
}

func newDijkstraScratch(n int) *dijkstraScratch {
	return &dijkstraScratch{
		dist: make([]float64, n),
		prev: make([]int, n),
		done: make([]bool, n),
	}
}

// ShortestPath returns the minimum-weight path from src to dst under w, and
// whether one exists. banVertex and banEdge, if non-nil, exclude vertices and
// edge indices from the search (used by Yen's algorithm); banVertex[src] must
// be false.
func (g *Graph) ShortestPath(src, dst int, w EdgeWeight, banVertex []bool, banEdge []bool) (Path, float64, bool) {
	return g.shortestPathWith(newDijkstraScratch(g.n), src, dst, w, banVertex, banEdge)
}

// shortestPathWith is ShortestPath on caller-owned scratch. The returned
// path is freshly allocated; only the working arrays are reused, so the
// result is identical to ShortestPath.
func (g *Graph) shortestPathWith(sc *dijkstraScratch, src, dst int, w EdgeWeight, banVertex []bool, banEdge []bool) (Path, float64, bool) {
	dist, prev, done := sc.dist, sc.prev, sc.done
	for i := range dist {
		dist[i] = math.Inf(1)
		prev[i] = -1
		done[i] = false
	}
	dist[src] = 0
	sc.q = append(sc.q[:0], pqItem{v: src, dist: 0})
	q := &sc.q
	for q.Len() > 0 {
		it := heap.Pop(q).(pqItem)
		if done[it.v] || it.dist > dist[it.v] {
			continue
		}
		done[it.v] = true
		if it.v == dst {
			break
		}
		for _, ei := range g.out[it.v] {
			if banEdge != nil && banEdge[ei] {
				continue
			}
			e := g.edges[ei]
			if banVertex != nil && banVertex[e.To] {
				continue
			}
			nd := it.dist + w(e)
			if nd < dist[e.To] {
				dist[e.To] = nd
				prev[e.To] = it.v
				heap.Push(q, pqItem{v: e.To, dist: nd})
			}
		}
	}
	if math.IsInf(dist[dst], 1) {
		return nil, 0, false
	}
	// Reconstruct.
	var rev Path
	for v := dst; v != -1; v = prev[v] {
		rev = append(rev, v)
	}
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev, dist[dst], true
}
