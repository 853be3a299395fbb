package graph

import (
	"math"
	"slices"
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

// EdgeWeight gives the cost of traversing an edge; used to parameterize
// shortest-path computations (hop count, custom).
type EdgeWeight func(e Edge) float64

// HopWeight weights every edge 1, so shortest path = fewest hops.
func HopWeight(Edge) float64 { return 1 }

type pqItem struct {
	v    int
	dist float64
}

// pq is a binary min-heap on dist. push and pop make the same sift steps
// and the same dist comparisons, in the same order, as container/heap's
// Push and Pop over a Less of q[i].dist < q[j].dist, so the pop sequence
// is container/heap's, ties and NaN included (TestHeapPopsLikeContainerHeap).
// They move the sifted item through a hole instead of swapping it.
type pq []pqItem

// push adds it and sifts it up.
func (q *pq) push(it pqItem) {
	h := append(*q, it)
	j := len(h) - 1
	for j > 0 {
		i := (j - 1) / 2
		if !(it.dist < h[i].dist) {
			break
		}
		h[j] = h[i]
		j = i
	}
	h[j] = it
	*q = h
}

// pop removes and returns the root: the last item takes its place and
// sifts down.
func (q *pq) pop() pqItem {
	h := *q
	n := len(h) - 1
	top, it := h[0], h[n]
	i := 0
	for {
		j := 2*i + 1
		if j >= n {
			break
		}
		if j2 := j + 1; j2 < n && h[j2].dist < h[j].dist {
			j = j2
		}
		if !(h[j].dist < it.dist) {
			break
		}
		h[i] = h[j]
		i = j
	}
	h[i] = it
	*q = h[:n]
	return top
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
	sc := newDijkstraScratch(g.n)
	if !g.search(sc, src, dst, w, banVertex, banEdge) {
		return nil, 0, false
	}
	return sc.pathTo(nil, nil, dst), sc.dist[dst], true
}

// search runs Dijkstra's algorithm from src on sc's arrays, stopping once
// dst is settled, and reports whether dst is reachable. The path it found
// is read back with sc.pathTo.
func (g *Graph) search(sc *dijkstraScratch, src, dst int, w EdgeWeight, banVertex []bool, banEdge []bool) bool {
	dist, prev, done := sc.dist, sc.prev, sc.done
	for i := range dist {
		dist[i] = math.Inf(1)
		prev[i] = -1
		done[i] = false
	}
	dist[src] = 0
	q := &sc.q
	*q = append((*q)[:0], pqItem{v: src, dist: 0})
	for len(*q) > 0 {
		it := q.pop()
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
				q.push(pqItem{v: e.To, dist: nd})
			}
		}
	}
	return !math.IsInf(dist[dst], 1)
}

// pathTo writes root followed by the path to dst that the last search
// found into buf's storage, grown once to the final length, and returns
// it. A nil buf makes it allocate exactly one slice of that length.
func (sc *dijkstraScratch) pathTo(buf, root Path, dst int) Path {
	n := len(root)
	for v := dst; v != -1; v = sc.prev[v] {
		n++
	}
	buf = slices.Grow(buf[:0], n)[:n]
	copy(buf, root)
	for v, i := dst, n-1; v != -1; v, i = sc.prev[v], i-1 {
		buf[i] = v
	}
	return buf
}
