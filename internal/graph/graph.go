// Package graph provides the capacitated directed-graph substrate used by
// every TE component: topology representation, shortest paths (Dijkstra),
// Yen's K-shortest simple paths, the topology families evaluated in the
// FIGRET paper (WAN, PoD-level and ToR-level data centers), and link-failure
// application.
//
// Vertices are dense integers 0..N-1. Edges are directed; an undirected
// physical link is modeled as two directed edges, one per direction, each
// carrying the full link capacity (the convention used by the paper's MLU
// definition, where utilization is per directed edge).
package graph

import (
	"fmt"
	"sort"
)

// Edge is a directed capacitated edge.
type Edge struct {
	// From and To are vertex indices.
	From, To int
	// Capacity is the edge capacity in arbitrary demand units. Must be > 0.
	Capacity float64
}

// Graph is a directed capacitated graph with dense vertex indices.
//
// The zero value is an empty graph; use New to allocate one with a known
// vertex count.
type Graph struct {
	n int
	// edges[i] is edge i; ids are dense, in the order edges were added.
	edges []Edge
	// out[v] lists the indices into edges of the edges leaving v, in the
	// order they were added. It is the only adjacency: EdgeID scans it,
	// and AddEdge refuses a (from,to) pair it already holds, since
	// parallel edges are not supported (TestEdgeIDAndOutEdges,
	// TestAddEdgeValidation).
	out [][]int
}

// New returns an empty graph with n vertices.
func New(n int) *Graph {
	if n < 0 {
		panic("graph: negative vertex count")
	}
	return &Graph{n: n, out: make([][]int, n)}
}

// NumVertices returns the number of vertices.
func (g *Graph) NumVertices() int { return g.n }

// NumEdges returns the number of directed edges.
func (g *Graph) NumEdges() int { return len(g.edges) }

// Edges returns the edge slice. Callers must not mutate it.
func (g *Graph) Edges() []Edge { return g.edges }

// Edge returns the i'th edge.
func (g *Graph) Edge(i int) Edge { return g.edges[i] }

// AddEdge adds a directed edge and returns its index. It returns an error if
// the endpoints are out of range, equal, the capacity is non-positive, or the
// edge already exists. A NaN capacity counts as non-positive.
func (g *Graph) AddEdge(from, to int, capacity float64) (int, error) {
	if from < 0 || from >= g.n || to < 0 || to >= g.n {
		return 0, fmt.Errorf("graph: edge (%d,%d) out of range [0,%d)", from, to, g.n)
	}
	if from == to {
		return 0, fmt.Errorf("graph: self-loop (%d,%d) not allowed", from, to)
	}
	if !(capacity > 0) {
		return 0, fmt.Errorf("graph: edge (%d,%d) capacity %v must be positive", from, to, capacity)
	}
	if _, dup := g.EdgeID(from, to); dup {
		return 0, fmt.Errorf("graph: duplicate edge (%d,%d)", from, to)
	}
	id := len(g.edges)
	g.edges = append(g.edges, Edge{From: from, To: to, Capacity: capacity})
	g.out[from] = append(g.out[from], id)
	return id, nil
}

// MustAddEdge is AddEdge that panics on error; intended for topology
// constructors with statically known-valid input.
func (g *Graph) MustAddEdge(from, to int, capacity float64) int {
	id, err := g.AddEdge(from, to, capacity)
	if err != nil {
		panic(err)
	}
	return id
}

// AddLink adds the pair of directed edges (a->b, b->a) with the given
// capacity each, modelling one undirected physical link.
func (g *Graph) AddLink(a, b int, capacity float64) error {
	if _, err := g.AddEdge(a, b, capacity); err != nil {
		return err
	}
	if _, err := g.AddEdge(b, a, capacity); err != nil {
		return err
	}
	return nil
}

// EdgeID returns the index of edge (from,to) and whether it exists, found
// by scanning from's out-edges. A vertex outside the graph has no edges.
func (g *Graph) EdgeID(from, to int) (int, bool) {
	if from < 0 || from >= len(g.out) {
		return 0, false
	}
	for _, ei := range g.out[from] {
		if g.edges[ei].To == to {
			return ei, true
		}
	}
	return 0, false
}

// OutEdges returns the indices of edges leaving v. Callers must not mutate
// the returned slice.
func (g *Graph) OutEdges(v int) []int { return g.out[v] }

// Clone returns a deep copy of g.
func (g *Graph) Clone() *Graph {
	c := New(g.n)
	c.edges = append([]Edge(nil), g.edges...)
	for v := range g.out {
		c.out[v] = append([]int(nil), g.out[v]...)
	}
	return c
}

// Connected reports whether every vertex is reachable from vertex 0
// following directed edges (sufficient for the symmetric graphs used here).
func (g *Graph) Connected() bool {
	if g.n == 0 {
		return true
	}
	seen := make([]bool, g.n)
	stack := []int{0}
	seen[0] = true
	count := 1
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, ei := range g.out[v] {
			w := g.edges[ei].To
			if !seen[w] {
				seen[w] = true
				count++
				stack = append(stack, w)
			}
		}
	}
	return count == g.n
}

// MinCapacity returns the smallest edge capacity, or 0 for an edgeless graph.
func (g *Graph) MinCapacity() float64 {
	if len(g.edges) == 0 {
		return 0
	}
	m := g.edges[0].Capacity
	for _, e := range g.edges[1:] {
		if e.Capacity < m {
			m = e.Capacity
		}
	}
	return m
}

// Degrees returns the out-degree of every vertex.
func (g *Graph) Degrees() []int {
	d := make([]int, g.n)
	for v := range g.out {
		d[v] = len(g.out[v])
	}
	return d
}

// String implements fmt.Stringer with a short summary.
func (g *Graph) String() string {
	return fmt.Sprintf("graph{vertices: %d, edges: %d}", g.n, len(g.edges))
}

// SortedEdgeList returns edges sorted by (From, To); useful for deterministic
// output in tools and tests.
func (g *Graph) SortedEdgeList() []Edge {
	es := append([]Edge(nil), g.edges...)
	sort.Slice(es, func(i, j int) bool {
		if es[i].From != es[j].From {
			return es[i].From < es[j].From
		}
		return es[i].To < es[j].To
	})
	return es
}
