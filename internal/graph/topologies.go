package graph

import (
	"fmt"
	"math/rand"
)

// The constructors in this file produce the eight topology families of the
// paper's Table 1. Node and directed-edge counts match the table exactly:
//
//	GEANT     WAN          23 /   74
//	UsCarrier WAN         158 /  378
//	Cogentco  WAN         197 /  486
//	pFabric   ToR-level     9 /   72   (full mesh)
//	Meta DB   PoD-level     4 /   12   (full mesh)
//	Meta DB   ToR-level   155 / 7194   (random regular-ish)
//	Meta WEB  PoD-level     8 /   56   (full mesh)
//	Meta WEB  ToR-level   324 / 31520  (random regular-ish)
//
// The WAN topologies are synthetic reconstructions (ring + seeded chords)
// with the published node/link counts — the Topology Zoo adjacency data is
// not redistributed here; DESIGN.md documents the substitution.

// FullMesh returns a complete directed graph on n vertices with uniform
// edge capacity.
func FullMesh(n int, capacity float64) *Graph {
	g := New(n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j {
				g.MustAddEdge(i, j, capacity)
			}
		}
	}
	return g
}

// RingWithChords returns a connected graph with exactly `links` undirected
// links (2*links directed edges): a Hamiltonian ring plus links-n seeded
// random chords. Capacities alternate between baseCap and 4*baseCap to give
// the capacity heterogeneity real WANs exhibit.
func RingWithChords(n, links int, baseCap float64, seed int64) (*Graph, error) {
	if links < n {
		return nil, fmt.Errorf("graph: need at least %d links for a ring on %d vertices, got %d", n, n, links)
	}
	maxLinks := n * (n - 1) / 2
	if links > maxLinks {
		return nil, fmt.Errorf("graph: %d links exceeds complete graph size %d", links, maxLinks)
	}
	rng := rand.New(rand.NewSource(seed))
	g := New(n)
	capFor := func(i int) float64 {
		if i%3 == 0 {
			return 4 * baseCap
		}
		return baseCap
	}
	li := 0
	for i := 0; i < n; i++ {
		if err := g.AddLink(i, (i+1)%n, capFor(li)); err != nil {
			return nil, err
		}
		li++
	}
	for li < links {
		a := rng.Intn(n)
		b := rng.Intn(n)
		if a == b {
			continue
		}
		if _, exists := g.EdgeID(a, b); exists {
			continue
		}
		if err := g.AddLink(a, b, capFor(li)); err != nil {
			return nil, err
		}
		li++
	}
	return g, nil
}

// RandomRegularish returns a connected graph on n vertices with exactly
// `links` undirected links and near-uniform degree, built as a ring (for
// guaranteed connectivity) plus seeded random chords chosen preferring
// low-degree endpoints. It models the ToR-level direct-connect fabrics the
// paper derives from Jellyfish-style random regular graphs.
func RandomRegularish(n, links int, capacity float64, seed int64) (*Graph, error) {
	if links < n {
		return nil, fmt.Errorf("graph: need at least %d links, got %d", n, links)
	}
	maxLinks := n * (n - 1) / 2
	if links > maxLinks {
		return nil, fmt.Errorf("graph: %d links exceeds complete graph size %d", links, maxLinks)
	}
	rng := rand.New(rand.NewSource(seed))
	g := New(n)
	deg := make([]int, n)
	addLink := func(a, b int) bool {
		if a == b {
			return false
		}
		if _, exists := g.EdgeID(a, b); exists {
			return false
		}
		g.MustAddEdge(a, b, capacity)
		g.MustAddEdge(b, a, capacity)
		deg[a]++
		deg[b]++
		return true
	}
	for i := 0; i < n; i++ {
		addLink(i, (i+1)%n)
	}
	added := n
	// Pick endpoints among the lowest-degree vertices to keep degrees even.
	for added < links {
		a := pickLowDegree(rng, deg)
		b := pickLowDegree(rng, deg)
		if addLink(a, b) {
			added++
		}
	}
	return g, nil
}

// pickLowDegree samples a vertex with probability decreasing in its degree:
// it draws two uniform candidates and keeps the one with smaller degree.
func pickLowDegree(rng *rand.Rand, deg []int) int {
	a := rng.Intn(len(deg))
	b := rng.Intn(len(deg))
	if deg[b] < deg[a] {
		return b
	}
	return a
}

// Topology names accepted by ByName.
const (
	TopoGEANT     = "geant"
	TopoUsCarrier = "uscarrier"
	TopoCogentco  = "cogentco"
	TopoPFabric   = "pfabric"
	TopoPoDDB     = "pod-db"
	TopoPoDWEB    = "pod-web"
	TopoToRDB     = "tor-db"
	TopoToRWEB    = "tor-web"
	TopoLargeWAN  = "large-wan"
)

// AllTopologies lists the eight evaluation topologies in the paper's order.
func AllTopologies() []string {
	return []string{
		TopoGEANT, TopoUsCarrier, TopoCogentco, TopoPFabric,
		TopoPoDDB, TopoPoDWEB, TopoToRDB, TopoToRWEB,
	}
}

// GEANT returns the 23-node / 74-directed-edge WAN topology (37 links):
// a ring plus 14 chords with heterogeneous capacities, shaped after the
// public pan-European GEANT network.
func GEANT() *Graph {
	g := New(23)
	// 23 ring links.
	ringCaps := []float64{40, 10, 10, 40, 10, 40, 40, 10, 10, 40, 10, 10,
		40, 10, 40, 10, 10, 40, 10, 40, 10, 10, 40}
	for i := 0; i < 23; i++ {
		if err := g.AddLink(i, (i+1)%23, ringCaps[i]); err != nil {
			panic(err)
		}
	}
	// 14 chords connecting the major hubs.
	chords := []struct {
		a, b int
		c    float64
	}{
		{0, 5, 40}, {0, 11, 40}, {2, 7, 10}, {3, 9, 40}, {4, 14, 10},
		{5, 16, 40}, {6, 12, 10}, {8, 18, 40}, {9, 20, 10}, {10, 15, 40},
		{1, 13, 10}, {7, 21, 40}, {12, 19, 10}, {16, 22, 40},
	}
	for _, ch := range chords {
		if err := g.AddLink(ch.a, ch.b, ch.c); err != nil {
			panic(err)
		}
	}
	return g
}

// UsCarrier returns a 158-node / 378-directed-edge synthetic WAN.
func UsCarrier() *Graph {
	g, err := RingWithChords(158, 189, 10, 1581)
	if err != nil {
		panic(err)
	}
	return g
}

// Cogentco returns a 197-node / 486-directed-edge synthetic WAN.
func Cogentco() *Graph {
	g, err := RingWithChords(197, 243, 10, 1971)
	if err != nil {
		panic(err)
	}
	return g
}

// PFabric returns the 9-ToR full-mesh direct-connect topology (72 directed
// edges) used for the pFabric workload.
func PFabric() *Graph { return FullMesh(9, 10) }

// PoDDB returns the Meta DB cluster PoD-level full mesh (4 nodes, 12 edges).
func PoDDB() *Graph { return FullMesh(4, 10) }

// PoDWEB returns the Meta WEB cluster PoD-level full mesh (8 nodes, 56 edges).
func PoDWEB() *Graph { return FullMesh(8, 10) }

// ToRDB returns the Meta DB cluster ToR-level topology: 155 nodes and
// 7194 directed edges (3597 links).
func ToRDB() *Graph {
	g, err := RandomRegularish(155, 3597, 10, 155)
	if err != nil {
		panic(err)
	}
	return g
}

// ToRWEB returns the Meta WEB cluster ToR-level topology: 324 nodes and
// 31520 directed edges (15760 links).
func ToRWEB() *Graph {
	g, err := RandomRegularish(324, 15760, 10, 324)
	if err != nil {
		panic(err)
	}
	return g
}

// LargeWAN returns a 220-node / 660-directed-edge synthetic WAN (330
// links), larger than any of the paper's Table 1 WANs. It exists to stress
// whole-topology candidate-path precomputation: with 48,180 SD pairs it is
// the workload the worker pool and the PathStore are measured on
// (te.pathset_build_s, te.pathstore_load_ms). It is not part of
// AllTopologies (the paper's evaluation set) but is served by ByName as
// "large-wan".
func LargeWAN() *Graph {
	g, err := RingWithChords(220, 330, 10, 2201)
	if err != nil {
		panic(err)
	}
	return g
}

// ByName returns the named evaluation topology. Names are the Topo*
// constants; unknown names yield an error.
func ByName(name string) (*Graph, error) {
	switch name {
	case TopoGEANT:
		return GEANT(), nil
	case TopoUsCarrier:
		return UsCarrier(), nil
	case TopoCogentco:
		return Cogentco(), nil
	case TopoPFabric:
		return PFabric(), nil
	case TopoPoDDB:
		return PoDDB(), nil
	case TopoPoDWEB:
		return PoDWEB(), nil
	case TopoToRDB:
		return ToRDB(), nil
	case TopoToRWEB:
		return ToRWEB(), nil
	case TopoLargeWAN:
		return LargeWAN(), nil
	default:
		return nil, fmt.Errorf("graph: unknown topology %q", name)
	}
}

// Triangle returns the 3-node topology of the paper's Figure 3 worked
// example: vertices A=0, B=1, C=2, every link capacity 2.
func Triangle() *Graph {
	g := New(3)
	g.MustAddEdge(0, 1, 2)
	g.MustAddEdge(1, 0, 2)
	g.MustAddEdge(0, 2, 2)
	g.MustAddEdge(2, 0, 2)
	g.MustAddEdge(1, 2, 2)
	g.MustAddEdge(2, 1, 2)
	return g
}
