package graph

import (
	"encoding/binary"
	"hash/fnv"
	"testing"
)

// pathSetHash is a content hash of the K-shortest candidate paths of every
// ordered pair of g, in (s, d) order: per pair its path count, then per path
// its length and vertices, each as a little-endian uint32, so the hash is the
// same on every word size.
func pathSetHash(g *Graph, k int) uint64 {
	h := fnv.New64a()
	var buf [4]byte
	put := func(v int) {
		binary.LittleEndian.PutUint32(buf[:], uint32(v))
		h.Write(buf[:])
	}
	ys := NewYenSolver(g)
	n := g.NumVertices()
	for s := 0; s < n; s++ {
		for d := 0; d < n; d++ {
			if s == d {
				continue
			}
			paths := ys.KShortestPaths(s, d, k, HopWeight)
			put(len(paths))
			for _, p := range paths {
				put(len(p))
				for _, v := range p {
					put(v)
				}
			}
		}
	}
	return h.Sum64()
}

// TestPinnedCandidatePaths pins the K=3 candidate paths of the nine
// fast-scale substrates of the scenario suite, path for path and in order.
// The graphs are those experiments.NewEnv builds at the fast scale. A
// change to Dijkstra, its heap or Yen that moves any path, or reorders a
// pair's paths, moves its topology's hash; the hashes were computed before
// the heap became a typed one and must never move without a reason.
func TestPinnedCandidatePaths(t *testing.T) {
	mustGraph := func(g *Graph, err error) *Graph {
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	for _, c := range []struct {
		topo string
		g    *Graph
		want uint64
	}{
		{TopoGEANT, GEANT(), 0x47d3a4f05921b49a},
		{TopoUsCarrier, mustGraph(RingWithChords(30, 38, 10, 1581)), 0x762fc03d1f99397a},
		{TopoCogentco, mustGraph(RingWithChords(36, 45, 10, 1971)), 0xff13cf06ecdd2264},
		{TopoPFabric, PFabric(), 0xcbe0bf2fe76e6de5},
		{TopoPoDDB, PoDDB(), 0xc88bbaae40d27cc5},
		{TopoPoDWEB, PoDWEB(), 0x915fcd7ab814c1c5},
		{TopoToRDB, mustGraph(RandomRegularish(20, 60, 10, 155)), 0x76bda732327b66ea},
		{TopoToRWEB, mustGraph(RandomRegularish(26, 91, 10, 324)), 0x54bcaa8020309800},
		{TopoLargeWAN, mustGraph(RingWithChords(44, 66, 10, 2201)), 0xee2860a7f4c51146},
	} {
		if got := pathSetHash(c.g, 3); got != c.want {
			t.Errorf("%s: candidate paths moved: hash %#016x, pinned %#016x", c.topo, got, c.want)
		}
	}
}
