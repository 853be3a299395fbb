package graph

import (
	"crypto/sha256"
	"encoding/binary"
	"math"
)

// This file holds the graph's content address. Topologies are built in code
// (topologies.go); there is no topology file format.

// ContentHash returns a SHA-256 digest of the graph's content: the vertex
// count plus every edge's (From, To, Capacity), hashed in sorted (From, To)
// order so the digest is independent of edge insertion order. Two graphs
// hash equal iff they have the same vertices and the same capacitated edge
// set — the property te.PathStore uses to content-address cached candidate
// paths by topology.
func (g *Graph) ContentHash() [sha256.Size]byte {
	h := sha256.New()
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(g.n))
	h.Write(buf[:])
	for _, e := range g.SortedEdgeList() {
		binary.LittleEndian.PutUint64(buf[:], uint64(e.From))
		h.Write(buf[:])
		binary.LittleEndian.PutUint64(buf[:], uint64(e.To))
		h.Write(buf[:])
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(e.Capacity))
		h.Write(buf[:])
	}
	var out [sha256.Size]byte
	h.Sum(out[:0])
	return out
}
