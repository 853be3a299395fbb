package graph

import (
	"fmt"
	"testing"
)

// TestYenSolverReuseMatchesFresh pins the YenSolver scratch-reuse contract:
// one solver queried across every SD pair returns exactly what a fresh
// Graph.KShortestPaths call returns for each pair.
func TestYenSolverReuseMatchesFresh(t *testing.T) {
	g, err := RingWithChords(30, 45, 10, 7)
	if err != nil {
		t.Fatal(err)
	}
	ys := NewYenSolver(g)
	for s := 0; s < g.NumVertices(); s++ {
		for d := 0; d < g.NumVertices(); d++ {
			if s == d {
				continue
			}
			got := ys.KShortestPaths(s, d, 3, HopWeight)
			want := g.KShortestPaths(s, d, 3, HopWeight)
			if len(got) != len(want) {
				t.Fatalf("(%d,%d): %d paths reused vs %d fresh", s, d, len(got), len(want))
			}
			for i := range got {
				if !got[i].Equal(want[i]) {
					t.Fatalf("(%d,%d) path %d: reused %v vs fresh %v", s, d, i, got[i], want[i])
				}
			}
		}
	}
}

// TestYenSolverResultsDoNotAlias ensures returned paths own their storage:
// a later query on the same solver must not mutate earlier results.
func TestYenSolverResultsDoNotAlias(t *testing.T) {
	g := Triangle()
	ys := NewYenSolver(g)
	first := ys.KShortestPaths(0, 1, 3, HopWeight)
	snapshot := make([]Path, len(first))
	for i, p := range first {
		snapshot[i] = p.Clone()
	}
	for s := 0; s < 3; s++ {
		for d := 0; d < 3; d++ {
			if s != d {
				ys.KShortestPaths(s, d, 3, HopWeight)
			}
		}
	}
	for i, p := range first {
		if !p.Equal(snapshot[i]) {
			t.Fatalf("path %d mutated by later queries: %v -> %v", i, snapshot[i], p)
		}
	}
}

// TestKShortestPathsFewerThanK covers graphs with fewer than k simple
// paths: the result holds every simple path exactly once, sorted, and never
// pads to k.
func TestKShortestPathsFewerThanK(t *testing.T) {
	// A 4-vertex line has exactly one simple path per pair.
	line := New(4)
	for i := 0; i < 3; i++ {
		if err := line.AddLink(i, i+1, 1); err != nil {
			t.Fatal(err)
		}
	}
	got := line.KShortestPaths(0, 3, 3, HopWeight)
	if len(got) != 1 {
		t.Fatalf("line graph: got %d paths, want 1: %v", len(got), got)
	}
	if !got[0].Equal(Path{0, 1, 2, 3}) {
		t.Fatalf("line graph path = %v", got[0])
	}

	// A triangle has exactly two simple paths per pair, for any k >= 2.
	tri := Triangle()
	for _, k := range []int{2, 3, 10} {
		got := tri.KShortestPaths(0, 1, k, HopWeight)
		if len(got) != 2 {
			t.Fatalf("triangle k=%d: got %d paths, want 2: %v", k, len(got), got)
		}
		if !got[0].Equal(Path{0, 1}) || !got[1].Equal(Path{0, 2, 1}) {
			t.Fatalf("triangle k=%d paths = %v", k, got)
		}
	}

	seen := map[string]bool{}
	for _, p := range tri.KShortestPaths(0, 1, 10, HopWeight) {
		if !p.isSimple() {
			t.Errorf("non-simple path %v", p)
		}
		key := fmt.Sprint(p)
		if seen[key] {
			t.Errorf("duplicate path %v", p)
		}
		seen[key] = true
	}
}

func TestContentHashProperties(t *testing.T) {
	a := GEANT()
	if a.ContentHash() != GEANT().ContentHash() {
		t.Error("identical topologies hash differently")
	}
	// Insertion order must not matter.
	fwd := New(3)
	fwd.MustAddEdge(0, 1, 2)
	fwd.MustAddEdge(1, 2, 3)
	rev := New(3)
	rev.MustAddEdge(1, 2, 3)
	rev.MustAddEdge(0, 1, 2)
	if fwd.ContentHash() != rev.ContentHash() {
		t.Error("edge insertion order changed the content hash")
	}
	// Capacity, edge set and vertex count must all matter.
	capChanged := New(3)
	capChanged.MustAddEdge(0, 1, 2)
	capChanged.MustAddEdge(1, 2, 4)
	if fwd.ContentHash() == capChanged.ContentHash() {
		t.Error("capacity change not reflected in hash")
	}
	moreVerts := New(4)
	moreVerts.MustAddEdge(0, 1, 2)
	moreVerts.MustAddEdge(1, 2, 3)
	if fwd.ContentHash() == moreVerts.ContentHash() {
		t.Error("vertex count not reflected in hash")
	}
}

func TestLargeWANShape(t *testing.T) {
	g := LargeWAN()
	if g.NumVertices() != 220 || g.NumEdges() != 660 {
		t.Fatalf("LargeWAN = %d vertices / %d edges, want 220/660", g.NumVertices(), g.NumEdges())
	}
	if !g.connected() {
		t.Fatal("LargeWAN disconnected")
	}
	byName, err := ByName(TopoLargeWAN)
	if err != nil {
		t.Fatal(err)
	}
	if byName.ContentHash() != g.ContentHash() {
		t.Fatal("ByName(large-wan) differs from LargeWAN()")
	}
}
