package graph

import (
	"math/rand"
	"sort"
	"testing"
)

// enumerateSimplePaths returns every simple path from src to dst by DFS.
func enumerateSimplePaths(g *Graph, src, dst int) []Path {
	var out []Path
	visited := make([]bool, g.NumVertices())
	var cur Path
	var dfs func(v int)
	dfs = func(v int) {
		visited[v] = true
		cur = append(cur, v)
		if v == dst {
			out = append(out, cur.Clone())
		} else {
			for _, ei := range g.out[v] {
				w := g.Edge(ei).To
				if !visited[w] {
					dfs(w)
				}
			}
		}
		visited[v] = false
		cur = cur[:len(cur)-1]
	}
	dfs(src)
	return out
}

// TestYenMatchesBruteForce verifies, on random small graphs, that Yen's
// K-shortest paths are exactly the K cheapest simple paths found by
// exhaustive enumeration.
func TestYenMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 12; trial++ {
		n := 5 + rng.Intn(3)
		g := New(n)
		// Random connected-ish graph: ring + random chords.
		for i := 0; i < n; i++ {
			g.MustAddEdge(i, (i+1)%n, 1+rng.Float64())
			g.MustAddEdge((i+1)%n, i, 1+rng.Float64())
		}
		for extra := 0; extra < n; extra++ {
			a, b := rng.Intn(n), rng.Intn(n)
			if a == b {
				continue
			}
			if _, ok := g.EdgeID(a, b); ok {
				continue
			}
			g.MustAddEdge(a, b, 1+rng.Float64())
		}
		src := rng.Intn(n)
		dst := rng.Intn(n - 1)
		if dst >= src {
			dst++
		}
		for _, k := range []int{1, 3, 5} {
			yen := g.KShortestPaths(src, dst, k, HopWeight)
			all := enumerateSimplePaths(g, src, dst)
			sort.Slice(all, func(i, j int) bool {
				if len(all[i]) != len(all[j]) {
					return len(all[i]) < len(all[j])
				}
				return lessPath(all[i], all[j])
			})
			want := k
			if want > len(all) {
				want = len(all)
			}
			if len(yen) != want {
				t.Fatalf("trial %d k=%d: yen found %d paths, brute force %d (of %d total)",
					trial, k, len(yen), want, len(all))
			}
			// Compare hop-count multisets (exact path identity can differ
			// on ties, cost must match).
			for i := 0; i < want; i++ {
				if len(yen[i]) != len(all[i]) {
					t.Fatalf("trial %d k=%d rank %d: yen cost %d, brute force %d",
						trial, k, i, len(yen[i])-1, len(all[i])-1)
				}
			}
		}
	}
}
