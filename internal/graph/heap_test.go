package graph

import (
	"container/heap"
	"math"
	"math/rand"
	"testing"
)

// refHeap is pq behind container/heap's interface: the heap Dijkstra used
// before pq got its own push and pop.
type refHeap []pqItem

func (q refHeap) Len() int           { return len(q) }
func (q refHeap) Less(i, j int) bool { return q[i].dist < q[j].dist }
func (q refHeap) Swap(i, j int)      { q[i], q[j] = q[j], q[i] }
func (q *refHeap) Push(x any)        { *q = append(*q, x.(pqItem)) }
func (q *refHeap) Pop() any {
	old := *q
	it := old[len(old)-1]
	*q = old[:len(old)-1]
	return it
}

// TestHeapPopsLikeContainerHeap drives random interleaved pushes and pops
// through pq and through container/heap and requires the same item, to
// the bit, at every pop. dist takes a handful of values, NaN and ±Inf
// among them, so that most comparisons are ties: the order ties leave
// the heap in is what Dijkstra's pop sequence, and so the candidate
// paths, rest on.
func TestHeapPopsLikeContainerHeap(t *testing.T) {
	dists := []float64{0, 1, 1, 2, 3, math.NaN(), math.Inf(1), math.Inf(-1), -0.0}
	rng := rand.New(rand.NewSource(39))
	for trial := 0; trial < 200; trial++ {
		var got pq
		var want refHeap
		pushBias := 0.3 + 0.4*rng.Float64()
		for op := 0; op < 400; op++ {
			if len(got) == 0 || rng.Float64() < pushBias {
				it := pqItem{v: rng.Intn(1000), dist: dists[rng.Intn(len(dists))]}
				got.push(it)
				heap.Push(&want, it)
				continue
			}
			g, w := got.pop(), heap.Pop(&want).(pqItem)
			if g.v != w.v || math.Float64bits(g.dist) != math.Float64bits(w.dist) {
				t.Fatalf("trial %d op %d: pq popped (%d, %v), container/heap (%d, %v)",
					trial, op, g.v, g.dist, w.v, w.dist)
			}
			if len(got) != len(want) {
				t.Fatalf("trial %d op %d: pq holds %d items, container/heap %d", trial, op, len(got), len(want))
			}
		}
	}
}
