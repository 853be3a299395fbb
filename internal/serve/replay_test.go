package serve

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"figret/internal/graph"
	"figret/internal/netsim"
	"figret/internal/te"
	"figret/internal/traffic"
)

// TestReplayDelayWithWarming holds Replay to its rule: the decision
// answered after snapshot s serves from interval s+1+Delay until a newer
// one lands, and a warming answer changes nothing — the interval it
// would have taken keeps the configuration before it. The fake post
// answers each snapshot with its own random split, so every interval's
// fluid result names the configuration that served it.
func TestReplayDelayWithWarming(t *testing.T) {
	ps, err := te.NewPathSet(graph.PoDDB(), 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	const T = 12
	tr, err := traffic.DC(traffic.PoDDB, 4, T, 5)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	cfgs := make([]*te.Config, T)
	for s := range cfgs {
		cfgs[s] = te.NewConfig(ps)
		for _, pp := range ps.PairPaths {
			var sum float64
			for _, p := range pp {
				cfgs[s].R[p] = rng.Float64() + 0.1
				sum += cfgs[s].R[p]
			}
			for _, p := range pp {
				cfgs[s].R[p] /= sum
			}
		}
	}
	for _, tc := range []struct {
		delay   int
		warming []int
	}{
		{1, []int{4}},
		{2, []int{4}},
		{1, []int{0, 1, 2}},
		{2, []int{0, 1, 2}},
		{1, []int{3, 4, 8}},
		{2, []int{3, 4, 8}},
		{0, []int{4, 5}},
	} {
		t.Run(fmt.Sprintf("delay%d_warming%v", tc.delay, tc.warming), func(t *testing.T) {
			warm := make([]bool, T)
			for _, s := range tc.warming {
				warm[s] = true
			}
			next := 0
			post := func([]float64) (*RoutingResponse, error) {
				s := next
				next++
				if warm[s] {
					return &RoutingResponse{Snapshot: int64(s), Warming: true}, nil
				}
				return &RoutingResponse{Snapshot: int64(s), Version: 1, Ratios: cfgs[s].R}, nil
			}
			res, err := Replay(post, ps, tr, ReplayOptions{Delay: tc.delay})
			if err != nil {
				t.Fatal(err)
			}
			for at := 0; at < T; at++ {
				want, from := te.UniformConfig(ps), -1
				for s := at - 1 - tc.delay; s >= 0; s-- {
					if !warm[s] {
						want, from = cfgs[s], s
						break
					}
				}
				sim, err := netsim.Simulate(want, tr.At(at))
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(sim, res.PerInterval[at]) {
					t.Fatalf("interval %d not served by the decision after snapshot %d (-1: uniform)", at, from)
				}
			}
		})
	}
}
