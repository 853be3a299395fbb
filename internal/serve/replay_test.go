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
// would have taken keeps the configuration before it. The uniform split
// serves until the first decision lands, a replay from From > 0 posts
// no snapshot before From, and a negative Delay is refused before any
// post. The fake post answers each snapshot with its own random split,
// so every interval's fluid result names the configuration that served
// it.
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
		from, delay int
		warming     []int
	}{
		{0, 1, []int{4}},
		{0, 2, []int{4}},
		{0, 1, []int{0, 1, 2}},
		{0, 2, []int{0, 1, 2}},
		{0, 1, []int{3, 4, 8}},
		{0, 2, []int{3, 4, 8}},
		{0, 0, []int{4, 5}},
		// The closed-loop scenario's shape: the stream starts past
		// snapshot 0 and its first decisions are warming.
		{5, 1, []int{5, 6}},
		{0, -1, nil},
	} {
		name := fmt.Sprintf("delay%d_warming%v", tc.delay, tc.warming)
		if tc.from > 0 {
			name = fmt.Sprintf("from%d_%s", tc.from, name)
		}
		t.Run(name, func(t *testing.T) {
			warm := make([]bool, T)
			for _, s := range tc.warming {
				warm[s] = true
			}
			var posted []int
			post := func(demand []float64) (*RoutingResponse, error) {
				s := 0
				for s < T && !reflect.DeepEqual(demand, tr.At(s)) {
					s++
				}
				posted = append(posted, s)
				if s == T {
					return nil, fmt.Errorf("posted demand is no snapshot of the trace")
				}
				if warm[s] {
					return &RoutingResponse{Snapshot: int64(s), Warming: true}, nil
				}
				return &RoutingResponse{Snapshot: int64(s), Version: 1, Ratios: cfgs[s].R}, nil
			}
			res, err := Replay(post, ps, tr, ReplayOptions{From: tc.from, Delay: tc.delay})
			if tc.delay < 0 {
				if err == nil || len(posted) > 0 {
					t.Fatalf("negative delay: err %v after %d posts, want an error before any post", err, len(posted))
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			for i, s := range posted {
				if s != tc.from+i {
					t.Fatalf("post %d streamed snapshot %d, want %d", i, s, tc.from+i)
				}
			}
			if len(posted) != T-tc.from || len(res.Decisions) != T-tc.from || len(res.PerInterval) != T-tc.from {
				t.Fatalf("%d posts, %d decisions, %d intervals; want %d of each",
					len(posted), len(res.Decisions), len(res.PerInterval), T-tc.from)
			}
			for i, d := range res.Decisions {
				if s := tc.from + i; !warm[s] {
					if err := checkDecision(ps, d.Ratios, nil, cfgs[s].R); err != nil {
						t.Fatalf("decision after snapshot %d: %v", s, err)
					}
				}
			}
			for at := tc.from; at < T; at++ {
				want, from := te.UniformConfig(ps), -1
				for s := at - 1 - tc.delay; s >= tc.from; s-- {
					if !warm[s] {
						want, from = cfgs[s], s
						break
					}
				}
				sim, err := netsim.Simulate(want, tr.At(at))
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(sim, res.PerInterval[at-tc.from]) {
					t.Fatalf("interval %d not served by the decision after snapshot %d (-1: uniform)", at, from)
				}
			}
		})
	}
}
