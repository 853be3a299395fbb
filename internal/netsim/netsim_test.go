package netsim

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"figret/internal/graph"
	"figret/internal/te"
	"figret/internal/traffic"
)

func triangleSetup(t *testing.T) (*te.PathSet, *te.Config) {
	t.Helper()
	ps, err := te.NewPathSet(graph.Triangle(), 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	return ps, te.NewConfig(ps)
}

func demand(ps *te.PathSet, ab, ac, bc float64) []float64 {
	d := make([]float64, ps.Pairs.Count())
	d[ps.Pairs.Index(0, 1)] = ab
	d[ps.Pairs.Index(0, 2)] = ac
	d[ps.Pairs.Index(1, 2)] = bc
	return d
}

func TestNoLossBelowCapacity(t *testing.T) {
	ps, cfg := triangleSetup(t)
	d := demand(ps, 1, 1, 1) // direct paths, capacity 2 each
	res, err := Simulate(cfg, d)
	if err != nil {
		t.Fatal(err)
	}
	if res.LossRate != 0 {
		t.Errorf("loss = %v below capacity", res.LossRate)
	}
	if math.Abs(res.Delivered-res.Offered) > 1e-9 {
		t.Errorf("delivered %v != offered %v", res.Delivered, res.Offered)
	}
	if math.Abs(res.MLU-0.5) > 1e-9 {
		t.Errorf("MLU = %v", res.MLU)
	}
	if res.MeanDelay < 1 {
		t.Errorf("delay proxy %v below 1", res.MeanDelay)
	}
}

func TestProportionalLossWhenOverloaded(t *testing.T) {
	ps, cfg := triangleSetup(t)
	// A->B demand 4 on a capacity-2 link: half must be dropped.
	d := demand(ps, 4, 0, 0)
	res, err := Simulate(cfg, d)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.LossRate-0.5) > 1e-9 {
		t.Errorf("loss = %v, want 0.5", res.LossRate)
	}
	if math.Abs(res.PairDelivered[ps.Pairs.Index(0, 1)]-2) > 1e-9 {
		t.Errorf("delivered = %v, want 2", res.PairDelivered[ps.Pairs.Index(0, 1)])
	}
	if math.Abs(res.MaxLinkLoss-0.5) > 1e-9 {
		t.Errorf("max link loss = %v", res.MaxLinkLoss)
	}
	if res.MLU != 2 {
		t.Errorf("offered MLU = %v, want 2", res.MLU)
	}
}

func TestUpstreamLossReducesDownstreamLoad(t *testing.T) {
	// Chain 0->1->2 where the first hop is the bottleneck: the second hop
	// sees only the surviving traffic and drops nothing.
	g := graph.New(3)
	g.MustAddEdge(0, 1, 1)
	g.MustAddEdge(1, 0, 1)
	g.MustAddEdge(1, 2, 2)
	g.MustAddEdge(2, 1, 2)
	ps, err := te.NewPathSet(g, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	cfg := te.NewConfig(ps)
	d := make([]float64, ps.Pairs.Count())
	d[ps.Pairs.Index(0, 2)] = 3 // path 0->1->2, bottleneck cap 1
	res, err := Simulate(cfg, d)
	if err != nil {
		t.Fatal(err)
	}
	want := 1.0 // only 1 unit passes hop 1; hop 2 has headroom
	if math.Abs(res.PairDelivered[ps.Pairs.Index(0, 2)]-want) > 1e-6 {
		t.Errorf("delivered %v, want %v", res.PairDelivered[ps.Pairs.Index(0, 2)], want)
	}
	// Loss must be attributed to the first hop only.
	if math.Abs(res.MaxLinkLoss-(1-1.0/3)) > 1e-6 {
		t.Errorf("max link loss %v", res.MaxLinkLoss)
	}
}

func TestZeroDemand(t *testing.T) {
	ps, cfg := triangleSetup(t)
	res, err := Simulate(cfg, make([]float64, ps.Pairs.Count()))
	if err != nil {
		t.Fatal(err)
	}
	if res.Offered != 0 || res.LossRate != 0 || res.MLU != 0 {
		t.Errorf("zero demand result %+v", res)
	}
}

func TestSimulateValidation(t *testing.T) {
	ps, cfg := triangleSetup(t)
	_ = ps
	if _, err := Simulate(cfg, []float64{1}); err == nil {
		t.Error("wrong demand size accepted")
	}
}

// Property: delivered <= offered, per-pair delivered <= per-pair offered,
// and loss is 0 iff MLU <= 1 (within tolerance).
func TestConservationProperty(t *testing.T) {
	ps, err := te.NewPathSet(graph.GEANT(), 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		cfg := te.NewConfig(ps)
		for i := range cfg.R {
			cfg.R[i] = rng.Float64()
		}
		cfg.Normalize()
		d := make([]float64, ps.Pairs.Count())
		for i := range d {
			d[i] = rng.Float64() * 3
		}
		res, err := Simulate(cfg, d)
		if err != nil {
			return false
		}
		if res.Delivered > res.Offered+1e-9 {
			return false
		}
		for pi, v := range res.PairDelivered {
			if v > d[pi]+1e-9 {
				return false
			}
		}
		if res.MLU <= 1 && res.LossRate > 1e-9 {
			return false
		}
		if res.MLU > 1.01 && res.LossRate == 0 {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

func TestMLUCorrelatesWithLoss(t *testing.T) {
	// The §3 premise: across overload levels, higher MLU means more loss
	// and delay.
	ps, cfg := triangleSetup(t)
	var mlus, losses, delays []float64
	for _, scale := range []float64{0.5, 1, 2, 4, 8} {
		d := demand(ps, scale, scale, scale)
		res, err := Simulate(cfg, d)
		if err != nil {
			t.Fatal(err)
		}
		mlus = append(mlus, res.MLU)
		losses = append(losses, res.LossRate)
		delays = append(delays, res.MeanDelay)
	}
	if c := traffic.Pearson(mlus, losses); c < 0.8 {
		t.Errorf("MLU/loss correlation %v too weak", c)
	}
	if c := traffic.Pearson(mlus, delays); c < 0.6 {
		t.Errorf("MLU/delay correlation %v too weak", c)
	}
}

func TestHedgingReducesSimulatedLoss(t *testing.T) {
	// End-to-end tie-in with the TE story: under a burst, the spread config
	// loses less traffic than the all-direct config.
	ps, direct := triangleSetup(t)
	spread := te.UniformConfig(ps)
	d := demand(ps, 4, 1, 1) // burst on A->B
	rd, err := Simulate(direct, d)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := Simulate(spread, d)
	if err != nil {
		t.Fatal(err)
	}
	if rs.LossRate >= rd.LossRate {
		t.Errorf("spread loss %v not below direct loss %v", rs.LossRate, rd.LossRate)
	}
}
