// Package netsim is a fluid-level network simulator used to validate the
// paper's premise that MLU is "a reasonable proxy metric for throughput as
// well as for resilience against traffic pattern variation" (§3, quoting
// Google's Jupiter experience): given a topology, a TE configuration and a
// demand matrix, it computes per-pair delivered throughput, loss and a
// queueing-delay proxy under proportional fair sharing of overloaded links.
//
// The model is deliberately simple and deterministic:
//
//   - each (pair, path) flow offers d_pair · r_p;
//   - an overloaded link (load > capacity) delivers each crossing flow the
//     fraction capacity/load of its arrival rate (proportional sharing);
//   - flows traverse links in path order, so loss upstream reduces load
//     downstream; the fixed point is computed by sweeping until loads
//     stabilize;
//   - the delay proxy of a link is 1/(1−u) for utilization u < 1 (M/M/1
//     shape), clamped at MaxDelayFactor for saturated links.
package netsim

import (
	"fmt"
	"math"

	"figret/internal/te"
)

// MaxDelayFactor caps the per-link M/M/1 delay proxy for links at or beyond
// capacity.
const MaxDelayFactor = 100.0

// Result summarizes one simulated interval.
type Result struct {
	// Offered and Delivered are total traffic volumes.
	Offered, Delivered float64
	// LossRate = 1 − Delivered/Offered (0 when nothing is offered).
	LossRate float64
	// PairDelivered[i] is pair i's delivered volume.
	PairDelivered []float64
	// MLU is the max link utilization of the *offered* load (the quantity
	// TE optimizes).
	MLU float64
	// MeanDelay is the demand-weighted average of path delay proxies.
	MeanDelay float64
	// MaxLinkLoss is the highest per-link drop fraction.
	MaxLinkLoss float64
}

// Simulate runs the fluid model for demand d under configuration cfg.
func Simulate(cfg *te.Config, d []float64) (*Result, error) {
	ps := cfg.PathSet()
	if len(d) != ps.Pairs.Count() {
		return nil, fmt.Errorf("netsim: demand has %d entries, want %d", len(d), ps.Pairs.Count())
	}
	ne := ps.G.NumEdges()

	// Offered per-flow rates (flow = path with positive ratio and demand).
	type flow struct {
		path int
		rate float64
	}
	var flows []flow
	var offered float64
	for p, r := range cfg.R {
		if r <= 0 {
			continue
		}
		dp := d[ps.PairOf[p]]
		if dp <= 0 {
			continue
		}
		flows = append(flows, flow{path: p, rate: dp * r})
		offered += dp * r
	}

	// MLU of offered load.
	res := &Result{
		Offered:       offered,
		PairDelivered: make([]float64, ps.Pairs.Count()),
	}
	mlu, _ := ps.MLU(d, cfg.R)
	res.MLU = mlu
	if offered == 0 {
		return res, nil
	}

	// Fixed point of per-link pass fractions: start from pass=1 everywhere,
	// recompute link loads with upstream losses applied, update pass
	// fractions, repeat.
	pass := make([]float64, ne)
	for e := range pass {
		pass[e] = 1
	}
	load := make([]float64, ne)
	for iter := 0; iter < 50; iter++ {
		for e := range load {
			load[e] = 0
		}
		for _, f := range flows {
			rate := f.rate
			for _, e := range ps.PathEdges(f.path) {
				load[e] += rate
				rate *= pass[e]
			}
		}
		maxChange := 0.0
		for e := range pass {
			want := 1.0
			if c := ps.G.Edge(e).Capacity; load[e] > c {
				want = c / load[e]
			}
			if ch := math.Abs(want - pass[e]); ch > maxChange {
				maxChange = ch
			}
			pass[e] = want
		}
		if maxChange < 1e-9 {
			break
		}
	}

	// Delivered volume, delay proxies and per-link loss.
	var weightedDelay float64
	for _, f := range flows {
		rate := f.rate
		delay := 0.0
		for _, e := range ps.PathEdges(f.path) {
			u := load[e] / ps.G.Edge(int(e)).Capacity
			if u >= 1 {
				delay += MaxDelayFactor
			} else {
				delay += 1 / (1 - u)
			}
			rate *= pass[e]
		}
		res.Delivered += rate
		res.PairDelivered[ps.PairOf[f.path]] += rate
		weightedDelay += f.rate * delay
	}
	res.LossRate = 1 - res.Delivered/res.Offered
	if res.LossRate < 0 {
		res.LossRate = 0
	}
	res.MeanDelay = weightedDelay / res.Offered
	for e := range pass {
		if l := 1 - pass[e]; l > res.MaxLinkLoss {
			res.MaxLinkLoss = l
		}
	}
	return res, nil
}
