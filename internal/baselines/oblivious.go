package baselines

import (
	"fmt"

	"figret/internal/lp"
	"figret/internal/te"
	"figret/internal/traffic"
)

// This file implements demand-oblivious TE [Applegate & Cohen 2003] and COPE
// [Wang et al. 2006] over a box-bounded demand uncertainty set, via a
// cutting-plane (adversarial best-response) loop:
//
//  1. Solve min_R max_{D in set} MLU(R, D) over a finite working set of
//     demand matrices (one LP with per-demand edge constraints).
//  2. Find the worst-case demand for the current R inside the box
//     [0, dmax_sd]^pairs. Because edge utilization is linear in D with
//     non-negative coefficients, the per-edge maximizer sets every
//     contributing demand to its upper bound, so the global worst case is
//     computable in closed form edge by edge.
//  3. If the worst case exceeds the working-set optimum, add it and repeat.
//
// COPE additionally keeps the recently observed demands in the working set
// at full weight while the box worst case is only enforced up to a penalty
// ratio, reproducing its "optimize predicted set, retain a worst-case
// guarantee" behavior.

// ObliviousConfig precomputes the oblivious routing configuration for the
// demand box [0, dmax]. dmax is typically the per-pair training peak.
func ObliviousConfig(ps *te.PathSet, dmax []float64, maxIters int) (*te.Config, float64, error) {
	return cuttingPlane(ps, nil, dmax, 1, maxIters)
}

// COPEConfig precomputes a COPE configuration: the working set starts from
// the observed demands (the "predicted set"); the box worst case is
// enforced only up to penaltyRatio times the predicted-set objective.
func COPEConfig(ps *te.PathSet, predicted [][]float64, dmax []float64, penaltyRatio float64, maxIters int) (*te.Config, float64, error) {
	if penaltyRatio < 1 {
		return nil, 0, fmt.Errorf("baselines: penalty ratio %v must be >= 1", penaltyRatio)
	}
	return cuttingPlane(ps, predicted, dmax, penaltyRatio, maxIters)
}

// cuttingPlane is the shared solver. Demands in `seed` are enforced at
// utilization <= θ; box worst cases are enforced at <= penaltyRatio·θ.
func cuttingPlane(ps *te.PathSet, seed [][]float64, dmax []float64, penaltyRatio float64, maxIters int) (*te.Config, float64, error) {
	if len(dmax) != ps.Pairs.Count() {
		return nil, 0, fmt.Errorf("baselines: dmax has %d entries, want %d", len(dmax), ps.Pairs.Count())
	}
	if maxIters <= 0 {
		maxIters = 12
	}
	working := make([][]float64, 0, len(seed)+maxIters)
	weights := make([]float64, 0, len(seed)+maxIters) // constraint slack: util <= w·θ
	for _, d := range seed {
		working = append(working, d)
		weights = append(weights, 1)
	}
	if len(working) == 0 {
		// Start from the box's corner demand.
		working = append(working, append([]float64(nil), dmax...))
		weights = append(weights, penaltyRatio)
	}

	var cfg *te.Config
	var obj float64
	for iter := 0; iter < maxIters; iter++ {
		var err error
		cfg, obj, err = solveMultiDemand(ps, working, weights)
		if err != nil {
			return nil, 0, err
		}
		worst, wMLU := worstBoxDemand(ps, cfg, dmax)
		// The worst box demand must satisfy util <= penaltyRatio·θ.
		if wMLU <= penaltyRatio*obj*(1+1e-6) {
			return cfg, obj, nil
		}
		working = append(working, worst)
		weights = append(weights, penaltyRatio)
	}
	return cfg, obj, nil
}

// solveMultiDemand solves
//
//	min θ  s.t. Σ r_p = 1 per pair;  util_e(D_i) ≤ w_i·θ  for all i, e.
func solveMultiDemand(ps *te.PathSet, demands [][]float64, weights []float64) (*te.Config, float64, error) {
	P := ps.NumPaths()
	nv := P + 1
	theta := P
	var A [][]float64
	var B []float64
	var S []lp.Sense
	for _, pp := range ps.PairPaths {
		row := make([]float64, nv)
		for _, p := range pp {
			row[p] = 1
		}
		A = append(A, row)
		B = append(B, 1)
		S = append(S, lp.EQ)
	}
	ne := ps.G.NumEdges()
	for di, d := range demands {
		rows := make([][]float64, ne)
		for e := 0; e < ne; e++ {
			row := make([]float64, nv)
			row[theta] = -weights[di] * ps.G.Edge(e).Capacity
			rows[e] = row
		}
		for p, pi := range ps.PairOf {
			dp := d[pi]
			if dp == 0 {
				continue
			}
			for _, e := range ps.PathEdges(p) {
				rows[e][p] += dp
			}
		}
		for e := 0; e < ne; e++ {
			A = append(A, rows[e])
			B = append(B, 0)
			S = append(S, lp.LE)
		}
	}
	c := make([]float64, nv)
	c[theta] = 1
	x, obj, err := lp.Solve(&lp.Problem{C: c, A: A, B: B, S: S})
	if err != nil {
		return nil, 0, err
	}
	cfg := te.NewConfig(ps)
	copy(cfg.R, x[:P])
	cfg.Normalize()
	return cfg, obj, nil
}

// worstBoxDemand returns the demand in [0, dmax] maximizing MLU under cfg,
// and that MLU. Utilization of edge e is Σ_pair coef_{e,pair}·d_pair with
// coef ≥ 0, so per edge the maximizer is d_pair = dmax_pair wherever
// coef > 0; the global maximizer is the best edge's choice.
func worstBoxDemand(ps *te.PathSet, cfg *te.Config, dmax []float64) ([]float64, float64) {
	ne := ps.G.NumEdges()
	k := ps.Pairs.Count()
	// coef[e*k+pair] accumulated sparsely via path traversal.
	coef := make([]float64, ne*k)
	for p, pair := range ps.PairOf {
		r := cfg.R[p]
		if r == 0 {
			continue
		}
		for _, e := range ps.PathEdges(p) {
			coef[int(e)*k+pair] += r
		}
	}
	bestE, bestU := -1, -1.0
	for e := 0; e < ne; e++ {
		u := 0.0
		row := coef[e*k : (e+1)*k]
		for pair, c := range row {
			if c > 0 {
				u += c * dmax[pair]
			}
		}
		u /= ps.G.Edge(e).Capacity
		if u > bestU {
			bestU, bestE = u, e
		}
	}
	worst := make([]float64, k)
	if bestE >= 0 {
		row := coef[bestE*k : (bestE+1)*k]
		for pair, c := range row {
			if c > 0 {
				worst[pair] = dmax[pair]
			}
		}
	}
	return worst, bestU
}

// PeakDemand returns the per-pair maximum over a trace, the usual dmax for
// the oblivious/COPE uncertainty box.
func PeakDemand(tr *traffic.Trace) []float64 {
	k := tr.Pairs.Count()
	out := make([]float64, k)
	for _, s := range tr.Snapshots {
		for i, v := range s {
			if v > out[i] {
				out[i] = v
			}
		}
	}
	return out
}

// RecentDemands returns the last n snapshots of a trace (deep-copied), the
// COPE "predicted set".
func RecentDemands(tr *traffic.Trace, n int) [][]float64 {
	if n > tr.Len() {
		n = tr.Len()
	}
	out := make([][]float64, 0, n)
	for i := tr.Len() - n; i < tr.Len(); i++ {
		out = append(out, append([]float64(nil), tr.At(i)...))
	}
	return out
}
