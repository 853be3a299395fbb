package lp

import (
	"fmt"
	"math"

	"figret/internal/te"
)

// This file builds the TE linear programs of the paper on top of the simplex
// solver. Variable layout for all of them: x[0..P-1] are the per-path split
// ratios r_p, x[P] is the MLU variable θ.
//
//	minimize θ
//	s.t.  Σ_{p∈P_sd} r_p = 1                      (per SD pair)
//	      Σ_{p∋e} D_{sd(p)}·r_p − θ·c_e ≤ 0       (per edge)
//	      r_p ≤ cap_p                             (optional sensitivity caps)
//
// which is Appendix B's formulation plus Equation (4)'s constraints.

// MLUMin solves the exact MLU-minimizing TE configuration for demand d
// (the Omniscient baseline when d is the true demand, the
// demand-prediction baseline when d is a prediction).
func MLUMin(ps *te.PathSet, d []float64) (*te.Config, float64, error) {
	return MLUMinCapped(ps, d, nil)
}

// MLUMinCapped solves MLU minimization with optional per-path upper bounds
// caps (caps[p] bounds r_p; pass nil for none, math.Inf(1) entries are
// skipped). This implements the desensitization-based TE of [37,44] when
// caps[p] = F·C_p with constant F, and the fine-grained Appendix C variants
// when caps vary per SD pair.
func MLUMinCapped(ps *te.PathSet, d []float64, caps []float64) (*te.Config, float64, error) {
	if len(d) != ps.Pairs.Count() {
		return nil, 0, fmt.Errorf("lp: demand has %d entries, want %d", len(d), ps.Pairs.Count())
	}
	if caps != nil && len(caps) != ps.NumPaths() {
		return nil, 0, fmt.Errorf("lp: caps has %d entries, want %d", len(caps), ps.NumPaths())
	}
	P := ps.NumPaths()
	nv := P + 1
	theta := P
	var A [][]float64
	var B []float64
	var S []Sense

	// Pair conservation: Σ r_p = 1.
	for _, pp := range ps.PairPaths {
		row := make([]float64, nv)
		for _, p := range pp {
			row[p] = 1
		}
		A = append(A, row)
		B = append(B, 1)
		S = append(S, EQ)
	}
	// Edge utilization: Σ_p∋e d·r_p − c_e·θ ≤ 0.
	ne := ps.G.NumEdges()
	edgeRows := make([][]float64, ne)
	for e := 0; e < ne; e++ {
		row := make([]float64, nv)
		row[theta] = -ps.G.Edge(e).Capacity
		edgeRows[e] = row
	}
	for p, pi := range ps.PairOf {
		dp := d[pi]
		if dp == 0 {
			continue
		}
		for _, e := range ps.PathEdges(p) {
			edgeRows[e][p] += dp
		}
	}
	for e := 0; e < ne; e++ {
		A = append(A, edgeRows[e])
		B = append(B, 0)
		S = append(S, LE)
	}
	// Sensitivity caps.
	if caps != nil {
		for p, c := range caps {
			if math.IsInf(c, 1) {
				continue
			}
			if c < 0 {
				return nil, 0, fmt.Errorf("lp: negative cap %v on path %d", c, p)
			}
			row := make([]float64, nv)
			row[p] = 1
			A = append(A, row)
			B = append(B, c)
			S = append(S, LE)
		}
	}
	c := make([]float64, nv)
	c[theta] = 1
	x, obj, err := Solve(&Problem{C: c, A: A, B: B, S: S})
	if err != nil {
		return nil, 0, err
	}
	// Normalize away any numerical slack from the solver before wrapping.
	cfg := configFromRaw(ps, x[:P])
	return cfg, obj, nil
}

func configFromRaw(ps *te.PathSet, raw []float64) *te.Config {
	c := te.NewConfig(ps)
	copy(c.R, raw)
	c.Normalize()
	return c
}

// SensitivityCaps converts a per-pair sensitivity bound function F into
// per-path ratio caps cap_p = F(sd)·C_p (Equation 4: r_p/C_p ≤ F(s,d) ⇔
// r_p ≤ F(s,d)·C_p). Capacities are normalized so the topology's minimum
// equals 1, matching the paper's parameter conventions in Appendix C.
// Bounds are sanitized so every pair stays feasible: if a pair's caps sum
// to < 1 they are scaled up to sum to exactly 1.
func SensitivityCaps(ps *te.PathSet, f func(pair int) float64) []float64 {
	minCap := ps.G.MinCapacity()
	if minCap <= 0 {
		minCap = 1
	}
	caps := make([]float64, ps.NumPaths())
	for p := range caps {
		bound := f(ps.PairOf[p])
		if math.IsInf(bound, 1) {
			caps[p] = math.Inf(1)
			continue
		}
		caps[p] = bound * ps.Cap[p] / minCap
	}
	for _, pp := range ps.PairPaths {
		sum := 0.0
		inf := false
		for _, p := range pp {
			if math.IsInf(caps[p], 1) {
				inf = true
				break
			}
			sum += caps[p]
		}
		if inf || sum >= 1 {
			continue
		}
		scale := 1 / sum * (1 + 1e-9)
		for _, p := range pp {
			caps[p] *= scale
		}
	}
	return caps
}

// ConstantF returns the desensitization-based TE's constant sensitivity
// bound (Google Jupiter hedging): F(s,d) ≡ bound for every pair.
func ConstantF(bound float64) func(pair int) float64 {
	return func(int) float64 { return bound }
}

// LinearF implements the Appendix C.1 heuristic: pairs are ordered by
// historical traffic variance; the allowed sensitivity decreases linearly
// from max (most stable pair) to min (most bursty pair).
func LinearF(variances []float64, min, max float64) func(pair int) float64 {
	order := rankOf(variances)
	n := float64(len(variances) - 1)
	return func(pair int) float64 {
		if n <= 0 {
			return max
		}
		frac := float64(order[pair]) / n // 0 = most stable
		return max - frac*(max-min)
	}
}

// PiecewiseF implements the Appendix C.2 heuristic: pairs below the
// breakpoint quantile of the variance ordering get the loose bound max,
// pairs above it get the tight bound min.
func PiecewiseF(variances []float64, min, max, breakpoint float64) func(pair int) float64 {
	order := rankOf(variances)
	n := float64(len(variances))
	return func(pair int) float64 {
		if float64(order[pair]) < breakpoint*n {
			return max
		}
		return min
	}
}

// rankOf returns each element's rank (0 = smallest) in ascending order.
func rankOf(xs []float64) []int {
	idx := make([]int, len(xs))
	for i := range idx {
		idx[i] = i
	}
	// Insertion sort by value for determinism (n is pair count; fine for the
	// sizes LP handles).
	for i := 1; i < len(idx); i++ {
		for j := i; j > 0 && xs[idx[j]] < xs[idx[j-1]]; j-- {
			idx[j], idx[j-1] = idx[j-1], idx[j]
		}
	}
	rank := make([]int, len(xs))
	for r, i := range idx {
		rank[i] = r
	}
	return rank
}

// FaultAwareMLUMin solves MLU minimization restricted to the paths that
// survive the failure set: failed paths are forced to ratio 0 (the "FA Des
// TE" oracle of §5.3 when combined with caps). Pairs with no surviving path
// make the problem infeasible.
func FaultAwareMLUMin(ps *te.PathSet, d []float64, fs *te.FailureSet, caps []float64) (*te.Config, float64, error) {
	adjusted := make([]float64, ps.NumPaths())
	if caps != nil {
		copy(adjusted, caps)
	} else {
		for p := range adjusted {
			adjusted[p] = math.Inf(1)
		}
	}
	for p := range adjusted {
		if fs.PathDown(ps, p) {
			adjusted[p] = 0
		}
	}
	return MLUMinCapped(ps, d, adjusted)
}
