// Package solver provides a projected-gradient MLU minimizer: split ratios
// are parameterized as per-pair softmaxes over logits and optimized with
// Adam against a smooth-max (log-sum-exp) relaxation of the MLU objective.
//
// It serves as the scalable counterpart of the exact simplex LP in
// internal/lp: on ToR-scale topologies — where the paper itself reports LP
// becoming impractically slow — every baseline that needs "solve MLU for
// this demand" uses this solver instead. On small instances the two agree
// to within a percent (cross-checked in tests and the SolverVsLP ablation
// bench).
package solver

import (
	"fmt"
	"math"
	"math/rand"

	"figret/internal/te"
)

// Options configures the solver. Zero values select sensible defaults.
type Options struct {
	// Iters is the number of Adam iterations (default 400).
	Iters int
	// LR is the Adam learning rate (default 0.05).
	LR float64
	// Seed initializes the logits jitter (default 0: start uniform).
	Seed int64
	// InitR, if non-nil, warm-starts the solve: the logits are initialized
	// so the first iterate reproduces these split ratios (per-pair softmax
	// inverse, ratios floored at 1e-9). Warm starts let temporally-
	// correlated demands reuse the previous snapshot's solution with far
	// fewer iterations; InitR takes precedence over Seed jitter. The
	// best-iterate tracking guarantees the result is never worse than
	// InitR itself evaluated on d.
	InitR []float64
	// Caps, if non-nil, are per-path upper bounds on split ratios, enforced
	// by a quadratic penalty (entries may be +Inf).
	Caps []float64
}

const (
	// betaRel scales the softmax-temperature used by the smooth max: the
	// effective temperature is betaRel / currentMaxUtilization, making the
	// relaxation scale-invariant.
	betaRel = 30
	// penaltyWeight scales the cap-violation penalty.
	penaltyWeight = 50
)

func (o Options) withDefaults() Options {
	if o.Iters == 0 {
		o.Iters = 400
	}
	if o.LR == 0 {
		o.LR = 0.05
	}
	return o
}

// MinimizeMLU returns a near-optimal TE configuration for demand d and its
// exact (hard-max) MLU. The returned configuration always satisfies the
// split-ratio simplex constraints exactly (softmax parameterization); caps
// are satisfied approximately, to within the penalty's tolerance.
func MinimizeMLU(ps *te.PathSet, d []float64, opt Options) (*te.Config, float64) {
	opt = opt.withDefaults()
	P := ps.NumPaths()
	z := make([]float64, P)
	switch {
	case opt.InitR != nil:
		if len(opt.InitR) != P {
			panic(fmt.Sprintf("solver: InitR has %d entries, want %d", len(opt.InitR), P))
		}
		// Softmax inverse up to a per-pair constant: z_p = ln r_p.
		for p, r := range opt.InitR {
			if r < 1e-9 {
				r = 1e-9
			}
			z[p] = math.Log(r)
		}
	case opt.Seed != 0:
		rng := rand.New(rand.NewSource(opt.Seed))
		for i := range z {
			z[i] = 0.01 * rng.NormFloat64()
		}
	}

	r := make([]float64, P)
	gr := make([]float64, P) // dL/dr
	gz := make([]float64, P) // dL/dz
	flows := make([]float64, ps.G.NumEdges())
	util := make([]float64, ps.G.NumEdges())
	w := make([]float64, ps.G.NumEdges())
	edgeIDs, edgeStart := ps.EdgeCSR()
	caps := ps.EdgeCaps()

	ad := newAdam(P, opt.LR)

	best := math.Inf(1)
	bestR := make([]float64, P)

	for it := 0; it < opt.Iters; it++ {
		softmaxPerPair(ps, z, r)
		ps.EdgeFlows(d, r, flows)
		maxU := 0.0
		for e := range flows {
			util[e] = flows[e] / caps[e]
			if util[e] > maxU {
				maxU = util[e]
			}
		}
		// Track the best hard-max iterate (with caps feasibility preferred).
		score := maxU
		if opt.Caps != nil {
			score += penaltyWeight * capViolation(r, opt.Caps)
		}
		if score < best {
			best = score
			copy(bestR, r)
		}
		if maxU == 0 {
			break // zero demand: any config is optimal
		}

		// Smooth-max weights: w_e = softmax(beta * util), pre-divided by
		// edge capacity so the per-path gradient loop below is a single
		// multiply-accumulate over the flat CSR edge list.
		beta := betaRel / maxU
		var sumW float64
		for e := range util {
			w[e] = math.Exp(beta * (util[e] - maxU))
			sumW += w[e]
		}
		inv := 1 / sumW
		for e := range w {
			w[e] = w[e] * inv / caps[e]
		}
		// dL/dr_p = Σ_{e∈p} w_e · d_pair / c_e.
		for p := range gr {
			dp := d[ps.PairOf[p]]
			if dp == 0 {
				gr[p] = 0
				continue
			}
			var g float64
			for _, e := range edgeIDs[edgeStart[p]:edgeStart[p+1]] {
				g += w[e] * dp
			}
			gr[p] = g
		}
		// Cap penalty gradient.
		if opt.Caps != nil {
			for p, c := range opt.Caps {
				if math.IsInf(c, 1) {
					continue
				}
				if v := r[p] - c; v > 0 {
					gr[p] += 2 * penaltyWeight * v
				}
			}
		}
		// Chain through per-pair softmax: dz_p = r_p (gr_p − Σ_q r_q gr_q).
		for _, pp := range ps.PairPaths {
			var mean float64
			for _, p := range pp {
				mean += r[p] * gr[p]
			}
			for _, p := range pp {
				gz[p] = r[p] * (gr[p] - mean)
			}
		}
		ad.step(z, gz)
	}

	cfg := te.NewConfig(ps)
	copy(cfg.R, bestR)
	if opt.Caps != nil {
		projectCaps(ps, cfg, opt.Caps)
	}
	m, _ := ps.MLU(d, cfg.R)
	return cfg, m
}

// capViolation returns Σ_p max(0, r_p − cap_p)².
func capViolation(r, caps []float64) float64 {
	s := 0.0
	for p, c := range caps {
		if math.IsInf(c, 1) {
			continue
		}
		if v := r[p] - c; v > 0 {
			s += v * v
		}
	}
	return s
}

// projectCaps redistributes ratio mass exceeding caps onto the pair's
// uncapped headroom, making the configuration exactly cap-feasible when the
// pair's caps sum to at least 1.
func projectCaps(ps *te.PathSet, cfg *te.Config, caps []float64) {
	for _, pp := range ps.PairPaths {
		for iter := 0; iter < 4; iter++ {
			var excess, headroom float64
			for _, p := range pp {
				c := caps[p]
				if !math.IsInf(c, 1) && cfg.R[p] > c {
					excess += cfg.R[p] - c
					cfg.R[p] = c
				}
			}
			if excess <= 1e-12 {
				break
			}
			for _, p := range pp {
				c := caps[p]
				if math.IsInf(c, 1) {
					headroom += 1 // effectively unlimited
				} else if cfg.R[p] < c {
					headroom += c - cfg.R[p]
				}
			}
			if headroom <= 0 {
				break // caps sum < 1; leave as close as possible
			}
			for _, p := range pp {
				c := caps[p]
				var h float64
				if math.IsInf(c, 1) {
					h = 1
				} else if cfg.R[p] < c {
					h = c - cfg.R[p]
				}
				if h > 0 {
					cfg.R[p] += excess * h / headroom
				}
			}
		}
	}
}

// softmaxPerPair fills r with softmax(z) computed independently per pair.
func softmaxPerPair(ps *te.PathSet, z, r []float64) {
	for _, pp := range ps.PairPaths {
		mx := math.Inf(-1)
		for _, p := range pp {
			if z[p] > mx {
				mx = z[p]
			}
		}
		var sum float64
		for _, p := range pp {
			r[p] = math.Exp(z[p] - mx)
			sum += r[p]
		}
		inv := 1 / sum
		for _, p := range pp {
			r[p] *= inv
		}
	}
}

// adam is a flat-vector Adam optimizer.
type adam struct {
	lr, b1, b2, eps float64
	t               int
	m, v            []float64
}

func newAdam(n int, lr float64) *adam {
	return &adam{lr: lr, b1: 0.9, b2: 0.999, eps: 1e-8,
		m: make([]float64, n), v: make([]float64, n)}
}

func (a *adam) step(x, g []float64) {
	a.t++
	c1 := 1 - math.Pow(a.b1, float64(a.t))
	c2 := 1 - math.Pow(a.b2, float64(a.t))
	for i := range x {
		a.m[i] = a.b1*a.m[i] + (1-a.b1)*g[i]
		a.v[i] = a.b2*a.v[i] + (1-a.b2)*g[i]*g[i]
		x[i] -= a.lr * (a.m[i] / c1) / (math.Sqrt(a.v[i]/c2) + a.eps)
	}
}
