// Package solver provides a projected-gradient MLU minimizer: split ratios
// are parameterized as per-pair softmaxes over logits and optimized with
// Adam against a smooth-max (log-sum-exp) relaxation of the MLU objective.
// The optimizer is nn.Adam on one flat tensor, and every exponential of an
// iteration goes through nn.ExpInto, so both run four lanes wide where
// the CPU allows, with the bits of the scalar math.Exp and Adam rule. The
// incidence walks use te.PathSet's solver layouts: edge flows are gathered
// edge-major (EdgePaths), the gradient runs four paths abreast
// (PathGroups) and the softmax walks pair ranges (PairStarts). Each sum
// keeps its operands and its order, so the bits are those of the per-path
// scatter and gather they replace.
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

	"figret/internal/nn"
	"figret/internal/te"
)

// Options configures the solver. Zero values select sensible defaults;
// MinimizeMLU panics on a negative Iters or LR.
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
//
// d must hold one finite entry per pair (negative entries are allowed), and
// InitR and Caps, when set, one entry per path, InitR's finite; anything
// else panics with a solver: message.
func MinimizeMLU(ps *te.PathSet, d []float64, opt Options) (*te.Config, float64) {
	checkInputs(ps, d, opt)
	opt = opt.withDefaults()
	P := ps.NumPaths()
	z := make([]float64, P)
	switch {
	case opt.InitR != nil:
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

	E := ps.G.NumEdges()
	edgePaths, edgeStart := ps.EdgePaths()
	groupEdges, groupStart := ps.PathGroups()
	pairStart := ps.PairStarts()
	caps := ps.EdgeCaps()

	// dp[p] is path p's pair demand, zero-padded to whole 4-path groups;
	// gr's padding lanes are scratch the gradient writes and nothing reads.
	dp := make([]float64, 4*(len(groupStart)-1))
	for p, pi := range ps.PairOf {
		dp[p] = d[pi]
	}
	r := make([]float64, P)
	f := make([]float64, P) // d·r per path
	grAll := make([]float64, len(dp))
	gr := grAll[:P]          // dL/dr
	gz := make([]float64, P) // dL/dz
	flows := make([]float64, E)
	util := make([]float64, E)
	w := make([]float64, E+1) // w[E] = +0 is the padding edge's weight

	ad := nn.NewAdam(opt.LR)

	best := math.Inf(1)
	bestR := make([]float64, P)

	for it := 0; it < opt.Iters; it++ {
		softmaxPerPair(pairStart, z, r)
		for p := range f {
			f[p] = dp[p] * r[p]
		}
		gatherFlows(edgePaths, edgeStart, f, flows)
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
		// multiply-accumulate over the path's edges.
		beta := betaRel / maxU
		ws := w[:E]
		for e := range util {
			ws[e] = beta * (util[e] - maxU)
		}
		nn.ExpInto(ws, ws)
		var sumW float64
		for _, we := range ws {
			sumW += we
		}
		inv := 1 / sumW
		for e := range ws {
			ws[e] = ws[e] * inv / caps[e]
		}
		// dL/dr_p = Σ_{e∈p} w_e · d_pair / c_e.
		pathGradients(groupEdges, groupStart, w, dp, grAll)
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
		// It writes every entry of gz, which the Adam step clears.
		softmaxChain(pairStart, r, gr, gz)
		ad.StepVec(z, gz)
	}

	cfg := te.NewConfig(ps)
	copy(cfg.R, bestR)
	if opt.Caps != nil {
		projectCaps(ps, cfg, opt.Caps)
	}
	m, _ := ps.MLU(d, cfg.R)
	return cfg, m
}

// checkInputs panics on what would otherwise come back as a meaningless
// optimum: a negative Iters skips the loop and a negative LR ascends, and a
// NaN or ±Inf demand or warm start poisons every ratio while
// te.PathSet.MLUFromFlows, which skips NaN flows, reports MLU 0. Wrong
// lengths would index out of range or silently cap a prefix.
func checkInputs(ps *te.PathSet, d []float64, opt Options) {
	if opt.Iters < 0 || opt.LR < 0 {
		panic(fmt.Sprintf("solver: Iters %d and LR %v must not be negative", opt.Iters, opt.LR))
	}
	if n := ps.Pairs.Count(); len(d) != n {
		panic(fmt.Sprintf("solver: demand has %d entries, want %d", len(d), n))
	}
	P := ps.NumPaths()
	if opt.InitR != nil && len(opt.InitR) != P {
		panic(fmt.Sprintf("solver: InitR has %d entries, want %d", len(opt.InitR), P))
	}
	if opt.Caps != nil && len(opt.Caps) != P {
		panic(fmt.Sprintf("solver: Caps has %d entries, want %d", len(opt.Caps), P))
	}
	mustBeFinite("demand", d)
	mustBeFinite("InitR", opt.InitR)
}

func mustBeFinite(name string, x []float64) {
	for i, v := range x {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			panic(fmt.Sprintf("solver: %s[%d] = %v is not finite", name, i, v))
		}
	}
}

// gatherFlows sets flows[e] = Σ f[p] over the paths through e, from the
// transposed incidence (te.PathSet.EdgePaths). Each sum starts at +0 and
// adds its terms in ascending path id, the order te.PathSet.EdgeFlows
// scatters them in, so the bits are EdgeFlows'. EdgeFlows skips f = ±0
// terms; adding one changes nothing, because a sum that starts at +0 never
// becomes −0 and x + ±0 = x for every other x. Four edges run side by
// side so their add chains overlap.
func gatherFlows(ids, start []int32, f, flows []float64) {
	e := 0
	for ; e+4 <= len(flows); e += 4 {
		a := ids[start[e]:start[e+1]]
		b := ids[start[e+1]:start[e+2]]
		c := ids[start[e+2]:start[e+3]]
		d := ids[start[e+3]:start[e+4]]
		n := min(len(a), len(b), len(c), len(d))
		var s0, s1, s2, s3 float64
		for k := 0; k < n; k++ {
			s0 += f[a[k]]
			s1 += f[b[k]]
			s2 += f[c[k]]
			s3 += f[d[k]]
		}
		flows[e] = sumFrom(s0, f, a[n:])
		flows[e+1] = sumFrom(s1, f, b[n:])
		flows[e+2] = sumFrom(s2, f, c[n:])
		flows[e+3] = sumFrom(s3, f, d[n:])
	}
	for ; e < len(flows); e++ {
		flows[e] = sumFrom(0, f, ids[start[e]:start[e+1]])
	}
}

// sumFrom adds f[p] for the ids in order to s.
func sumFrom(s float64, f []float64, ids []int32) float64 {
	for _, p := range ids {
		s += f[p]
	}
	return s
}

// pathGradients sets gr[p] = Σ_{e∈p} w[e]·dp[p], in p's edge order, four
// paths abreast over the lane-interleaved groups of te.PathSet.PathGroups.
// A padded step adds w[E]·dp = +0·dp = ±0, the identity on a sum that
// starts at +0 (see gatherFlows), because dp is finite; checkInputs makes
// it so. A path with zero demand gets gradient 0, as it always has.
func pathGradients(ids, start []int32, w, dp, gr []float64) {
	for g := 0; g+1 < len(start); g++ {
		lanes := ids[start[g]:start[g+1]]
		p := 4 * g
		d0, d1, d2, d3 := dp[p], dp[p+1], dp[p+2], dp[p+3]
		var g0, g1, g2, g3 float64
		for ; len(lanes) >= 4; lanes = lanes[4:] {
			g0 += w[lanes[0]] * d0
			g1 += w[lanes[1]] * d1
			g2 += w[lanes[2]] * d2
			g3 += w[lanes[3]] * d3
		}
		gr[p] = zeroIfNoDemand(g0, d0)
		gr[p+1] = zeroIfNoDemand(g1, d1)
		gr[p+2] = zeroIfNoDemand(g2, d2)
		gr[p+3] = zeroIfNoDemand(g3, d3)
	}
}

func zeroIfNoDemand(g, dp float64) float64 {
	if dp == 0 {
		return 0
	}
	return g
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

// softmaxPerPair fills r with softmax(z) computed independently over each
// pair's range of paths [start[i], start[i+1]) (te.PathSet.PairStarts): the
// shifts z_p − max of every pair first, then one ExpInto over all paths,
// then each pair's sum and scaling in path order. Pairs of 3 and 4 paths,
// the suite's K, run as straight-line code; every sum still starts at +0
// and adds in path order, so the bits are the loops'.
func softmaxPerPair(start []int32, z, r []float64) {
	for i := 0; i+1 < len(start); i++ {
		zs, rs := z[start[i]:start[i+1]], r[start[i]:start[i+1]]
		switch len(zs) {
		case 3:
			zs, rs := (*[3]float64)(zs), (*[3]float64)(rs)
			mx := greater(zs[2], greater(zs[1], greater(zs[0], math.Inf(-1))))
			rs[0], rs[1], rs[2] = zs[0]-mx, zs[1]-mx, zs[2]-mx
		case 4:
			zs, rs := (*[4]float64)(zs), (*[4]float64)(rs)
			mx := greater(zs[3], greater(zs[2], greater(zs[1], greater(zs[0], math.Inf(-1)))))
			rs[0], rs[1], rs[2], rs[3] = zs[0]-mx, zs[1]-mx, zs[2]-mx, zs[3]-mx
		default:
			mx := math.Inf(-1)
			for _, v := range zs {
				mx = greater(v, mx)
			}
			for j, v := range zs {
				rs[j] = v - mx
			}
		}
	}
	nn.ExpInto(r, r)
	for i := 0; i+1 < len(start); i++ {
		rs := r[start[i]:start[i+1]]
		switch len(rs) {
		case 3:
			rs := (*[3]float64)(rs)
			inv := 1 / (0 + rs[0] + rs[1] + rs[2])
			rs[0], rs[1], rs[2] = rs[0]*inv, rs[1]*inv, rs[2]*inv
		case 4:
			rs := (*[4]float64)(rs)
			inv := 1 / (0 + rs[0] + rs[1] + rs[2] + rs[3])
			rs[0], rs[1], rs[2], rs[3] = rs[0]*inv, rs[1]*inv, rs[2]*inv, rs[3]*inv
		default:
			var sum float64
			for _, v := range rs {
				sum += v
			}
			inv := 1 / sum
			for j := range rs {
				rs[j] *= inv
			}
		}
	}
}

// softmaxChain sets gz_p = r_p (gr_p − Σ_q r_q gr_q) over each pair's range,
// the gradient through softmaxPerPair, with the same straight-line cases.
// Their leading 0 is the loop's +0 start, which turns a first product of
// −0 (r_p = 0, gr_p < 0) into +0 exactly as the loop does.
func softmaxChain(start []int32, r, gr, gz []float64) {
	for i := 0; i+1 < len(start); i++ {
		lo, hi := start[i], start[i+1]
		rs, gs, zs := r[lo:hi], gr[lo:hi], gz[lo:hi]
		switch len(rs) {
		case 3:
			rs, gs, zs := (*[3]float64)(rs), (*[3]float64)(gs), (*[3]float64)(zs)
			mean := 0 + rs[0]*gs[0] + rs[1]*gs[1] + rs[2]*gs[2]
			zs[0], zs[1], zs[2] = rs[0]*(gs[0]-mean), rs[1]*(gs[1]-mean), rs[2]*(gs[2]-mean)
		case 4:
			rs, gs, zs := (*[4]float64)(rs), (*[4]float64)(gs), (*[4]float64)(zs)
			mean := 0 + rs[0]*gs[0] + rs[1]*gs[1] + rs[2]*gs[2] + rs[3]*gs[3]
			zs[0], zs[1], zs[2], zs[3] = rs[0]*(gs[0]-mean), rs[1]*(gs[1]-mean), rs[2]*(gs[2]-mean), rs[3]*(gs[3]-mean)
		default:
			var mean float64
			for j, v := range rs {
				mean += v * gs[j]
			}
			for j, v := range rs {
				zs[j] = v * (gs[j] - mean)
			}
		}
	}
}

// greater is `if v > mx { mx = v }` without a branch: a NaN v leaves mx as
// it is, and of two equal zeros mx keeps its sign. The builtin max differs
// on both.
func greater(v, mx float64) float64 {
	var take uint64
	if v > mx {
		take = 1
	}
	vb, mb := math.Float64bits(v), math.Float64bits(mx)
	return math.Float64frombits(mb ^ (mb^vb)&-take)
}
