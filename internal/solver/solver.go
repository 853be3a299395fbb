// Package solver provides a projected-gradient MLU minimizer: split ratios
// are parameterized as per-pair softmaxes over logits and optimized with
// Adam against a smooth-max (log-sum-exp) relaxation of the MLU objective,
// Objective, which figret's L1 loss term evaluates too. The optimizer is
// nn.Adam on one flat tensor, and every exponential of an iteration goes
// through nn.ExpInto, so both run four lanes wide where the CPU allows,
// with the bits of the scalar math.Exp and Adam rule. The incidence walks
// are nn's four-lane gathers over te.PathSet's solver layouts: edge flows
// four edges abreast (EdgeQuads), the gradient four paths abreast
// (PathGroups), and the softmax and its chain rule four pairs abreast
// (PairQuads). Each fold keeps its operands and its order, and the padding
// adds +0 (or compares −Inf), so the bits are those of the per-path
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
// MinimizeMLU panics on a negative Iters and on an LR that is negative or not
// finite.
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
	// by a quadratic penalty: each ≥ 0, or +Inf for an uncapped path.
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
// InitR and Caps, when set, one entry per path, InitR's finite and Caps'
// ≥ 0 or +Inf; anything else panics with a solver: message.
func MinimizeMLU(ps *te.PathSet, d []float64, opt Options) (*te.Config, float64) {
	checkInputs(ps, d, opt)
	opt = opt.withDefaults()
	P := ps.NumPaths()
	z := make([]float64, P+1)
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
		for i := range P {
			z[i] = 0.01 * rng.NormFloat64()
		}
	}
	z[P] = math.Inf(-1)

	obj := NewObjective(ps)
	obj.SetDemand(d)
	pairs := newPairQuads(ps)
	r := make([]float64, P+1) // r[P] = +0, the pair quads' padding slot
	gz := make([]float64, P)  // dL/dz

	ad := nn.NewAdam(opt.LR)

	best := math.Inf(1)
	bestR := make([]float64, P)

	for it := 0; it < opt.Iters; it++ {
		pairs.softmax(z, r)
		maxU, gr := obj.Eval(r)
		// Track the best hard-max iterate (with caps feasibility preferred).
		// The penalty is finite and ≥ 0 (checkInputs), so an iterate
		// with maxU >= best cannot win and its O(P) penalty is skipped.
		score := maxU
		if opt.Caps != nil && maxU < best {
			score += penaltyWeight * capViolation(r, opt.Caps)
		}
		if score < best {
			best = score
			copy(bestR, r)
		}
		if maxU == 0 {
			break // zero demand: any config is optimal
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
		// It writes every entry of gz, which the Adam step clears.
		pairs.chain(r, gr, gz)
		ad.StepVec(z[:P], gz)
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
// optimum: a negative Iters skips the loop and a negative LR ascends. A NaN
// or +Inf LR, and a NaN or ±Inf demand or warm start, poison every ratio
// while te.PathSet.MLUFromFlows, which skips NaN flows, reports MLU 0. A
// −Inf cap does the same, a negative one becomes a negative split ratio in
// projectCaps and a NaN one silently uncaps its path. Wrong lengths would
// index out of range or silently cap a prefix.
func checkInputs(ps *te.PathSet, d []float64, opt Options) {
	if opt.Iters < 0 {
		panic(fmt.Sprintf("solver: Iters %d must not be negative", opt.Iters))
	}
	if !(opt.LR >= 0) || math.IsInf(opt.LR, 1) {
		panic(fmt.Sprintf("solver: LR %v must be finite and >= 0", opt.LR))
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
	for p, c := range opt.Caps {
		if !(c >= 0) {
			panic(fmt.Sprintf("solver: Caps[%d] = %v must be a ratio >= 0 or +Inf", p, c))
		}
	}
}

func mustBeFinite(name string, x []float64) {
	for i, v := range x {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			panic(fmt.Sprintf("solver: %s[%d] = %v is not finite", name, i, v))
		}
	}
}

// Objective is the smooth max of link utilisation that MinimizeMLU
// descends and figret's L1 loss term differentiates:
//
//	S(r) = M + (1/β)·ln Σ_e exp(β(u_e − M)),  u_e = Σ_{p∋e} d_p·r_p / c_e,
//
// with M = max_e u_e and β = betaRel/M held fixed at the point evaluated,
// which makes the relaxation scale-invariant. Its gradient
// dS/dr_p = Σ_{e∈p} w_e·d_p/c_e, w = softmax(β·u), is Garg–Young's length
// function of the edges. An Objective owns every buffer an evaluation
// touches, so it belongs to one goroutine.
type Objective struct {
	pairOf                 []int
	caps                   []float64
	groupEdges, groupStart []int32
	edges                  edgeQuads
	// dp is each path's pair demand, zero-padded to whole 4-path groups.
	// f and w have one slot past the last path and edge, the sentinel the
	// edge quads and path groups pad with, and it holds +0. grAll's
	// padding lanes are scratch the gradient writes, +0 too because their
	// dp is.
	dp, f, grAll, flows, util, w []float64
}

// NewObjective returns an Objective over ps with zero demand. It builds
// ps's solver layouts if they are not built yet.
func NewObjective(ps *te.PathSet) *Objective {
	P, E := ps.NumPaths(), ps.G.NumEdges()
	groupEdges, groupStart := ps.PathGroups()
	dp := make([]float64, 4*(len(groupStart)-1))
	return &Objective{
		pairOf:     ps.PairOf,
		caps:       ps.EdgeCaps(),
		groupEdges: groupEdges,
		groupStart: groupStart,
		edges:      newEdgeQuads(ps),
		dp:         dp,
		f:          make([]float64, P+1),
		grAll:      make([]float64, max(len(dp), P+1)),
		flows:      make([]float64, E),
		util:       make([]float64, E),
		w:          make([]float64, E+1),
	}
}

// SetDemand sets the demand, one entry per pair, that Eval routes. Every
// entry must be finite: the gradient's padded steps multiply it by +0.
func (o *Objective) SetDemand(d []float64) {
	for p, pi := range o.pairOf {
		o.dp[p] = d[pi]
	}
}

// Eval returns the hard-max MLU of the split ratios r[:P] under the demand
// and the gradient dS/dr in P+1 entries, gr[P] = +0. A path whose
// pair demand is zero gets gradient +0, and so does every path when the
// MLU is 0. gr is the Objective's own, valid until the next Eval.
func (o *Objective) Eval(r []float64) (mlu float64, gr []float64) {
	// Each loop copies into locals only the slices it walks: with more live
	// across it a loop spills its counter to the stack. The per-path loop
	// also cuts its slices to one length, which drops its bounds checks.
	P := len(o.f) - 1
	f, dp, r := o.f[:P], o.dp[:P], r[:P]
	for p := range f {
		f[p] = dp[p] * r[p]
	}
	flows, util, caps := o.flows, o.util, o.caps
	o.edges.flows(o.f, flows)
	maxU := 0.0
	for e := range flows {
		util[e] = flows[e] / caps[e]
		if util[e] > maxU {
			maxU = util[e]
		}
	}
	gr = o.grAll[:P+1]
	if maxU == 0 {
		clear(o.grAll)
		return 0, gr
	}
	// Smooth-max weights: w_e = softmax(beta * util), pre-divided by edge
	// capacity so the per-path gradient below is a single multiply-
	// accumulate over the path's edges.
	beta := betaRel / maxU
	ws := o.w[:len(util)]
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
	// dS/dr_p = Σ_{e∈p} w_e · d_pair / c_e, four paths abreast. A padded
	// step adds w[E]·dp = +0·dp = ±0, the identity on a sum that starts at
	// +0 (see edgeQuads), as long as dp is finite. A path with zero demand
	// gets gradient +0.
	nn.QuadScaledSum(o.grAll, o.w, o.dp, o.groupEdges, o.groupStart)
	return maxU, gr
}

// edgeQuads sums the flow of every edge from te.PathSet.EdgeQuads: each
// lane adds f[p] over its edge's paths in ascending id, starting at +0,
// the order te.PathSet.EdgeFlows scatters them in, so the bits are
// EdgeFlows'. EdgeFlows skips f = ±0 terms, and the quads add them, and
// the padding slot f[P] = +0 besides; neither changes a bit, because a sum
// that starts at +0 never becomes −0 and x + ±0 = x for every other x.
type edgeQuads struct {
	ids, start, edgeOf []int32
	sums               []float64 // per slot
}

func newEdgeQuads(ps *te.PathSet) edgeQuads {
	ids, start, edgeOf := ps.EdgeQuads()
	return edgeQuads{ids, start, edgeOf, make([]float64, 4*(len(start)-1))}
}

// flows sets flows[e] = Σ f[p] over the paths through e; f[P] must be +0.
func (q edgeQuads) flows(f, flows []float64) {
	nn.QuadSum(q.sums, f, q.ids, q.start)
	for s, e := range q.edgeOf {
		flows[e] = q.sums[s]
	}
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

// pairQuads runs the per-pair softmax and its chain rule four pairs
// abreast over te.PathSet.PairQuads. Every per-pair fold walks a pair's
// paths in PairPaths order from the value the scalar loop starts at, and
// the padding slot P is inert: −Inf never exceeds the max, and +0 leaves
// the sums as in edgeQuads. The per-path steps gather their pair's
// value through pairOf. The bits are those of the per-pair loops.
type pairQuads struct {
	ids, start, pairOf []int32
	lane               []float64 // one value per pair slot
}

func newPairQuads(ps *te.PathSet) pairQuads {
	ids, start, pairOf := ps.PairQuads()
	return pairQuads{ids, start, pairOf, make([]float64, 4*(len(start)-1))}
}

// softmax fills r[:P] with softmax(z) over each pair's paths: every pair's
// max from −Inf by `if z > max` (nn.QuadMax), the shifts z_p − max, one ExpInto over all
// paths, then every pair's sum from +0, and r_p·(1/sum). z[P] must be −Inf
// and r[P] +0.
func (q pairQuads) softmax(z, r []float64) {
	P := len(q.pairOf)
	nn.QuadMax(q.lane, z, q.ids, q.start)
	nn.SubAt(r[:P], z, q.lane, q.pairOf)
	nn.ExpInto(r[:P], r[:P])
	nn.QuadSum(q.lane, r, q.ids, q.start)
	for i, s := range q.lane {
		q.lane[i] = 1 / s
	}
	nn.MulAt(r[:P], q.lane, q.pairOf)
}

// chain sets gz_p = r_p (gr_p − Σ_q r_q gr_q) over each pair's paths, the
// gradient through softmax, the mean summed from +0 in path order. r[P]
// and gr[P] must be +0.
func (q pairQuads) chain(r, gr, gz []float64) {
	nn.QuadDot(q.lane, r, gr, q.ids, q.start)
	nn.ChainAt(gz, r, gr, q.lane, q.pairOf)
}
