// Package baselines implements the TE schemes FIGRET is evaluated against
// (§5.1): Omniscient TE, demand-prediction-based TE, desensitization-based
// TE (Google Jupiter hedging), demand-oblivious TE, COPE, SMORE-style path
// selection, and a TEAL-like per-demand learned scheme. All schemes share
// the Scheme interface so the experiment harness can evaluate them
// uniformly.
package baselines

import (
	"cmp"
	"fmt"
	"math"
	"sync"

	"figret/internal/figret"
	"figret/internal/lp"
	"figret/internal/solver"
	"figret/internal/te"
	"figret/internal/traffic"
)

// SolveFunc computes a (near-)MLU-optimal configuration for a single demand
// with optional per-path ratio caps. The two implementations are LPSolve
// (exact simplex; small/medium instances) and GradSolve (projected gradient;
// any scale).
type SolveFunc func(ps *te.PathSet, d []float64, caps []float64) (*te.Config, float64, error)

// LPSolve is the exact LP implementation of SolveFunc.
func LPSolve(ps *te.PathSet, d []float64, caps []float64) (*te.Config, float64, error) {
	return lp.MLUMinCapped(ps, d, caps)
}

// GradSolve returns a SolveFunc backed by the projected-gradient solver.
func GradSolve(opt solver.Options) SolveFunc {
	return func(ps *te.PathSet, d []float64, caps []float64) (*te.Config, float64, error) {
		o := opt
		o.Caps = caps
		cfg, obj := solver.MinimizeMLU(ps, d, o)
		return cfg, obj, nil
	}
}

// WarmSolveFunc computes a (near-)MLU-optimal configuration for demand d
// starting from the split ratios initR (typically the previous snapshot's
// optimum). The evaluation engine's oracle uses it to cut solver
// iterations on temporally-correlated traces.
type WarmSolveFunc func(ps *te.PathSet, d, initR []float64) (*te.Config, float64, error)

// GradWarmSolve returns a WarmSolveFunc backed by the projected-gradient
// solver's warm-start entry point; opt.Iters should be well below the cold
// solve's budget (warm starts converge in a fraction of the iterations).
func GradWarmSolve(opt solver.Options) WarmSolveFunc {
	return func(ps *te.PathSet, d, initR []float64) (*te.Config, float64, error) {
		o := opt
		o.InitR = initR
		cfg, obj := solver.MinimizeMLU(ps, d, o)
		return cfg, obj, nil
	}
}

// AutoSolve picks LPSolve for instances small enough for dense simplex and
// GradSolve otherwise, mirroring the scalability split the paper reports.
func AutoSolve(ps *te.PathSet) SolveFunc {
	// Rows ≈ pairs + edges; dense tableaux beyond a few thousand rows are
	// not worth it.
	if ps.Pairs.Count()+ps.G.NumEdges() <= 1200 {
		return LPSolve
	}
	return GradSolve(solver.Options{})
}

// Scheme is a TE scheme under the paper's evaluation protocol: at snapshot
// t it must produce a configuration using only information available before
// D_t arrives (except Omniscient, the oracle).
//
// Concurrency contract: Advise must be safe for concurrent use and must be
// a pure function of (tr, t) — the parallel evaluation engine
// (internal/eval) issues Advise calls for many snapshots at once and relies
// on both properties for worker-count-independent results. Every scheme in
// this package satisfies the contract.
type Scheme interface {
	Name() string
	// Warmup is the first snapshot index the scheme can advise on.
	Warmup() int
	// Advise returns the configuration to apply to snapshot t of tr.
	Advise(tr *traffic.Trace, t int) (*te.Config, error)
}

// Omniscient is the oracle baseline: it optimizes for the true D_t.
// Its MLU is the normalizer for every Figure 5/6/7 result.
type Omniscient struct {
	PS    *te.PathSet
	Solve SolveFunc
}

// Name implements Scheme.
func (o *Omniscient) Name() string { return "Omniscient" }

// Warmup implements Scheme.
func (o *Omniscient) Warmup() int { return 0 }

// Advise implements Scheme.
func (o *Omniscient) Advise(tr *traffic.Trace, t int) (*te.Config, error) {
	cfg, _, err := o.Solve(o.PS, tr.At(t), nil)
	return cfg, err
}

// PredTE is demand-prediction-based TE: it optimizes for the previous
// snapshot's demand ("we apply the TE solution computed from the traffic
// demand of the preceding time snapshot to the next time snapshot").
type PredTE struct {
	PS    *te.PathSet
	Solve SolveFunc
}

// Name implements Scheme.
func (p *PredTE) Name() string { return "Pred TE" }

// Warmup implements Scheme.
func (p *PredTE) Warmup() int { return 1 }

// Advise implements Scheme.
func (p *PredTE) Advise(tr *traffic.Trace, t int) (*te.Config, error) {
	if t < 1 {
		return nil, fmt.Errorf("baselines: PredTE needs t >= 1")
	}
	cfg, _, err := p.Solve(p.PS, tr.At(t-1), nil)
	return cfg, err
}

// desTEBound is Des TE's default constant sensitivity bound F: 2/3, the
// "Original" setting of Appendix C's Tables 7/8.
const desTEBound = 2.0 / 3.0

// DesTE is desensitization-based TE — the scheme of Google's Jupiter data
// centers [37] and COUDER [44]: optimize MLU for the window-peak predicted
// matrix under a path-sensitivity cap. The cap is the constant Bound, or —
// the Appendix C variant — a per-pair bound F varying with the pair's
// historical variance (lp.LinearF, lp.PiecewiseF).
type DesTE struct {
	PS *te.PathSet
	// H is the peak-tracking window (default 12).
	H int
	// Bound is the constant sensitivity bound (default 2/3); ignored when
	// F is set.
	Bound float64
	// F maps a pair index to its sensitivity bound; nil is
	// lp.ConstantF(Bound).
	F func(pair int) float64
	// Label names the parameterization in reports (default "Des TE").
	Label string
	Solve SolveFunc

	capsOnce sync.Once
	caps     []float64
}

// Name implements Scheme.
func (d *DesTE) Name() string { return cmp.Or(d.Label, "Des TE") }

// Warmup implements Scheme.
func (d *DesTE) Warmup() int { return 1 }

// Advise implements Scheme.
func (d *DesTE) Advise(tr *traffic.Trace, t int) (*te.Config, error) {
	if t < 1 {
		return nil, fmt.Errorf("baselines: DesTE needs t >= 1")
	}
	d.capsOnce.Do(func() {
		f := d.F
		if f == nil {
			f = lp.ConstantF(cmp.Or(d.Bound, desTEBound))
		}
		d.caps = lp.SensitivityCaps(d.PS, f)
	})
	cfg, _, err := d.Solve(d.PS, tr.PeakMatrix(t, cmp.Or(d.H, 12)), d.caps)
	return cfg, err
}

// NNScheme adapts a trained figret.Model (FIGRET, DOTE, or TEAL-like) to the
// Scheme interface. Advise is safe for concurrent use, as Model.PredictAt is.
type NNScheme struct {
	Label string
	Model *figret.Model
}

// Name implements Scheme.
func (s *NNScheme) Name() string { return s.Label }

// Warmup implements Scheme.
func (s *NNScheme) Warmup() int { return s.Model.Cfg.H }

// Advise implements Scheme.
func (s *NNScheme) Advise(tr *traffic.Trace, t int) (*te.Config, error) {
	return s.Model.PredictAt(tr, t)
}

// FixedScheme wraps a precomputed static configuration (Oblivious, COPE).
type FixedScheme struct {
	Label string
	Cfg   *te.Config
}

// Name implements Scheme.
func (f *FixedScheme) Name() string { return f.Label }

// Warmup implements Scheme.
func (f *FixedScheme) Warmup() int { return 0 }

// Advise implements Scheme.
func (f *FixedScheme) Advise(*traffic.Trace, int) (*te.Config, error) {
	return f.Cfg, nil
}

// Evaluate runs a scheme sequentially over the test snapshots [from, to)
// of tr and returns one MLU per snapshot. Callers normalize by the
// Omniscient series to obtain the paper's normalized MLU.
//
// The scheme must be able to advise on every requested snapshot: if
// s.Warmup() exceeds from, Evaluate returns an explicit error instead of
// silently starting late — the historical clamping behavior returned a
// shorter series whose indices were shifted relative to any base series
// evaluated over the same [from, to), corrupting Normalize results.
// internal/eval.Run aligns windows per scheme (and evaluates in parallel);
// prefer it for multi-scheme comparisons.
func Evaluate(s Scheme, tr *traffic.Trace, from, to int) ([]float64, error) {
	if from < s.Warmup() {
		return nil, fmt.Errorf("baselines: %s warmup %d exceeds evaluation start %d (use eval.Run for per-scheme window alignment)",
			s.Name(), s.Warmup(), from)
	}
	if to > tr.Len() {
		to = tr.Len()
	}
	if from >= to {
		return nil, fmt.Errorf("baselines: empty evaluation range [%d,%d)", from, to)
	}
	out := make([]float64, 0, to-from)
	for t := from; t < to; t++ {
		cfg, err := s.Advise(tr, t)
		if err != nil {
			return nil, fmt.Errorf("baselines: %s at t=%d: %w", s.Name(), t, err)
		}
		out = append(out, cfg.MLU(tr.At(t)))
	}
	return out, nil
}

// Normalize divides each entry of series by the matching entry of base,
// guarding against division by zero: a zero base entry maps a zero series
// entry to 1 (both schemes idle) and a positive one to +Inf. The series
// may be shorter than the base, in which case the extra base entries are
// ignored — entry i of the series must correspond to entry i of the base
// (aligned starts); it must not be longer.
func Normalize(series, base []float64) []float64 {
	if len(series) > len(base) {
		panic(fmt.Sprintf("baselines: series length %d exceeds base length %d", len(series), len(base)))
	}
	out := make([]float64, len(series))
	for i := range series {
		if base[i] > 0 {
			out[i] = series[i] / base[i]
		} else if series[i] == 0 {
			out[i] = 1
		} else {
			out[i] = math.Inf(1)
		}
	}
	return out
}
