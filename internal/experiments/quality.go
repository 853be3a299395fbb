package experiments

import (
	"fmt"
	"math"
	"strings"

	"figret/internal/baselines"
	"figret/internal/eval"
	"figret/internal/figret"
	"figret/internal/traffic"
)

// SchemeStats summarizes one scheme's normalized-MLU distribution over the
// test window, plus the severe-congestion rate (fraction of snapshots whose
// normalized MLU exceeds 2 — the paper's congestion-incident criterion).
type SchemeStats struct {
	Name             string
	Stats            traffic.Candlestick
	SevereCongestion float64
	AvgMLU           float64 // mean normalized MLU
}

// QualityResult is a Figure 5/6-style comparison on one topology.
type QualityResult struct {
	Topo    string
	Schemes []SchemeStats
	N       int // snapshots evaluated
}

// QualityOptions configures TEQuality.
type QualityOptions struct {
	WithOblivious bool // include Oblivious & COPE (small topologies only)
	MaxEval       int  // cap on evaluated snapshots
}

const (
	obliviousIters = 5 // cutting-plane iterations for Oblivious and COPE
	copeSet        = 4 // COPE predicted-set size
)

// TEQuality reproduces Figure 5 (and, with a Räcke-selector environment,
// Figure 6): normalized MLU distributions of FIGRET against the baselines.
func TEQuality(env *Env, cfg figret.Config, opt QualityOptions) (*QualityResult, error) {
	fig, dote, err := env.TrainModels(cfg)
	if err != nil {
		return nil, err
	}
	h := fig.Cfg.H
	teal := baselines.NewTEAL(env.PS, max(4, cfg.Epochs/2), env.Seed)
	if _, err := teal.Train(env.Train); err != nil {
		return nil, err
	}

	// Solver-backed schemes route through the oracle cache: PredTE's
	// advice for snapshot t is the omniscient solve of snapshot t-1 — free
	// once the engine has computed the normalization base — and Des TE's
	// capped peak-matrix solves are shared across repeated runs.
	schemes := []baselines.Scheme{
		&baselines.NNScheme{Label: "FIGRET", Model: fig},
		&baselines.NNScheme{Label: "DOTE", Model: dote},
		&baselines.DesTE{PS: env.PS, Solve: env.Oracle().CachedSolve, H: h},
		&baselines.PredTE{PS: env.PS, Solve: env.Oracle().CachedSolve},
		&baselines.NNScheme{Label: "TEAL", Model: teal},
	}
	if opt.WithOblivious {
		dmax := baselines.PeakDemand(env.Train)
		obl, _, err := baselines.ObliviousConfig(env.PS, dmax, obliviousIters)
		if err != nil {
			return nil, fmt.Errorf("oblivious: %w", err)
		}
		cope, _, err := baselines.COPEConfig(env.PS, baselines.RecentDemands(env.Train, copeSet), dmax, 2.0, obliviousIters)
		if err != nil {
			return nil, fmt.Errorf("cope: %w", err)
		}
		schemes = append(schemes,
			&baselines.FixedScheme{Label: "Oblivious", Cfg: obl},
			&baselines.FixedScheme{Label: "COPE", Cfg: cope},
		)
	}

	from := h // warmup within the test split
	to := env.Test.Len()
	if to-from > opt.MaxEval {
		to = from + opt.MaxEval
	}
	run, err := eval.Run(schemes, env.Test, eval.Window{From: from, To: to}, env.EvalOptions())
	if err != nil {
		return nil, err
	}

	res := &QualityResult{Topo: env.Topo, N: len(run.Base)}
	for _, ss := range run.Schemes {
		res.Schemes = append(res.Schemes, SchemeStats{
			Name:             ss.Name,
			Stats:            ss.Stats,
			SevereCongestion: ss.SevereCongestion,
			AvgMLU:           ss.AvgNorm,
		})
	}
	return res, nil
}

// String renders the result as a paper-shaped table.
func (r *QualityResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "TE quality on %s (normalized MLU over %d test snapshots; 1.0 = omniscient)\n", r.Topo, r.N)
	fmt.Fprintf(&b, "%-12s %8s %8s %8s %8s %8s %8s %9s\n",
		"scheme", "avg", "min", "p25", "median", "p75", "max", ">2 (sev)")
	for _, s := range r.Schemes {
		fmt.Fprintf(&b, "%-12s %8.3f %8.3f %8.3f %8.3f %8.3f %8.3f %8.1f%%\n",
			s.Name, s.AvgMLU, s.Stats.Min, s.Stats.P25, s.Stats.Median, s.Stats.P75, s.Stats.Max,
			100*s.SevereCongestion)
	}
	return b.String()
}

// Scheme returns the named scheme's stats, or nil.
func (r *QualityResult) Scheme(name string) *SchemeStats {
	for i := range r.Schemes {
		if r.Schemes[i].Name == name {
			return &r.Schemes[i]
		}
	}
	return nil
}

// HedgingResult is the Figure 1 study: per-snapshot MLU of the no-hedging
// strategy (optimize for the previous demand, no burst protection) versus
// the hedging strategy (Jupiter-style sensitivity caps), both normalized by
// the series maximum as in the paper's plots.
type HedgingResult struct {
	Topo           string
	NoHedge, Hedge []float64 // normalized MLU time series
	NoHedgeSt      traffic.Candlestick
	HedgeSt        traffic.Candlestick
	PeakNoHedge    float64 // pre-normalization peaks
	PeakHedge      float64
	TroughNoHedge  float64
	TroughHedge    float64
}

// Hedging reproduces Figure 1 on one environment.
func Hedging(env *Env, maxEval int) (*HedgingResult, error) {
	from, to := 1, env.Test.Len()
	if to-from > maxEval {
		to = from + maxEval
	}
	noHedge := &baselines.PredTE{PS: env.PS, Solve: env.Oracle().CachedSolve}
	hedge := &baselines.DesTE{PS: env.PS, Solve: env.Oracle().CachedSolve, H: 12}
	// Raw MLUs only (the figure normalizes by the series max itself), so
	// the engine runs without an oracle base.
	run, err := eval.Run([]baselines.Scheme{noHedge, hedge}, env.Test,
		eval.Window{From: from, To: to}, eval.Options{Workers: env.Workers})
	if err != nil {
		return nil, err
	}
	a, h := run.Schemes[0].Raw, run.Schemes[1].Raw
	mx := 0.0
	for i := range a {
		mx = math.Max(mx, math.Max(a[i], h[i]))
	}
	res := &HedgingResult{Topo: env.Topo,
		PeakNoHedge: traffic.Quantile(a, 1), PeakHedge: traffic.Quantile(h, 1),
		TroughNoHedge: traffic.Quantile(a, 0), TroughHedge: traffic.Quantile(h, 0)}
	for i := range a {
		res.NoHedge = append(res.NoHedge, a[i]/mx)
		res.Hedge = append(res.Hedge, h[i]/mx)
	}
	res.NoHedgeSt = traffic.Summarize(res.NoHedge)
	res.HedgeSt = traffic.Summarize(res.Hedge)
	return res, nil
}

// String renders the Figure 1 findings.
func (r *HedgingResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Hedging trade-off on %s (MLU normalized to series max, %d snapshots)\n", r.Topo, len(r.NoHedge))
	fmt.Fprintf(&b, "%-10s %8s %8s %8s\n", "strategy", "trough", "median", "peak")
	fmt.Fprintf(&b, "%-10s %8.3f %8.3f %8.3f\n", "no-hedge", r.NoHedgeSt.Min, r.NoHedgeSt.Median, r.NoHedgeSt.Max)
	fmt.Fprintf(&b, "%-10s %8.3f %8.3f %8.3f\n", "hedging", r.HedgeSt.Min, r.HedgeSt.Median, r.HedgeSt.Max)
	fmt.Fprintf(&b, "expected shape: no-hedge has higher peaks AND lower troughs than hedging\n")
	return b.String()
}
