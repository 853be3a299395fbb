package experiments

import (
	"fmt"
	"strings"
	"time"

	"figret/internal/baselines"
	"figret/internal/figret"
	"figret/internal/lp"
	"figret/internal/solver"
)

// TimingResult is the Table 2 study: per-scheme calculation time (time to
// produce a configuration for one new demand matrix) and precomputation
// time (training / cutting-plane solving).
type TimingResult struct {
	Topo          string
	Nodes, Edges  int
	FigretCalc    time.Duration // one DNN forward + normalization
	LPCalc        time.Duration // plain MLU LP (0 if skipped as infeasible)
	DesTECalc     time.Duration // sensitivity-capped LP (0 if skipped)
	GradCalc      time.Duration // gradient solver (the LP substitute at scale)
	GradWarmCalc  time.Duration // warm-started gradient solve (the oracle's steady state)
	LPFeasible    bool          // dense LP attempted at this scale
	FigretPrecomp time.Duration // training time
	ObliviousPre  time.Duration // cutting-plane time (0 if skipped)
	ObliviousOK   bool
}

const (
	// lpMaxRows is the dense-LP feasibility cutoff, in constraint rows.
	lpMaxRows = 1200
	// gradIters is the cold gradient solve's iteration budget; the
	// warm-started solve runs a third of it.
	gradIters = 300
)

// Timing reproduces Table 2 on one environment; cfg.Epochs sizes the
// training run of the precomputation column.
func Timing(env *Env, cfg figret.Config) (*TimingResult, error) {
	res := &TimingResult{
		Topo:  env.Topo,
		Nodes: env.G.NumVertices(),
		Edges: env.G.NumEdges(),
	}
	d := env.Test.At(env.Test.Len() - 1)

	// FIGRET: train briefly, then time inference.
	m := figret.New(env.PS, env.modelConfig(cfg))
	start := time.Now()
	if _, err := m.Train(env.Train); err != nil {
		return nil, err
	}
	res.FigretPrecomp = time.Since(start)
	w := env.Test.Window(env.Test.Len(), m.Cfg.H)
	start = time.Now()
	const reps = 5
	for i := 0; i < reps; i++ {
		if _, err := m.Predict(w); err != nil {
			return nil, err
		}
	}
	res.FigretCalc = time.Since(start) / reps

	// LP and Des TE (capped LP), only at dense-simplex-feasible scale.
	rows := env.PS.Pairs.Count() + env.G.NumEdges()
	res.LPFeasible = rows <= lpMaxRows
	if res.LPFeasible {
		start = time.Now()
		if _, _, err := lp.MLUMin(env.PS, d); err != nil {
			return nil, err
		}
		res.LPCalc = time.Since(start)
		caps := lp.SensitivityCaps(env.PS, lp.ConstantF(2.0/3.0))
		start = time.Now()
		if _, _, err := lp.MLUMinCapped(env.PS, d, caps); err != nil {
			return nil, err
		}
		res.DesTECalc = time.Since(start)
	}

	// Gradient solver (LP substitute at any scale), cold and warm-started:
	// the warm solve seeds the previous snapshot's optimum and runs a
	// fraction of the iterations — the per-snapshot cost of the evaluation
	// engine's oracle on temporally-correlated traces.
	dPrev := d
	if env.Test.Len() >= 2 {
		dPrev = env.Test.At(env.Test.Len() - 2)
	}
	prevCfg, _ := solver.MinimizeMLU(env.PS, dPrev, solver.Options{Iters: gradIters})
	start = time.Now()
	solver.MinimizeMLU(env.PS, d, solver.Options{Iters: gradIters})
	res.GradCalc = time.Since(start)
	start = time.Now()
	solver.MinimizeMLU(env.PS, d, solver.Options{Iters: gradIters / 3, InitR: prevCfg.R})
	res.GradWarmCalc = time.Since(start)

	// Oblivious precomputation, small scale only (as in the paper, where it
	// is infeasible beyond GEANT/pFabric/PoD).
	if rows <= 300 {
		dmax := baselines.PeakDemand(env.Train)
		start = time.Now()
		if _, _, err := baselines.ObliviousConfig(env.PS, dmax, 6); err == nil {
			res.ObliviousPre = time.Since(start)
			res.ObliviousOK = true
		}
	}
	return res, nil
}

// Speedup returns the Des-TE-vs-FIGRET calculation-time ratio (the paper's
// headline 35×–1800×); it uses the gradient solve when the LP was skipped.
func (r *TimingResult) Speedup() float64 {
	des := r.DesTECalc
	if des == 0 {
		des = r.GradCalc
	}
	if r.FigretCalc == 0 {
		return 0
	}
	return float64(des) / float64(r.FigretCalc)
}

// String renders one Table 2 row set.
func (r *TimingResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Solver timing on %s (#nodes %d, #edges %d)\n", r.Topo, r.Nodes, r.Edges)
	fmt.Fprintf(&b, "  FIGRET calc:  %12v\n", r.FigretCalc)
	if r.LPFeasible {
		fmt.Fprintf(&b, "  LP calc:      %12v\n", r.LPCalc)
		fmt.Fprintf(&b, "  Des TE calc:  %12v\n", r.DesTECalc)
	} else {
		fmt.Fprintf(&b, "  LP calc:      infeasible at this scale (dense simplex)\n")
		fmt.Fprintf(&b, "  grad-solver:  %12v (LP substitute)\n", r.GradCalc)
	}
	fmt.Fprintf(&b, "  grad warm-start: %9v (oracle steady state)\n", r.GradWarmCalc)
	fmt.Fprintf(&b, "  speedup (Des TE / FIGRET): %.0fx\n", r.Speedup())
	fmt.Fprintf(&b, "  FIGRET precomp: %10v\n", r.FigretPrecomp)
	if r.ObliviousOK {
		fmt.Fprintf(&b, "  Oblivious precomp: %7v\n", r.ObliviousPre)
	} else {
		fmt.Fprintf(&b, "  Oblivious precomp: infeasible at this scale\n")
	}
	return b.String()
}
