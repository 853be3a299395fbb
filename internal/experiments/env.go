// Package experiments reproduces every table and figure of the paper's
// evaluation (§5, Appendices C, E, F, G) on the synthetic substrates of this
// repository. Each experiment is a function returning a typed result that
// renders the paper's rows/series as text; Studies indexes them and
// cmd/experiments is a loop over it.
//
// Experiments run at two scales:
//
//   - ScaleFull uses the paper's exact topology sizes (Table 1). Fine for
//     topology/LP benchmarks, but DNN training on the ToR-level fabrics is
//     slow in pure Go.
//   - ScaleFast keeps every topology family's *shape* (full mesh, random
//     regular, ring+chords) but reduces node counts so the complete
//     experiment suite runs in minutes.
package experiments

import (
	"cmp"
	"fmt"

	"figret/internal/baselines"
	"figret/internal/eval"
	"figret/internal/figret"
	"figret/internal/graph"
	"figret/internal/solver"
	"figret/internal/te"
	"figret/internal/traffic"
)

// Scale selects experiment sizing.
type Scale int

const (
	// ScaleFast shrinks topologies for quick end-to-end runs.
	ScaleFast Scale = iota
	// ScaleFull uses the paper's Table 1 sizes.
	ScaleFull
)

// ParseScale reads a -scale flag or a spec's scale field: "" and "fast"
// are ScaleFast, "full" is ScaleFull, anything else is an error — a typo
// must not silently run the fast scale under a full-scale label.
func ParseScale(s string) (Scale, error) {
	switch s {
	case "", "fast":
		return ScaleFast, nil
	case "full":
		return ScaleFull, nil
	}
	return ScaleFast, fmt.Errorf("unknown scale %q (want fast|full)", s)
}

// Env bundles everything an experiment needs for one topology/workload.
type Env struct {
	Topo  string
	Scale Scale
	G     *graph.Graph
	PS    *te.PathSet
	Trace *traffic.Trace
	Train *traffic.Trace
	Test  *traffic.Trace
	Solve baselines.SolveFunc
	Seed  int64
	Paths int
	// TestStart is Test's offset within Trace (snapshots before it are
	// training history usable for window warmup).
	TestStart int
	// Workers sizes the evaluation engine's worker pool (0 selects
	// runtime.GOMAXPROCS(0)); results are bitwise identical for any value.
	Workers int
	// WarmIters, when positive, enables warm-started oracle solves with
	// this iteration budget (set by UseGradSolver; meaningless for the
	// exact LP).
	WarmIters int

	oracle *eval.Oracle
}

// NewOracle returns a fresh, empty omniscient-solve cache over the
// environment's path set and solvers, for callers that must not share
// solves with every other user of the environment (the scenario runner
// keeps one per evaluated trace and window start). The cold solve
// delegates to the CURRENT e.Solve on every call; the warm solve is fixed
// at construction.
func (e *Env) NewOracle() *eval.Oracle {
	var warm baselines.WarmSolveFunc
	if e.WarmIters > 0 {
		warm = baselines.GradWarmSolve(solver.Options{Iters: e.WarmIters})
	}
	cold := func(ps *te.PathSet, d, caps []float64) (*te.Config, float64, error) {
		return e.Solve(ps, d, caps)
	}
	return eval.NewOracle(e.PS, cold, warm)
}

// Oracle returns the environment's shared omniscient-solve cache, built
// by NewOracle on first use. Every experiment on this environment shares
// the cache, so the omniscient base for a window is solved once per
// process. Reassigning Solve after the oracle exists affects future
// solves — but entries already cached were computed by the previous
// solver; switch solvers with UseGradSolver (which resets the cache)
// rather than reassigning Solve mid-run.
func (e *Env) Oracle() *eval.Oracle {
	if e.oracle == nil {
		e.oracle = e.NewOracle()
	}
	return e.oracle
}

// EvalOptions returns the engine options every experiment on this
// environment shares: its worker pool size and its oracle.
func (e *Env) EvalOptions() eval.Options {
	return eval.Options{Workers: e.Workers, Oracle: e.Oracle()}
}

// UseGradSolver switches per-snapshot solves to the projected-gradient
// solver (iters 0 → 300) — the LP substitute at scales where dense
// simplex would dominate runtime — and enables warm-started oracle solves
// at a reduced iteration budget. It resets the oracle, so call it before
// running experiments.
func (e *Env) UseGradSolver(iters int) {
	if iters == 0 {
		iters = 300
	}
	e.Solve = baselines.GradSolve(solver.Options{Iters: iters})
	e.WarmIters = iters / 2
	if e.WarmIters < 100 {
		e.WarmIters = 100
	}
	e.oracle = nil
}

// fastGraph returns the reduced-size counterpart of a named topology.
func fastGraph(name string) (*graph.Graph, error) {
	switch name {
	case graph.TopoGEANT:
		return graph.GEANT(), nil // already small
	case graph.TopoUsCarrier:
		return graph.RingWithChords(30, 38, 10, 1581)
	case graph.TopoCogentco:
		return graph.RingWithChords(36, 45, 10, 1971)
	case graph.TopoPFabric:
		return graph.PFabric(), nil
	case graph.TopoPoDDB:
		return graph.PoDDB(), nil
	case graph.TopoPoDWEB:
		return graph.PoDWEB(), nil
	case graph.TopoToRDB:
		return graph.RandomRegularish(20, 60, 10, 155)
	case graph.TopoToRWEB:
		return graph.RandomRegularish(26, 91, 10, 324)
	case graph.TopoLargeWAN:
		return graph.RingWithChords(44, 66, 10, 2201)
	default:
		return nil, fmt.Errorf("experiments: unknown topology %q", name)
	}
}

// EnvOptions tweaks environment construction.
type EnvOptions struct {
	// T is the trace length (default 200 fast / 400 full).
	T int
	// K is the candidate-path count (default 3, the paper's setting).
	K int
	// Seed defaults to 1.
	Seed int64
	// Selector overrides path selection (default Yen; Figure 6 passes the
	// Räcke-style selector). Custom selectors must be safe for concurrent
	// use (path precomputation runs on a worker pool).
	Selector te.PathSelector
	// SelectorName content-addresses a custom Selector in the path cache;
	// leaving it empty with a custom Selector disables caching for that
	// environment (see te.PathSetOptions).
	SelectorName string
	// PathWorkers sizes the candidate-path precomputation worker pool
	// (0 = runtime.GOMAXPROCS(0)). The path set is bitwise identical for any
	// value.
	PathWorkers int
	// PathCache, when non-empty, is the directory of an on-disk
	// te.PathStore: the trainer, the evaluation engine and the serving
	// daemon then share one Yen precomputation per (topology, K,
	// selector) across processes instead of each recomputing at startup.
	PathCache string
}

// NewEnv builds the evaluation environment for a named topology.
func NewEnv(topo string, scale Scale, opt EnvOptions) (*Env, error) {
	if opt.T == 0 {
		if scale == ScaleFast {
			opt.T = 200
		} else {
			opt.T = 400
		}
	}
	if opt.K == 0 {
		opt.K = 3
	}
	if opt.Seed == 0 {
		opt.Seed = 1
	}
	var g *graph.Graph
	var err error
	if scale == ScaleFull {
		g, err = graph.ByName(topo)
	} else {
		g, err = fastGraph(topo)
	}
	if err != nil {
		return nil, err
	}
	pso := te.PathSetOptions{
		Workers:      opt.PathWorkers,
		Selector:     opt.Selector,
		SelectorName: opt.SelectorName,
	}
	if opt.PathCache != "" {
		store, err := te.NewPathStore(opt.PathCache)
		if err != nil {
			return nil, err
		}
		pso.Store = store
	}
	ps, err := te.NewPathSetOpt(g, opt.K, pso)
	if err != nil {
		return nil, err
	}
	tr, err := traffic.ForTopology(topo, g.NumVertices(), opt.T, opt.Seed)
	if err != nil {
		return nil, err
	}
	// Scale traffic so the omniscient MLU sits in a realistic band (~0.5):
	// normalize by the mean-demand-driven uniform-config MLU.
	calibrate(ps, tr)
	train, test := tr.Split(0.75)
	return &Env{
		Topo:      topo,
		Scale:     scale,
		G:         g,
		PS:        ps,
		Trace:     tr,
		Train:     train,
		Test:      test,
		Solve:     baselines.AutoSolve(ps),
		Seed:      opt.Seed,
		Paths:     opt.K,
		TestStart: train.Len(),
	}, nil
}

// calibrate rescales the trace so the mean-demand uniform-split MLU is 0.5,
// keeping every topology's utilization in a comparable band regardless of
// generator units.
func calibrate(ps *te.PathSet, tr *traffic.Trace) {
	mean := make([]float64, tr.Pairs.Count())
	for _, s := range tr.Snapshots {
		for i, v := range s {
			mean[i] += v
		}
	}
	for i := range mean {
		mean[i] /= float64(tr.Len())
	}
	u := te.UniformConfig(ps)
	m, _ := ps.MLU(mean, u.R)
	if m > 0 {
		tr.Scale(0.5 / m)
	}
}

// modelConfig fills the hyperparameters cfg leaves zero with the defaults
// every study shares — H 12, γ 1, 8 epochs at the fast scale and 15 at the
// full one — and seeds the model from the environment. Values a study sets
// apart from these are data of its Studies row.
func (e *Env) modelConfig(cfg figret.Config) figret.Config {
	cfg.H = cmp.Or(cfg.H, 12)
	cfg.Gamma = cmp.Or(cfg.Gamma, 1)
	epochs := 15
	if e.Scale == ScaleFast {
		epochs = 8
	}
	cfg.Epochs = cmp.Or(cfg.Epochs, epochs)
	cfg.Seed = e.Seed
	return cfg
}

// trainFigret trains FIGRET alone on tr under modelConfig(cfg).
func (e *Env) trainFigret(cfg figret.Config, tr *traffic.Trace) (*figret.Model, error) {
	m := figret.New(e.PS, e.modelConfig(cfg))
	_, err := m.Train(tr)
	return m, err
}

// TrainModels trains FIGRET and its γ=0 ablation DOTE on the environment's
// training split with shared hyperparameters, modelConfig(cfg).
func (e *Env) TrainModels(cfg figret.Config) (fig, dote *figret.Model, err error) {
	if fig, err = e.trainFigret(cfg, e.Train); err != nil {
		return nil, nil, err
	}
	dote = figret.NewDOTE(e.PS, e.modelConfig(cfg))
	if _, err = dote.Train(e.Train); err != nil {
		return nil, nil, err
	}
	return fig, dote, nil
}
