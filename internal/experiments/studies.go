package experiments

import (
	"cmp"
	"fmt"

	"figret/internal/baselines"
	"figret/internal/figret"
	"figret/internal/graph"
	"figret/internal/te"
)

// Study is one row of the experiment index: a table or figure of the paper
// and how to regenerate it. A driver builds the environments of Topos (or
// of the one topology its user asked for instead) with NewEnv and prints
// what the study returns.
//
// Exactly one of Each and All is set. Each runs once per topology, and its
// driver must build, run and drop one environment at a time: a full-scale
// tor-web trace alone is 400 × 104,652 × 8 B ≈ 335 MB. All takes every
// environment at once — the cross-topology candlesticks of fig4/fig18,
// whose fast-scale traces are small — or none, for a study with no Topos.
//
// cfg carries the hyperparameters the caller chose (zero = default); a
// study whose defaults differ from Env.modelConfig's says so in its row.
type Study struct {
	Name  string
	Topos []string // the paper's choice for this table or figure
	// GradSolver switches environments past the LP's comfortable size to
	// the projected-gradient solver before the study runs.
	GradSolver bool
	// Selector and SelectorName replace Yen path selection (fig6).
	Selector     te.PathSelector
	SelectorName string

	Each func(env *Env, cfg figret.Config) (fmt.Stringer, error)
	All  func(envs []*Env, cfg figret.Config) (fmt.Stringer, error)
}

// lpRows is the environment's LP size in constraint rows; up to
// smallLPRows of them the dense simplex (and Oblivious/COPE's
// cutting-plane loop on top of it) stays cheap per snapshot.
func (e *Env) lpRows() int { return e.PS.Pairs.Count() + e.G.NumEdges() }

const smallLPRows = 200

// NewEnv builds topo's environment as the study needs it: through the
// row's path selector, and on the gradient solver if the row asks for it
// and the environment is past smallLPRows.
func (s Study) NewEnv(topo string, scale Scale, opt EnvOptions) (*Env, error) {
	opt.Selector, opt.SelectorName = s.Selector, s.SelectorName
	env, err := NewEnv(topo, scale, opt)
	if err != nil {
		return nil, err
	}
	if s.GradSolver && env.lpRows() > smallLPRows {
		env.UseGradSolver(0)
	}
	return env, nil
}

// text is a study's output when it is more than one result's String.
type text string

func (t text) String() string { return string(t) }

// str adapts a study function's typed result to Study's signature.
func str[T fmt.Stringer](res T, err error) (fmt.Stringer, error) {
	if err != nil {
		return nil, err
	}
	return res, nil
}

// quality is the fig5/fig6 row body: Oblivious and COPE join where the LP
// is small enough to iterate.
func quality(prefix string) func(*Env, figret.Config) (fmt.Stringer, error) {
	return func(env *Env, cfg figret.Config) (fmt.Stringer, error) {
		res, err := TEQuality(env, cfg, QualityOptions{MaxEval: 30, WithOblivious: env.lpRows() <= smallLPRows})
		if err != nil {
			return nil, err
		}
		return text(prefix + res.String() + "\n"), nil
	}
}

func perturbation(worstCase bool) func(*Env, figret.Config) (fmt.Stringer, error) {
	return func(env *Env, cfg figret.Config) (fmt.Stringer, error) {
		return str(Perturbation(env, cfg, nil, worstCase))
	}
}

func similarity(h int) func([]*Env, figret.Config) (fmt.Stringer, error) {
	return func(envs []*Env, cfg figret.Config) (fmt.Stringer, error) {
		return CosineSimilarity(envs, cmp.Or(cfg.H, h)), nil
	}
}

var (
	wanPodToR    = []string{graph.TopoGEANT, graph.TopoPoDDB, graph.TopoToRDB}
	podFabricToR = []string{graph.TopoPoDDB, graph.TopoPFabric, graph.TopoToRDB}
	podToR       = []string{graph.TopoPoDDB, graph.TopoToRDB}
)

// Studies is every experiment, in the order `experiments -exp all` runs
// them. fig17 has no row: fig16's study draws both.
var Studies = []Study{
	{Name: "fig1", Topos: wanPodToR, GradSolver: true,
		Each: func(env *Env, _ figret.Config) (fmt.Stringer, error) { return str(Hedging(env, 40)) }},
	{Name: "fig2", Topos: wanPodToR,
		Each: func(env *Env, _ figret.Config) (fmt.Stringer, error) { return VarianceHeterogeneity(env), nil }},
	{Name: "fig4", Topos: graph.AllTopologies(), All: similarity(12)},
	{Name: "fig5", GradSolver: true,
		Topos: []string{graph.TopoGEANT, graph.TopoPFabric, graph.TopoPoDDB, graph.TopoPoDWEB,
			graph.TopoToRDB, graph.TopoToRWEB, graph.TopoCogentco, graph.TopoUsCarrier},
		Each: func(env *Env, cfg figret.Config) (fmt.Stringer, error) {
			if env.Topo == graph.TopoToRDB || env.Topo == graph.TopoToRWEB {
				cfg.Gamma = cmp.Or(cfg.Gamma, 2) // the bursty ToR fabrics
			}
			return quality("")(env, cfg)
		}},
	// The selector name pins the path-cache key to RaeckeSelector's
	// default inflation; bump it if the inflation argument changes.
	{Name: "fig6", Topos: []string{graph.TopoGEANT, graph.TopoPFabric}, GradSolver: true,
		Selector: baselines.RaeckeSelector(0), SelectorName: "raecke-8",
		Each: quality("(Räcke-style paths) ")},
	{Name: "fig7", Topos: []string{graph.TopoGEANT, graph.TopoPFabric, graph.TopoToRDB},
		Each: func(env *Env, cfg figret.Config) (fmt.Stringer, error) {
			return str(Failures(env, cfg, FailureOptions{}))
		}},
	{Name: "fig8", Topos: podToR, GradSolver: true,
		Each: func(env *Env, cfg figret.Config) (fmt.Stringer, error) {
			cfg.Gamma = cmp.Or(cfg.Gamma, 8)
			return str(SensitivityAnalysis(env, cfg, 20))
		}},
	{Name: "fig16", Topos: podToR,
		Each: func(env *Env, _ figret.Config) (fmt.Stringer, error) { return str(VisualizeDrift(env, 100)) }},
	{Name: "fig18", Topos: graph.AllTopologies(), All: similarity(64)},
	{Name: "fig19",
		All: func([]*Env, figret.Config) (fmt.Stringer, error) { return str(PredictionMismatch()) }},
	{Name: "fig20", Topos: []string{graph.TopoToRDB},
		Each: func(env *Env, cfg figret.Config) (fmt.Stringer, error) {
			cfg.H, cfg.Gamma = cmp.Or(cfg.H, 6), cmp.Or(cfg.Gamma, 2)
			return str(DOTEFailureCase(env, cfg))
		}},
	{Name: "mluproxy", Topos: []string{graph.TopoPoDDB},
		Each: func(env *Env, _ figret.Config) (fmt.Stringer, error) { return str(MLUProxy(env, 30)) }},
	{Name: "table2", Topos: []string{graph.TopoGEANT, graph.TopoToRDB, graph.TopoToRWEB},
		Each: func(env *Env, cfg figret.Config) (fmt.Stringer, error) {
			// A short training run, the same at either scale, for the
			// precomputation column; γ does not move what is timed.
			return str(Timing(env, figret.Config{H: cfg.H, Epochs: cmp.Or(cfg.Epochs, 3)}))
		}},
	{Name: "table3", Topos: podFabricToR, Each: perturbation(false)},
	{Name: "table4", Topos: podFabricToR,
		Each: func(env *Env, cfg figret.Config) (fmt.Stringer, error) {
			cfg.Epochs = cmp.Or(cfg.Epochs, 8) // four models per topology: fast-scale epochs at either scale
			return str(Drift(env, cfg))
		}},
	{Name: "table5", Topos: podFabricToR, Each: perturbation(true)},
	{Name: "appc", Topos: []string{graph.TopoPoDDB},
		Each: func(env *Env, _ figret.Config) (fmt.Stringer, error) {
			var out text
			for _, kind := range []string{"linear", "piecewise"} {
				res, err := HeuristicF(env, kind, 40)
				if err != nil {
					return nil, err
				}
				out += text(res.String() + "\n")
			}
			return out, nil
		}},
}
