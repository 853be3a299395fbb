// Command experiments regenerates the paper's tables and figures on the
// synthetic substrates of this repository and prints paper-shaped text
// output. See DESIGN.md §4 for the experiment index.
//
// Usage:
//
//	experiments -exp fig5 -topo pod-db
//	experiments -exp all -scale fast
//	experiments -exp table2 -topo geant -scale full
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"

	"figret/internal/baselines"
	"figret/internal/experiments"
	"figret/internal/figret"
	"figret/internal/graph"
)

// experimentNames is every experiment, in the order -exp all runs them.
var experimentNames = []string{"fig1", "fig2", "fig4", "fig5", "fig6", "fig7",
	"fig8", "fig16", "fig18", "fig19", "fig20", "mluproxy", "table2", "table3",
	"table4", "table5", "appc"}

func main() {
	var (
		r     runner
		exp   = flag.String("exp", "all", "experiment: "+strings.Join(experimentNames, " ")+" all (fig17 is fig16: one study draws both)")
		scale = flag.String("scale", "fast", "fast|full")
	)
	flag.StringVar(&r.topo, "topo", "", "topology (default: per-experiment paper choice)")
	flag.IntVar(&r.env.T, "T", 0, "trace length (0 = scale default)")
	flag.IntVar(&r.model.H, "H", 0, "history window (0 = default 12)")
	flag.Float64Var(&r.model.Gamma, "gamma", 0, "FIGRET robustness weight (0 = default)")
	flag.IntVar(&r.model.Epochs, "epochs", 0, "training epochs (0 = scale default)")
	flag.Int64Var(&r.env.Seed, "seed", 1, "random seed")
	flag.IntVar(&r.workers, "workers", runtime.GOMAXPROCS(0), "evaluation worker pool size; results are bitwise identical for any worker count")
	flag.StringVar(&r.env.PathCache, "pathcache", "", "directory of the on-disk candidate-path cache (shared across figret/experiments/served runs; empty = recompute every run)")
	flag.IntVar(&r.env.PathWorkers, "pathworkers", 0, "candidate-path precomputation worker pool size (0 = all CPUs); the path set is bitwise identical for any value")
	flag.Parse()

	if *scale == "full" {
		r.scale = experiments.ScaleFull
	}
	if err := r.run(*exp); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

// runner is the parsed command line: the flags fill the option structs
// the experiments take.
type runner struct {
	scale   experiments.Scale
	topo    string
	workers int
	env     experiments.EnvOptions // -T -seed -pathcache -pathworkers
	model   figret.Config          // -H -gamma -epochs
}

// newEnv builds topo's environment (the -topo override wins).
func (r runner) newEnv(topo string) (*experiments.Env, error) {
	if r.topo != "" {
		topo = r.topo
	}
	env, err := experiments.NewEnv(topo, r.scale, r.env)
	if err != nil {
		return nil, err
	}
	env.Workers = r.workers
	return env, nil
}

func (r runner) run(exp string) error {
	switch exp {
	case "all":
		for _, e := range experimentNames {
			fmt.Printf("==== %s ====\n", e)
			if err := r.run(e); err != nil {
				return fmt.Errorf("%s: %w", e, err)
			}
			fmt.Println()
		}
		return nil

	case "fig1":
		for _, topo := range r.topos(graph.TopoGEANT, graph.TopoPoDDB, graph.TopoToRDB) {
			env, err := r.newEnv(topo)
			if err != nil {
				return err
			}
			if env.PS.Pairs.Count() > 200 {
				env.UseGradSolver(0)
			}
			res, err := experiments.Hedging(env, 40)
			if err != nil {
				return err
			}
			fmt.Print(res)
		}
		return nil

	case "fig2":
		for _, topo := range r.topos(graph.TopoGEANT, graph.TopoPoDDB, graph.TopoToRDB) {
			env, err := r.newEnv(topo)
			if err != nil {
				return err
			}
			fmt.Print(experiments.VarianceHeterogeneity(env))
		}
		return nil

	case "fig4", "fig18":
		h := 12
		if exp == "fig18" {
			h = 64
		}
		if r.model.H != 0 {
			h = r.model.H
		}
		var envs []*experiments.Env
		for _, topo := range r.topos(graph.AllTopologies()...) {
			env, err := r.newEnv(topo)
			if err != nil {
				return err
			}
			envs = append(envs, env)
		}
		fmt.Print(experiments.CosineSimilarity(envs, h))
		return nil

	case "fig5":
		for _, topo := range r.topos(graph.TopoGEANT, graph.TopoPFabric, graph.TopoPoDDB,
			graph.TopoPoDWEB, graph.TopoToRDB, graph.TopoToRWEB, graph.TopoCogentco, graph.TopoUsCarrier) {
			env, err := r.newEnv(topo)
			if err != nil {
				return err
			}
			opt := experiments.QualityOptions{H: r.model.H, Gamma: r.model.Gamma, Epochs: r.model.Epochs, MaxEval: 30}
			small := env.PS.Pairs.Count()+env.G.NumEdges() <= 200
			opt.WithOblivious = small
			if !small {
				env.UseGradSolver(0)
			}
			if env.Topo == graph.TopoToRDB || env.Topo == graph.TopoToRWEB {
				if opt.Gamma == 0 {
					opt.Gamma = 2
				}
			}
			res, err := experiments.TEQuality(env, opt)
			if err != nil {
				return err
			}
			fmt.Print(res)
			fmt.Println()
		}
		return nil

	case "fig6":
		r.env.Selector = baselines.RaeckeSelector(0)
		// The selector name pins the cache key to the default inflation;
		// bump it if the inflation argument changes.
		r.env.SelectorName = "raecke-8"
		for _, topo := range r.topos(graph.TopoGEANT, graph.TopoPFabric) {
			env, err := r.newEnv(topo)
			if err != nil {
				return err
			}
			if env.PS.Pairs.Count()+env.G.NumEdges() > 200 {
				env.UseGradSolver(0)
			}
			res, err := experiments.TEQuality(env, experiments.QualityOptions{
				H: r.model.H, Gamma: r.model.Gamma, Epochs: r.model.Epochs, MaxEval: 30,
				WithOblivious: env.PS.Pairs.Count()+env.G.NumEdges() <= 200})
			if err != nil {
				return err
			}
			fmt.Printf("(Räcke-style paths) %s", res)
			fmt.Println()
		}
		return nil

	case "fig7":
		for _, topo := range r.topos(graph.TopoGEANT, graph.TopoPFabric, graph.TopoToRDB) {
			env, err := r.newEnv(topo)
			if err != nil {
				return err
			}
			res, err := experiments.Failures(env, experiments.FailureOptions{
				H: r.model.H, Gamma: r.model.Gamma, Epochs: r.model.Epochs})
			if err != nil {
				return err
			}
			fmt.Print(res)
		}
		return nil

	case "fig8":
		for _, topo := range r.topos(graph.TopoPoDDB, graph.TopoToRDB) {
			env, err := r.newEnv(topo)
			if err != nil {
				return err
			}
			if env.PS.Pairs.Count() > 200 {
				env.UseGradSolver(0)
			}
			g := r.model.Gamma
			if g == 0 {
				g = 8
			}
			res, err := experiments.SensitivityAnalysis(env, r.model.H, g, r.model.Epochs, 20)
			if err != nil {
				return err
			}
			fmt.Print(res)
		}
		return nil

	case "fig16", "fig17":
		for _, topo := range r.topos(graph.TopoPoDDB, graph.TopoToRDB) {
			env, err := r.newEnv(topo)
			if err != nil {
				return err
			}
			res, err := experiments.VisualizeDrift(env, 100)
			if err != nil {
				return err
			}
			fmt.Print(res)
		}
		return nil

	case "fig19":
		res, err := experiments.PredictionMismatch()
		if err != nil {
			return err
		}
		fmt.Print(res)
		return nil

	case "fig20":
		env, err := r.newEnv(graph.TopoToRDB)
		if err != nil {
			return err
		}
		res, err := experiments.DOTEFailureCase(env, r.model.H, r.model.Gamma, r.model.Epochs)
		if err != nil {
			return err
		}
		fmt.Print(res)
		return nil

	case "mluproxy":
		env, err := r.newEnv(graph.TopoPoDDB)
		if err != nil {
			return err
		}
		res, err := experiments.MLUProxy(env, 30)
		if err != nil {
			return err
		}
		fmt.Print(res)
		return nil

	case "table2":
		for _, topo := range r.topos(graph.TopoGEANT, graph.TopoToRDB, graph.TopoToRWEB) {
			env, err := r.newEnv(topo)
			if err != nil {
				return err
			}
			res, err := experiments.Timing(env, experiments.TimingOptions{H: r.model.H, Epochs: r.model.Epochs})
			if err != nil {
				return err
			}
			fmt.Print(res)
		}
		return nil

	case "table3", "table5":
		worst := exp == "table5"
		for _, topo := range r.topos(graph.TopoPoDDB, graph.TopoPFabric, graph.TopoToRDB) {
			env, err := r.newEnv(topo)
			if err != nil {
				return err
			}
			res, err := experiments.Perturbation(env, r.model.H, r.model.Gamma, r.model.Epochs, nil, worst)
			if err != nil {
				return err
			}
			fmt.Print(res)
		}
		return nil

	case "table4":
		for _, topo := range r.topos(graph.TopoPoDDB, graph.TopoPFabric, graph.TopoToRDB) {
			env, err := r.newEnv(topo)
			if err != nil {
				return err
			}
			res, err := experiments.Drift(env, r.model.H, r.model.Gamma, r.model.Epochs)
			if err != nil {
				return err
			}
			fmt.Print(res)
		}
		return nil

	case "appc":
		env, err := r.newEnv(graph.TopoPoDDB)
		if err != nil {
			return err
		}
		for _, kind := range []string{"linear", "piecewise"} {
			res, err := experiments.HeuristicF(env, kind, 0)
			if err != nil {
				return err
			}
			fmt.Print(res)
			fmt.Println()
		}
		return nil

	default:
		return fmt.Errorf("unknown experiment %q", exp)
	}
}

// topos returns the default topology list, or the single -topo override.
func (r runner) topos(defaults ...string) []string {
	if r.topo != "" {
		return []string{r.topo}
	}
	return defaults
}
