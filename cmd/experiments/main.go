// Command experiments regenerates the paper's tables and figures on the
// synthetic substrates of this repository and prints paper-shaped text
// output. experiments.Studies is the experiment index: one row per table
// or figure, in the order -exp all runs them.
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
	"io"
	"os"
	"strings"

	"figret/internal/experiments"
	"figret/internal/figret"
	"figret/internal/te"
)

func main() {
	var names []string
	for _, s := range experiments.Studies {
		names = append(names, s.Name)
	}
	var (
		r     runner
		exp   = flag.String("exp", "all", "experiment: "+strings.Join(names, " ")+" all (fig17 is fig16: one study draws both)")
		scale = flag.String("scale", "fast", "fast|full")
		cache = flag.String("pathcache", "", "directory of the on-disk candidate-path cache (shared across figret/experiments/served runs; empty = recompute every run)")
	)
	flag.StringVar(&r.topo, "topo", "", "topology (default: per-experiment paper choice)")
	flag.IntVar(&r.env.T, "T", 0, "trace length (0 = scale default)")
	flag.IntVar(&r.model.H, "H", 0, "history window (0 = default 12)")
	flag.Float64Var(&r.model.Gamma, "gamma", 0, "FIGRET robustness weight (0 = default)")
	flag.IntVar(&r.model.Epochs, "epochs", 0, "training epochs (0 = scale default)")
	flag.Int64Var(&r.env.Seed, "seed", 1, "random seed")
	flag.Parse()

	var err error
	if r.scale, err = experiments.ParseScale(*scale); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(2)
	}
	if r.env.PathStore, err = te.NewPathStore(*cache); err == nil {
		err = r.run(os.Stdout, *exp)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

// runner is the parsed command line: the flags fill the option structs
// the experiments take.
type runner struct {
	scale experiments.Scale
	topo  string
	env   experiments.EnvOptions // -T -seed -pathcache
	model figret.Config          // -H -gamma -epochs
}

// run prints experiment exp, or every study under its banner for "all".
func (r runner) run(w io.Writer, exp string) error {
	if exp == "fig17" {
		exp = "fig16"
	}
	for _, s := range experiments.Studies {
		switch exp {
		case "all":
			fmt.Fprintf(w, "==== %s ====\n", s.Name)
			if err := r.study(w, s); err != nil {
				return fmt.Errorf("%s: %w", s.Name, err)
			}
			fmt.Fprintln(w)
		case s.Name:
			return r.study(w, s)
		}
	}
	if exp != "all" {
		return fmt.Errorf("unknown experiment %q", exp)
	}
	return nil
}

// study runs s on its paper topologies, or on the single -topo override.
// A per-topology study holds one environment at a time.
func (r runner) study(w io.Writer, s experiments.Study) error {
	topos := s.Topos
	if r.topo != "" && len(topos) > 0 {
		topos = []string{r.topo}
	}
	var envs []*experiments.Env
	for _, topo := range topos {
		env, err := s.NewEnv(topo, r.scale, r.env)
		if err != nil {
			return err
		}
		if s.Each == nil {
			envs = append(envs, env)
			continue
		}
		res, err := s.Each(env, r.model)
		if err != nil {
			return err
		}
		fmt.Fprint(w, res)
	}
	if s.All == nil {
		return nil
	}
	res, err := s.All(envs, r.model)
	if err != nil {
		return err
	}
	fmt.Fprint(w, res)
	return nil
}
