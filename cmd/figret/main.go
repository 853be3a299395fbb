// Command figret is the library's CLI: train a FIGRET (or DOTE) model,
// evaluate it against baselines, run it in the fluid control loop, and
// inspect topologies.
//
// Usage:
//
//	figret topo     -topo geant
//	figret train    -topo pod-db -T 200 -gamma 1 -epochs 10 -out model.json
//	figret eval     -topo pod-db -T 200 -model model.json
//	figret simulate -topo pod-db -delay 2
//
// Traces are always regenerated from (topology, T, seed): generation is a
// few milliseconds, so no command reads or writes a trace file. The one
// file that crosses processes is the model JSON train writes, which eval
// loads and a served daemon accepts on POST …/checkpoints.
//
// Candidate-path precomputation and training fan out over GOMAXPROCS
// goroutines, with results bitwise identical for any worker count
// (GOMAXPROCS=1 confines the whole run to one core). -pathcache names an
// on-disk path cache shared with the experiments and served commands, so a
// topology's Yen precomputation is paid once per machine rather than once
// per process:
//
//	figret train -topo cogentco -scale full -pathcache ~/.cache/figret-paths -out model.json
//	figret eval  -topo cogentco -scale full -pathcache ~/.cache/figret-paths -model model.json
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"

	"figret/internal/baselines"
	"figret/internal/eval"
	"figret/internal/experiments"
	"figret/internal/figret"
	"figret/internal/netsim"
	"figret/internal/te"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	cmd := os.Args[1]
	switch cmd {
	case "topo", "train", "eval", "simulate":
	default:
		usage()
		os.Exit(2)
	}
	fs := flag.NewFlagSet(cmd, flag.ExitOnError)
	var (
		envOpt experiments.EnvOptions
		cfg    figret.Config

		topo  = fs.String("topo", "pod-db", "topology name (geant uscarrier cogentco pfabric pod-db pod-web tor-db tor-web large-wan)")
		scale = fs.String("scale", "fast", "fast|full topology sizing")
		out   = fs.String("out", "", "output model file (train)")
		model = fs.String("model", "", "model file (eval)")
		delay = fs.Int("delay", 1, "controller installation delay in intervals (simulate)")
	)
	fs.IntVar(&envOpt.T, "T", 200, "trace length")
	fs.Int64Var(&envOpt.Seed, "seed", 1, "random seed")
	fs.StringVar(&envOpt.PathCache, "pathcache", "", "directory of the on-disk candidate-path cache (shared across figret/experiments/served runs; empty = recompute every run)")
	fs.IntVar(&cfg.H, "H", 12, "history window")
	fs.Float64Var(&cfg.Gamma, "gamma", 1, "robustness loss weight (0 = DOTE)")
	fs.IntVar(&cfg.Epochs, "epochs", 10, "training epochs")
	fs.IntVar(&cfg.BatchSize, "batch", 1, "training minibatch size (1 = the paper's per-sample protocol; larger batches train faster)")
	if err := fs.Parse(os.Args[2:]); err != nil {
		os.Exit(2)
	}
	cfg.Seed = envOpt.Seed
	sc, err := experiments.ParseScale(*scale)
	if err != nil {
		fmt.Fprintln(os.Stderr, "figret:", err)
		os.Exit(2)
	}

	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "figret:", err)
		os.Exit(1)
	}
	switch {
	case cmd == "train" && *out == "":
		fail(errors.New("train requires -out"))
	case cmd == "eval" && *model == "":
		fail(errors.New("eval requires -model"))
	}
	env, err := experiments.NewEnv(*topo, sc, envOpt)
	if err != nil {
		fail(err)
	}
	switch cmd {
	case "topo":
		runTopo(env)
	case "train":
		err = runTrain(env, cfg, *out)
	case "eval":
		err = runEval(env, *model)
	case "simulate":
		err = runSimulate(env, cfg, *delay)
	}
	if err != nil {
		fail(err)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: figret <topo|train|eval|simulate> [flags]
  topo      print topology statistics
  train     train a FIGRET model and save it (JSON)
  eval      evaluate a trained model against DOTE/omniscient
  simulate  run the fluid control-loop simulation with controller delay`)
}

func runTopo(env *experiments.Env) {
	g := env.G
	fmt.Printf("topology %s: %d nodes, %d directed edges, min capacity %g\n",
		env.Topo, g.NumVertices(), g.NumEdges(), g.MinCapacity())
	fmt.Printf("SD pairs: %d, candidate paths: %d (K=%d)\n",
		env.PS.Pairs.Count(), env.PS.NumPaths(), env.Paths)
	degs := g.Degrees()
	min, max := degs[0], degs[0]
	for _, d := range degs {
		if d < min {
			min = d
		}
		if d > max {
			max = d
		}
	}
	fmt.Printf("out-degree: min %d, max %d\n", min, max)
}

func runTrain(env *experiments.Env, cfg figret.Config, out string) error {
	m := figret.New(env.PS, cfg)
	stats, err := m.Train(env.Train)
	if err != nil {
		return err
	}
	fmt.Printf("trained %d epochs; train MLU %0.4f -> %0.4f\n",
		len(stats.EpochMLU), stats.EpochMLU[0], stats.EpochMLU[len(stats.EpochMLU)-1])
	data, err := json.Marshal(m)
	if err != nil {
		return err
	}
	if err := os.WriteFile(out, data, 0o644); err != nil {
		return err
	}
	fmt.Printf("saved model (%d parameters) to %s\n", m.Net.NumParams(), out)
	return nil
}

func runEval(env *experiments.Env, modelPath string) error {
	data, err := os.ReadFile(modelPath)
	if err != nil {
		return err
	}
	m, err := figret.LoadModel(env.PS, data)
	if err != nil {
		return err
	}
	h := m.Cfg.H
	scheme := &baselines.NNScheme{Label: "model", Model: m}
	from, to := h, env.Test.Len()
	if to-from > 40 {
		to = from + 40
	}
	// The engine evaluates snapshots in parallel (on every CPU) and
	// normalizes by its memoized omniscient oracle; results are identical
	// for any worker count.
	run, err := eval.Run([]baselines.Scheme{scheme}, env.Test,
		eval.Window{From: from, To: to}, eval.Options{Oracle: env.Oracle()})
	if err != nil {
		return err
	}
	ss := run.Scheme("model")
	fmt.Printf("normalized MLU over %d test snapshots: avg %.3f median %.3f p75 %.3f max %.3f\n",
		len(ss.Norm), ss.Stats.Mean, ss.Stats.Median, ss.Stats.P75, ss.Stats.Max)
	return nil
}

func runSimulate(env *experiments.Env, cfg figret.Config, delay int) error {
	// Stress the network so losses are visible: scale the trace to push the
	// mean uniform-config MLU toward 1.
	env.Trace.Scale(2)
	m := figret.New(env.PS, cfg)
	if _, err := m.Train(env.Train); err != nil {
		return err
	}
	loop := &netsim.ControlLoop{
		Advise:  func(t int) (*te.Config, error) { return m.PredictAt(env.Test, t) },
		Initial: te.UniformConfig(env.PS),
		Delay:   delay,
	}
	// The model's H, not the flag's: figret.New turns -H 0 into the
	// default window.
	from, to := m.Cfg.H, env.Test.Len()
	if to-from > 40 {
		to = from + 40
	}
	res, err := loop.Run(env.Test.At, from, to)
	if err != nil {
		return err
	}
	fmt.Printf("control-loop simulation on %s (delay %d intervals, %d intervals simulated)\n",
		env.Topo, delay, len(res.PerInterval))
	fmt.Printf("mean MLU %.3f, peak MLU %.3f, mean loss %.4f\n", res.MeanMLU, res.PeakMLU, res.MeanLoss)
	return nil
}
