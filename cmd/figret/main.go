// Command figret is the library's CLI: generate synthetic traces, train a
// FIGRET (or DOTE) model, evaluate it against baselines, and inspect
// topologies.
//
// Usage:
//
//	figret topo     -topo geant
//	figret gen      -topo tor-db -T 300 -out trace.json
//	figret train    -topo pod-db -T 200 -gamma 1 -epochs 10 -out model.json
//	figret eval     -topo pod-db -T 200 -model model.json
//	figret simulate -topo pod-db -delay 2
//	figret convert  -in trace.csv -n 20 -out trace.fgt
//
// Traces read and write in three formats, picked by file extension: .json
// (dense snapshot arrays), .csv (sparse t,src,dst,demand rows), and .fgt —
// the memory-mapped columnar store of internal/tracestore, the format for
// traces bigger than RAM. gen writes whichever the -out extension names,
// and convert translates between any pair. Synthetic traces are always
// regenerated from (topology, T, seed): generation is a few milliseconds,
// so there is nothing for a cache to save.
//
// Candidate-path precomputation fans out across all CPUs by default
// (-pathworkers pins the pool size; results are bitwise identical for any
// value), and -pathcache names an on-disk path cache shared with the
// experiments and served commands, so a topology's Yen precomputation is
// paid once per machine rather than once per process:
//
//	figret train -topo cogentco -scale full -pathcache ~/.cache/figret-paths -out model.json
//	figret eval  -topo cogentco -scale full -pathcache ~/.cache/figret-paths -model model.json
//
// Training itself is data-parallel: -trainworkers sizes the worker pool
// (0 = all CPUs) with a bitwise worker-count-independent loss trajectory,
// and -macrobatch accumulates that many micro-batches of -batch samples
// per optimizer step (gradient accumulation):
//
//	figret train -topo pod-db -batch 32 -trainworkers 4 -macrobatch 2 -out model.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"figret/internal/baselines"
	"figret/internal/eval"
	"figret/internal/experiments"
	"figret/internal/figret"
	"figret/internal/netsim"
	"figret/internal/te"
	"figret/internal/tracestore"
	"figret/internal/traffic"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	cmd := os.Args[1]
	fs := flag.NewFlagSet(cmd, flag.ExitOnError)
	var (
		topo   = fs.String("topo", "pod-db", "topology name (geant uscarrier cogentco pfabric pod-db pod-web tor-db tor-web large-wan)")
		scale  = fs.String("scale", "fast", "fast|full topology sizing")
		T      = fs.Int("T", 200, "trace length")
		H      = fs.Int("H", 12, "history window")
		gamma  = fs.Float64("gamma", 1, "robustness loss weight (0 = DOTE)")
		epochs = fs.Int("epochs", 10, "training epochs")
		batch  = fs.Int("batch", 1, "training minibatch size (1 = the paper's per-sample protocol; larger batches train faster)")
		seed   = fs.Int64("seed", 1, "random seed")
		out    = fs.String("out", "", "output file (gen/train/convert); gen and convert pick the trace format from the extension: .json, .csv or .fgt")
		model  = fs.String("model", "", "model file (eval)")
		delay  = fs.Int("delay", 1, "controller installation delay in intervals (simulate)")
		in     = fs.String("in", "", "input trace file (convert); format picked from the extension: .json, .csv or .fgt")
		nVerts = fs.Int("n", 0, "vertex count of a .csv input trace (convert; the sparse CSV format does not carry it)")

		pathCache   = fs.String("pathcache", "", "directory of the on-disk candidate-path cache (shared across figret/experiments/served runs; empty = recompute every run)")
		pathWorkers = fs.Int("pathworkers", 0, "candidate-path precomputation worker pool size (0 = all CPUs); the path set is bitwise identical for any value")

		trainWorkers = fs.Int("trainworkers", 0, "training worker pool size (0 = all CPUs); the loss trajectory and trained weights are bitwise identical for any value")
		macroBatch   = fs.Int("macrobatch", 1, "micro-batches accumulated per optimizer step (gradient accumulation; effective batch = batch*macrobatch)")
	)
	if err := fs.Parse(os.Args[2:]); err != nil {
		os.Exit(2)
	}
	sc := experiments.ScaleFast
	if *scale == "full" {
		sc = experiments.ScaleFull
	}
	paths := pathOptions{cache: *pathCache, workers: *pathWorkers}
	train := trainOptions{workers: *trainWorkers, macro: *macroBatch}

	var err error
	switch cmd {
	case "topo":
		err = runTopo(*topo, sc, paths)
	case "gen":
		err = runGen(*topo, sc, *T, *seed, *out, paths)
	case "train":
		err = runTrain(*topo, sc, *T, *H, *gamma, *epochs, *batch, *seed, *out, paths, train)
	case "eval":
		err = runEval(*topo, sc, *T, *H, *seed, *model, paths)
	case "simulate":
		err = runSimulate(*topo, sc, *T, *H, *gamma, *epochs, *batch, *seed, *delay, paths, train)
	case "convert":
		err = runConvert(*in, *out, *nVerts)
	default:
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "figret:", err)
		os.Exit(1)
	}
}

// pathOptions carries the candidate-path precomputation flags.
type pathOptions struct {
	cache   string
	workers int
}

// trainOptions carries the data-parallel training flags. Both knobs are
// perf/memory trades only: every value yields bitwise the same model
// (macro-batches change the optimizer schedule, but deterministically).
type trainOptions struct {
	workers int
	macro   int
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: figret <topo|gen|train|eval|simulate|convert> [flags]
  topo      print topology statistics
  gen       generate a synthetic trace (.json, .csv or .fgt by -out extension)
  train     train a FIGRET model and save it (JSON)
  eval      evaluate a trained model against DOTE/omniscient
  simulate  run the fluid control-loop simulation with controller delay
  convert   translate a trace between .json, .csv and .fgt (memory-mapped store)`)
}

func buildEnv(topo string, sc experiments.Scale, T int, seed int64, paths pathOptions) (*experiments.Env, error) {
	return experiments.NewEnv(topo, sc, experiments.EnvOptions{
		T: T, Seed: seed, PathCache: paths.cache, PathWorkers: paths.workers,
	})
}

func runTopo(topo string, sc experiments.Scale, paths pathOptions) error {
	env, err := buildEnv(topo, sc, 10, 1, paths)
	if err != nil {
		return err
	}
	g := env.G
	fmt.Printf("topology %s: %d nodes, %d directed edges, min capacity %g\n",
		topo, g.NumVertices(), g.NumEdges(), g.MinCapacity())
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
	return nil
}

func runGen(topo string, sc experiments.Scale, T int, seed int64, out string, paths pathOptions) error {
	if out == "" {
		return fmt.Errorf("gen requires -out")
	}
	env, err := buildEnv(topo, sc, T, seed, paths)
	if err != nil {
		return err
	}
	if err := writeTraceFile(out, env.Trace); err != nil {
		return err
	}
	fmt.Printf("wrote %d snapshots (%d pairs) to %s\n", env.Trace.Len(), env.Trace.Pairs.Count(), out)
	return nil
}

// readTraceFile loads a trace in the format named by path's extension.
// n is required only for .csv, whose sparse rows don't carry the vertex
// count. The returned closer releases a .fgt file's memory mapping and
// must be called after the trace's last use; for the other formats it is
// a no-op.
func readTraceFile(path string, n int) (*traffic.Trace, func() error, error) {
	noop := func() error { return nil }
	switch ext := filepath.Ext(path); ext {
	case ".json":
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, nil, err
		}
		tr := new(traffic.Trace)
		if err := json.Unmarshal(data, tr); err != nil {
			return nil, nil, fmt.Errorf("%s: %w", path, err)
		}
		return tr, noop, nil
	case ".csv":
		if n == 0 {
			return nil, nil, fmt.Errorf("reading %s requires -n (CSV does not carry the vertex count)", path)
		}
		f, err := os.Open(path)
		if err != nil {
			return nil, nil, err
		}
		defer f.Close()
		tr, err := traffic.ReadCSV(f, n)
		if err != nil {
			return nil, nil, fmt.Errorf("%s: %w", path, err)
		}
		return tr, noop, nil
	case ".fgt":
		tr, r, err := tracestore.Load(path)
		if err != nil {
			return nil, nil, fmt.Errorf("%s: %w", path, err)
		}
		return tr, r.Close, nil
	default:
		return nil, nil, fmt.Errorf("%s: unknown trace extension %q (want .json, .csv or .fgt)", path, ext)
	}
}

// writeTraceFile writes a trace in the format named by path's extension.
func writeTraceFile(path string, tr *traffic.Trace) error {
	switch ext := filepath.Ext(path); ext {
	case ".json":
		data, err := json.Marshal(tr)
		if err != nil {
			return err
		}
		return os.WriteFile(path, data, 0o644)
	case ".csv":
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		if err := tr.WriteCSV(f); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	case ".fgt":
		return tracestore.WriteTrace(path, tr, tracestore.Options{})
	default:
		return fmt.Errorf("%s: unknown trace extension %q (want .json, .csv or .fgt)", path, ext)
	}
}

// runConvert translates a trace between the three on-disk formats.
// Demand values survive every direction bitwise: JSON floats round-trip
// through strconv, CSV rows use 'g' formatting with full precision, and
// the store serializes raw Float64bits.
func runConvert(in, out string, n int) error {
	if in == "" || out == "" {
		return fmt.Errorf("convert requires -in and -out")
	}
	tr, closer, err := readTraceFile(in, n)
	if err != nil {
		return err
	}
	defer closer()
	if err := writeTraceFile(out, tr); err != nil {
		return err
	}
	fmt.Printf("converted %d snapshots (%d pairs): %s -> %s\n", tr.Len(), tr.Pairs.Count(), in, out)
	return nil
}

func runTrain(topo string, sc experiments.Scale, T, H int, gamma float64, epochs, batch int, seed int64, out string, paths pathOptions, train trainOptions) error {
	if out == "" {
		return fmt.Errorf("train requires -out")
	}
	env, err := buildEnv(topo, sc, T, seed, paths)
	if err != nil {
		return err
	}
	m := figret.New(env.PS, figret.Config{
		H: H, Gamma: gamma, Epochs: epochs, Seed: seed, BatchSize: batch,
		TrainWorkers: train.workers, MacroBatch: train.macro,
	})
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

func runEval(topo string, sc experiments.Scale, T, H int, seed int64, modelPath string, paths pathOptions) error {
	if modelPath == "" {
		return fmt.Errorf("eval requires -model")
	}
	env, err := buildEnv(topo, sc, T, seed, paths)
	if err != nil {
		return err
	}
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
	// The engine evaluates snapshots in parallel and normalizes by its
	// memoized omniscient oracle; results are identical for any -workers.
	run, err := eval.Run([]baselines.Scheme{scheme}, env.Test,
		eval.Window{From: from, To: to}, env.EvalOptions())
	if err != nil {
		return err
	}
	ss := run.Scheme("model")
	fmt.Printf("normalized MLU over %d test snapshots: avg %.3f median %.3f p75 %.3f max %.3f\n",
		len(ss.Norm), ss.Stats.Mean, ss.Stats.Median, ss.Stats.P75, ss.Stats.Max)
	return nil
}

func runSimulate(topo string, sc experiments.Scale, T, H int, gamma float64, epochs, batch int, seed int64, delay int, paths pathOptions, train trainOptions) error {
	env, err := buildEnv(topo, sc, T, seed, paths)
	if err != nil {
		return err
	}
	// Stress the network so losses are visible: scale the trace to push the
	// mean uniform-config MLU toward 1.
	env.Trace.Scale(2)
	m := figret.New(env.PS, figret.Config{
		H: H, Gamma: gamma, Epochs: epochs, Seed: seed, BatchSize: batch,
		TrainWorkers: train.workers, MacroBatch: train.macro,
	})
	if _, err := m.Train(env.Train); err != nil {
		return err
	}
	loop := &netsim.ControlLoop{
		Advise:  func(t int) (*te.Config, error) { return m.PredictAt(env.Test, t) },
		Initial: te.UniformConfig(env.PS),
		Delay:   delay,
	}
	from, to := H, env.Test.Len()
	if to-from > 40 {
		to = from + 40
	}
	res, err := loop.Run(env.Test.At, from, to)
	if err != nil {
		return err
	}
	fmt.Printf("control-loop simulation on %s (delay %d intervals, %d intervals simulated)\n",
		topo, delay, len(res.PerInterval))
	fmt.Printf("mean MLU %.3f, peak MLU %.3f, mean loss %.4f\n", res.MeanMLU, res.PeakMLU, res.MeanLoss)
	return nil
}
