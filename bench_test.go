// Package bench holds the design-choice ablations of DESIGN.md §5. Each
// trains or solves at ScaleFast sizing and reports a quality metric
// (avg-mlu, mlu, mlu-vs-ideal); its ns/op is not a measurement. Time is
// measured by benchmark/ (BENCHMARK.json names every per-layer metric),
// allocation counts are gated by the alloc-contract tests in tier-1.
//
//	go test -run '^$' -bench . -benchtime 1x .
package bench

import (
	"math/rand"
	"strconv"
	"testing"

	"figret/internal/experiments"
	"figret/internal/figret"
	"figret/internal/graph"
	"figret/internal/lp"
	"figret/internal/solver"
	"figret/internal/te"
)

func fastEnv(b *testing.B, topo string, T, k int) *experiments.Env {
	b.Helper()
	env, err := experiments.NewEnv(topo, experiments.ScaleFast, experiments.EnvOptions{T: T, Seed: 2, K: k})
	if err != nil {
		b.Fatal(err)
	}
	return env
}

// geant returns GEANT's 3-shortest-path set and one seeded demand matrix.
func geant(b *testing.B) (*te.PathSet, []float64) {
	b.Helper()
	ps, err := te.NewPathSet(graph.GEANT(), 3, nil)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	d := make([]float64, ps.Pairs.Count())
	for i := range d {
		d[i] = rng.Float64() * 2
	}
	return ps, d
}

// ablate runs one sub-benchmark: train cfg on env's training split and
// report the mean MLU of its decisions over the test split.
func ablate(b *testing.B, name string, env *experiments.Env, cfg figret.Config) {
	b.Run(name, func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			m := figret.New(env.PS, cfg)
			if _, err := m.Train(env.Train); err != nil {
				b.Fatal(err)
			}
			var sum float64
			for t := cfg.H; t < env.Test.Len(); t++ {
				c, err := m.PredictAt(env.Test, t)
				if err != nil {
					b.Fatal(err)
				}
				sum += c.MLU(env.Test.At(t))
			}
			b.ReportMetric(sum/float64(env.Test.Len()-cfg.H), "avg-mlu")
		}
	})
}

func BenchmarkAblationGamma(b *testing.B) {
	env := fastEnv(b, graph.TopoToRDB, 140, 0)
	for _, gamma := range []float64{0, 0.5, 2, 8} {
		ablate(b, strconv.FormatFloat(gamma, 'g', -1, 64), env, figret.Config{H: 6, Gamma: gamma, Epochs: 6, Seed: 2})
	}
}

// BenchmarkAblationLossTerm is the central design choice: variance-weighted
// (fine-grained) L2 vs a uniform (coarse-grained, Des-TE-like) L2 vs none
// (DOTE).
func BenchmarkAblationLossTerm(b *testing.B) {
	env := fastEnv(b, graph.TopoToRDB, 140, 0)
	ablate(b, "fine-grained", env, figret.Config{H: 6, Gamma: 2, Epochs: 6, Seed: 2})
	ablate(b, "coarse-grained", env, figret.Config{H: 6, Gamma: 2, Epochs: 6, Seed: 2, CoarseGrained: true})
	ablate(b, "none-dote", env, figret.Config{H: 6, Gamma: 0, Epochs: 6, Seed: 2})
}

func BenchmarkAblationWindow(b *testing.B) {
	env := fastEnv(b, graph.TopoPoDDB, 140, 0)
	for _, h := range []int{1, 6, 12} {
		ablate(b, strconv.Itoa(h), env, figret.Config{H: h, Gamma: 1, Epochs: 6, Seed: 2})
	}
}

func BenchmarkAblationPaths(b *testing.B) {
	for _, k := range []int{1, 3, 5} {
		ablate(b, strconv.Itoa(k), fastEnv(b, graph.TopoPoDDB, 120, k), figret.Config{H: 6, Gamma: 1, Epochs: 5, Seed: 2})
	}
}

func BenchmarkSolverVsLP(b *testing.B) {
	ps, d := geant(b)
	b.Run("lp", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_, obj, err := lp.MLUMin(ps, d)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(obj, "mlu")
		}
	})
	b.Run("grad", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_, obj := solver.MinimizeMLU(ps, d, solver.Options{Iters: 600})
			b.ReportMetric(obj, "mlu")
		}
	})
}

// BenchmarkAblationWCMP is the MLU cost of hardware WCMP quantization at
// different table sizes, relative to ideal real-valued splits.
func BenchmarkAblationWCMP(b *testing.B) {
	ps, d := geant(b)
	cfg, _ := solver.MinimizeMLU(ps, d, solver.Options{Iters: 300})
	ideal, _ := ps.MLU(d, cfg.R)
	for _, size := range []int{4, 16, 64} {
		b.Run(strconv.Itoa(size), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				q, err := te.QuantizeWCMP(cfg, size)
				if err != nil {
					b.Fatal(err)
				}
				m, _ := ps.MLU(d, q.R)
				b.ReportMetric(m/ideal, "mlu-vs-ideal")
			}
		})
	}
}
