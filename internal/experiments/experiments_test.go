package experiments

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"figret/internal/baselines"
	"figret/internal/figret"
	"figret/internal/graph"
	"figret/internal/lp"
	"figret/internal/solver"
	"figret/internal/te"
)

// Small shared environments for the integration tests. Sizes are trimmed so
// the whole package tests in well under a minute.

func podEnv(t *testing.T) *Env {
	t.Helper()
	env, err := NewEnv(graph.TopoPoDDB, ScaleFast, EnvOptions{T: 140, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	return env
}

func TestNewEnvAllTopologiesFast(t *testing.T) {
	for _, topo := range graph.AllTopologies() {
		env, err := NewEnv(topo, ScaleFast, EnvOptions{T: 30})
		if err != nil {
			t.Errorf("%s: %v", topo, err)
			continue
		}
		if env.Trace.Len() != 30 {
			t.Errorf("%s: trace len %d", topo, env.Trace.Len())
		}
		if env.Train.Len() == 0 || env.Test.Len() == 0 {
			t.Errorf("%s: empty split", topo)
		}
		if !env.G.Connected() {
			t.Errorf("%s: disconnected fast graph", topo)
		}
	}
	if _, err := NewEnv("nope", ScaleFast, EnvOptions{}); err == nil {
		t.Error("unknown topology accepted")
	}
}

func TestCalibration(t *testing.T) {
	env := podEnv(t)
	// Mean-demand uniform MLU should be ~0.5 after calibration.
	mean := make([]float64, env.PS.Pairs.Count())
	for _, s := range env.Trace.Snapshots {
		for i, v := range s {
			mean[i] += v
		}
	}
	for i := range mean {
		mean[i] /= float64(env.Trace.Len())
	}
	u := 0.0
	cfg := env.PS
	uc := teUniform(env)
	u, _ = cfg.MLU(mean, uc)
	if math.Abs(u-0.5) > 1e-6 {
		t.Errorf("calibrated uniform MLU = %v, want 0.5", u)
	}
}

func teUniform(env *Env) []float64 {
	r := make([]float64, env.PS.NumPaths())
	for _, pp := range env.PS.PairPaths {
		w := 1 / float64(len(pp))
		for _, p := range pp {
			r[p] = w
		}
	}
	return r
}

func TestHedgingShape(t *testing.T) {
	env := podEnv(t)
	res, err := Hedging(env, 25)
	if err != nil {
		t.Fatal(err)
	}
	// The Figure 1 trade-off: hedging trims the no-hedge peak.
	if res.PeakHedge >= res.PeakNoHedge {
		t.Errorf("hedging peak %v not below no-hedge peak %v", res.PeakHedge, res.PeakNoHedge)
	}
	if !strings.Contains(res.String(), "no-hedge") {
		t.Error("render missing strategies")
	}
}

func TestVarianceHeterogeneity(t *testing.T) {
	env := podEnv(t)
	res := VarianceHeterogeneity(env)
	if res.Heterogeneity <= 1 {
		t.Errorf("heterogeneity %v should exceed 1 on a bursty DC trace", res.Heterogeneity)
	}
	if res.TopShare <= 0.1 {
		t.Errorf("top-10%% share %v too small for heavy-tailed variance", res.TopShare)
	}
	if !strings.Contains(res.String(), "heatmap") {
		t.Error("small topology should render heatmap")
	}
}

func TestCosineSimilarityOrdering(t *testing.T) {
	geant, err := NewEnv(graph.TopoGEANT, ScaleFast, EnvOptions{T: 160})
	if err != nil {
		t.Fatal(err)
	}
	tor, err := NewEnv(graph.TopoToRDB, ScaleFast, EnvOptions{T: 160})
	if err != nil {
		t.Fatal(err)
	}
	res := CosineSimilarity([]*Env{geant, tor}, 12)
	if len(res.Entries) != 2 {
		t.Fatalf("entries = %d", len(res.Entries))
	}
	if res.Entries[0].Stats.P25 <= res.Entries[1].Stats.P25 {
		t.Errorf("WAN p25 %v should exceed ToR p25 %v",
			res.Entries[0].Stats.P25, res.Entries[1].Stats.P25)
	}
}

func TestTEQualityShape(t *testing.T) {
	env := podEnv(t)
	res, err := TEQuality(env, figret.Config{H: 6, Epochs: 6}, QualityOptions{MaxEval: 20, WithOblivious: true})
	if err != nil {
		t.Fatal(err)
	}
	names := []string{"FIGRET", "DOTE", "Des TE", "Pred TE", "TEAL", "Oblivious", "COPE"}
	for _, n := range names {
		if res.Scheme(n) == nil {
			t.Fatalf("scheme %s missing", n)
		}
	}
	// Normalized MLU is >= 1 up to small solver noise.
	for _, s := range res.Schemes {
		if s.Stats.Min < 0.98 {
			t.Errorf("%s: normalized min %v < 1", s.Name, s.Stats.Min)
		}
	}
	// On this near-stable PoD profile FIGRET must beat the constant-cap
	// Des TE on average and stay in DOTE's band (the paper's "performs at
	// least as well as DOTE" holds at full training scale; the toy-scale
	// band is wider).
	figret := res.Scheme("FIGRET").AvgMLU
	if figret > res.Scheme("Des TE").AvgMLU {
		t.Errorf("FIGRET avg %v worse than Des TE %v", figret, res.Scheme("Des TE").AvgMLU)
	}
	if figret > 1.3*res.Scheme("DOTE").AvgMLU {
		t.Errorf("FIGRET avg %v far above DOTE %v", figret, res.Scheme("DOTE").AvgMLU)
	}
	if !strings.Contains(res.String(), "FIGRET") {
		t.Error("render broken")
	}
}

func TestTEQualityBurstyHeadline(t *testing.T) {
	// The paper's headline claim (§5.2): on highly dynamic ToR-level
	// traffic, FIGRET lowers both the average normalized MLU and the
	// severe-congestion rate (normalized MLU > 2) relative to DOTE.
	env, err := NewEnv(graph.TopoToRDB, ScaleFast, EnvOptions{T: 140, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	env.Solve = baselines.GradSolve(solver.Options{Iters: 300}) // LP would dominate runtime here
	res, err := TEQuality(env, figret.Config{H: 6, Epochs: 8, Gamma: 2}, QualityOptions{MaxEval: 15})
	if err != nil {
		t.Fatal(err)
	}
	fig, dote := res.Scheme("FIGRET"), res.Scheme("DOTE")
	if fig.AvgMLU >= dote.AvgMLU {
		t.Errorf("FIGRET avg %v not below DOTE %v on bursty traffic", fig.AvgMLU, dote.AvgMLU)
	}
	if fig.SevereCongestion >= dote.SevereCongestion {
		t.Errorf("FIGRET severe rate %v not below DOTE %v", fig.SevereCongestion, dote.SevereCongestion)
	}
}

func TestTEQualityRaeckePaths(t *testing.T) {
	// Figure 6: the same comparison with Räcke-style path selection.
	env, err := NewEnv(graph.TopoPoDDB, ScaleFast, EnvOptions{
		T: 140, Seed: 2, Selector: baselines.RaeckeSelector(0)})
	if err != nil {
		t.Fatal(err)
	}
	res, err := TEQuality(env, figret.Config{H: 6, Epochs: 5}, QualityOptions{MaxEval: 12})
	if err != nil {
		t.Fatal(err)
	}
	if res.Scheme("FIGRET") == nil {
		t.Fatal("missing FIGRET")
	}
}

func TestFailuresShape(t *testing.T) {
	env := podEnv(t)
	res, err := Failures(env, figret.Config{H: 6, Epochs: 5}, FailureOptions{MaxFail: 2, Trials: 3, SnapsPer: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	for _, row := range res.Rows {
		fig := row.Scheme("FIGRET")
		if fig == nil {
			t.Fatal("FIGRET row missing")
		}
		if fig.AvgMLU < 1-1e-6 {
			t.Errorf("normalized failure MLU %v < 1", fig.AvgMLU)
		}
	}
	if !strings.Contains(res.String(), "failure") {
		t.Error("render broken")
	}
}

// TestFailuresShortTestSplit: a test split with no snapshot that has a
// full history window behind it is an error naming both lengths, not an
// out-of-range index (T=40 → 10 test snapshots) or a division by zero
// (T=48 → exactly H).
func TestFailuresShortTestSplit(t *testing.T) {
	for _, T := range []int{40, 48} {
		env, err := NewEnv(graph.TopoPoDDB, ScaleFast, EnvOptions{T: T})
		if err != nil {
			t.Fatal(err)
		}
		_, err = Failures(env, figret.Config{H: 12, Epochs: 1}, FailureOptions{})
		want := fmt.Sprintf("H=12, got %d snapshots", env.Test.Len())
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("T=%d (test split %d): err = %v, want one naming %q", T, env.Test.Len(), err, want)
		}
	}
}

func TestSensitivityAnalysisShape(t *testing.T) {
	env := podEnv(t)
	res, err := SensitivityAnalysis(env, figret.Config{H: 6, Gamma: 8, Epochs: 10}, 10)
	if err != nil {
		t.Fatal(err)
	}
	// The Figure 8 signatures: (a) under FIGRET, variance and sensitivity
	// are negatively correlated; (b) FIGRET's high-variance pairs sit at
	// lower sensitivity than its low-variance pairs; (c) FIGRET pushes
	// bursty pairs well below the hedge baseline's realized sensitivity.
	if res.FigretCorr >= 0 {
		t.Errorf("FIGRET variance/sensitivity correlation %v not negative", res.FigretCorr)
	}
	if res.FigretBins[2] >= res.FigretBins[0] {
		t.Errorf("FIGRET high-var sensitivity %v not below low-var %v",
			res.FigretBins[2], res.FigretBins[0])
	}
	if res.FigretBins[2] >= res.HedgeBins[2] {
		t.Errorf("FIGRET high-var sensitivity %v not below hedge's %v",
			res.FigretBins[2], res.HedgeBins[2])
	}
}

func TestPerturbationTables(t *testing.T) {
	env := podEnv(t)
	res, err := Perturbation(env, figret.Config{H: 6, Gamma: 1, Epochs: 5}, []float64{0.2, 2.0}, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.AvgDecline) != 2 {
		t.Fatalf("entries = %d", len(res.AvgDecline))
	}
	// Larger alpha must hurt at least as much as smaller (Table 3 trend).
	if res.AvgDecline[1] < res.AvgDecline[0]-2 {
		t.Errorf("alpha=2 decline %v below alpha=0.2 %v", res.AvgDecline[1], res.AvgDecline[0])
	}
	worst, err := Perturbation(env, figret.Config{H: 6, Gamma: 1, Epochs: 5}, []float64{2.0}, true)
	if err != nil {
		t.Fatal(err)
	}
	if worst.Spearman < 0.5 {
		t.Errorf("train/test variance Spearman %v unexpectedly low", worst.Spearman)
	}
	if !strings.Contains(worst.String(), "worst case") {
		t.Error("render broken")
	}
}

func TestDriftTable(t *testing.T) {
	env := podEnv(t)
	res, err := Drift(env, figret.Config{H: 6, Gamma: 1, Epochs: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Segments) != 3 {
		t.Fatalf("segments = %d", len(res.Segments))
	}
	// Table 4's point: drift degradation is mild. Allow a loose band.
	for i, v := range res.AvgDecline {
		if v > 50 {
			t.Errorf("segment %s: %v%% degradation too large", res.Segments[i], v)
		}
	}
}

func TestTimingTable(t *testing.T) {
	env := podEnv(t)
	res, err := Timing(env, figret.Config{H: 6, Epochs: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !res.LPFeasible {
		t.Fatal("PoD should be LP-feasible")
	}
	if res.FigretCalc <= 0 || res.LPCalc <= 0 || res.DesTECalc <= 0 {
		t.Fatalf("missing timings: %+v", res)
	}
	// At PoD scale the LP is tiny, so we only sanity-check the ratio; the
	// paper's 35x-1800x gap is asserted at GEANT scale below.
	if res.Speedup() <= 0 {
		t.Errorf("speedup %vx not positive", res.Speedup())
	}
	if res.FigretPrecomp <= 0 {
		t.Error("missing precomputation time")
	}
	if !strings.Contains(res.String(), "speedup") {
		t.Error("render broken")
	}
}

func TestTimingSpeedupGrowsWithScale(t *testing.T) {
	if testing.Short() {
		t.Skip("GEANT LP timing is slow")
	}
	env, err := NewEnv(graph.TopoGEANT, ScaleFast, EnvOptions{T: 60})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Timing(env, figret.Config{H: 6, Epochs: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !res.LPFeasible {
		t.Fatal("GEANT should be LP-feasible")
	}
	// The Table 2 shape: at WAN scale the DNN inference is already far
	// faster than the sensitivity-capped LP.
	if res.Speedup() < 5 {
		t.Errorf("GEANT speedup %.1fx, want >= 5x", res.Speedup())
	}
}

func TestHeuristicFStudy(t *testing.T) {
	env := podEnv(t)
	res, err := HeuristicF(env, "linear", 15)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Entries) != len(paramsLinear) {
		t.Fatalf("entries = %d", len(res.Entries))
	}
	pw, err := HeuristicF(env, "piecewise", 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(pw.Entries) != len(paramsPiecewise) {
		t.Fatalf("piecewise entries = %d", len(pw.Entries))
	}
	if _, err := HeuristicF(env, "cubic", 5); err == nil {
		t.Error("unknown kind accepted")
	}
	if !strings.Contains(res.String(), "normal-case") {
		t.Error("render broken")
	}
}

func TestPredictionMismatch(t *testing.T) {
	res, err := PredictionMismatch()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.MSEA-res.MSEB) > 1e-9 {
		t.Fatalf("MSEs differ: %v vs %v", res.MSEA, res.MSEB)
	}
	if math.Abs(res.MLUA-res.MLUB) < 1e-6 {
		t.Errorf("MLUs should differ: %v vs %v", res.MLUA, res.MLUB)
	}
	// Figure 19's direction: mispredicting t2 (fat path) is cheaper, so
	// prediction B (accurate on t1) achieves the lower MLU.
	if res.MLUB >= res.MLUA {
		t.Errorf("expected MLU(B) < MLU(A): %v vs %v", res.MLUB, res.MLUA)
	}
	if !strings.Contains(res.String(), "MSE") {
		t.Error("render broken")
	}
}

// TestRerouteNeverBeatsFaultAwareOptimum is the half of ROADMAP 3(b) that
// is a theorem: the LP optimum of the intact graph, rerouted around a
// failure set (§4.5), is a feasible configuration of the failed graph, so
// its MLU can never be below the fault-aware LP's optimum there. The
// largest ratio seen is logged as the starting point of a bounded-ratio
// assertion.
func TestRerouteNeverBeatsFaultAwareOptimum(t *testing.T) {
	worst := 0.0
	for _, topo := range []string{graph.TopoPFabric, graph.TopoPoDDB} {
		env, err := NewEnv(topo, ScaleFast, EnvOptions{T: 80, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(3))
		for i := 0; i < 20; i++ {
			d := env.Test.At(i)
			fs, ok := SampleFailures(env.PS, rng, 1+i%2)
			if !ok {
				t.Fatalf("%s: no feasible failure set of %d links", topo, 1+i%2)
			}
			cfg, _, err := lp.MLUMin(env.PS, d)
			if err != nil {
				t.Fatal(err)
			}
			_, opt, err := lp.FaultAwareMLUMin(env.PS, d, fs, nil)
			if err != nil {
				t.Fatal(err)
			}
			rerouted := te.MLUUnderFailure(cfg, fs, d)
			if rerouted < opt-1e-9 {
				t.Errorf("%s snapshot %d: rerouted optimum %v beats the fault-aware optimum %v", topo, i, rerouted, opt)
			}
			worst = math.Max(worst, rerouted/opt)
		}
	}
	t.Logf("largest rerouted/fault-aware MLU ratio over 40 cases: %.4f", worst)
}
