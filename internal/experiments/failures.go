package experiments

import (
	"fmt"
	"math/rand"
	"strings"

	"figret/internal/baselines"
	"figret/internal/eval"
	"figret/internal/figret"
	"figret/internal/lp"
	"figret/internal/te"
)

// FailureResult is the Figure 7 (and Appendix E Figures 14/15) study:
// normalized MLU under 1..3 random link failures for FIGRET, DOTE, Des TE
// (all rerouting around failures per §4.5) and the fault-aware Des TE
// oracle, normalized by an oracle that knows both demand and failures.
type FailureResult struct {
	Topo string
	// Rows[k] holds stats for k+1 simultaneous failures.
	Rows []FailureRow
}

// FailureRow aggregates one failure count.
type FailureRow struct {
	Failures int
	Schemes  []SchemeStats
}

// FailureOptions configures the study.
type FailureOptions struct {
	MaxFail  int // failure counts 1..MaxFail (default 3)
	Trials   int // failure sets sampled per count (default 5)
	SnapsPer int // test snapshots per trial (default 6)
}

// Failures reproduces Figure 7 on the environment.
func Failures(env *Env, cfg figret.Config, opt FailureOptions) (*FailureResult, error) {
	if opt.MaxFail == 0 {
		opt.MaxFail = 3
	}
	if opt.Trials == 0 {
		opt.Trials = 5
	}
	if opt.SnapsPer == 0 {
		opt.SnapsPer = 6
	}
	// Snapshots are drawn from test indices [H, Len), each with a full
	// history window behind it.
	cfg = env.modelConfig(cfg)
	h := cfg.H
	if n := env.Test.Len(); n <= h {
		return nil, fmt.Errorf("experiments: failure study needs a test split longer than H=%d, got %d snapshots", h, n)
	}
	fig, dote, err := env.TrainModels(cfg)
	if err != nil {
		return nil, err
	}
	// Concurrency-safe advisors for the parallel cells below: NNScheme
	// pools goroutine-confined predictors, DesTE computes its caps once.
	// DesTE routes through the oracle cache — its advice depends only on
	// t, and the same t recurs across failure sets and failure counts, so
	// each capped peak-matrix solve is paid once.
	rerouted := []baselines.Scheme{
		&baselines.NNScheme{Label: "FIGRET", Model: fig},
		&baselines.NNScheme{Label: "DOTE", Model: dote},
		&baselines.DesTE{PS: env.PS, Solve: env.Oracle().CachedSolve, H: h},
	}
	faCaps := lp.SensitivityCaps(env.PS, lp.ConstantF(baselines.DesTEBound))
	rng := rand.New(rand.NewSource(env.Seed + 77))

	// Failure sets are drawn sequentially up front (the rng is a chain),
	// then every (failure-set × snapshot) cell runs on the engine's worker
	// pool. Cells write only their own slot, so aggregation order — and
	// with it every reported statistic — is worker-count independent.
	schemeNames := []string{"FIGRET", "DOTE", "Des TE", "FA Des TE"}
	type cell struct {
		fs *te.FailureSet
		t  int
	}
	res := &FailureResult{Topo: env.Topo}
	for nf := 1; nf <= opt.MaxFail; nf++ {
		var cells []cell
		for trial := 0; trial < opt.Trials; trial++ {
			fs, ok := SampleFailures(env.PS, rng, nf)
			if !ok {
				continue
			}
			for s := 0; s < opt.SnapsPer; s++ {
				t := h + (trial*opt.SnapsPer+s)%(env.Test.Len()-h)
				cells = append(cells, cell{fs, t})
			}
		}
		type cellResult struct {
			ok   bool // fault-aware oracle solved and positive
			faOK bool
			vals [4]float64 // normalized MLU per schemeNames entry
		}
		results := make([]cellResult, len(cells))
		err := eval.Parallel(len(cells), 0, func(i int) error {
			c := cells[i]
			d := env.Test.At(c.t)
			// Oracle: fault-aware omniscient.
			_, oracle, err := lp.FaultAwareMLUMin(env.PS, d, c.fs, nil)
			if err != nil || oracle <= 0 {
				return nil // infeasible draw: skip the cell
			}
			// FIGRET / DOTE / Des TE: advise then reroute around failures.
			r := cellResult{ok: true}
			for vi, s := range rerouted {
				cfg, err := s.Advise(env.Test, c.t)
				if err != nil {
					return err
				}
				r.vals[vi] = te.MLUUnderFailure(cfg, c.fs, d) / oracle
			}
			// FA Des TE: knows the failures, solves only over alive paths
			// (with hedging caps) for the peak matrix.
			peak := env.Test.PeakMatrix(c.t, h)
			fa, _, err := lp.FaultAwareMLUMin(env.PS, peak, c.fs, faCaps)
			if err != nil {
				// Caps may be infeasible after failures; retry uncapped.
				fa, _, err = lp.FaultAwareMLUMin(env.PS, peak, c.fs, nil)
			}
			if err == nil {
				r.faOK = true
				r.vals[3] = fa.MLU(d) / oracle
			}
			results[i] = r
			return nil
		})
		if err != nil {
			return nil, err
		}
		row := FailureRow{Failures: nf}
		for vi, name := range schemeNames {
			var xs []float64
			for _, r := range results {
				if r.ok && (vi < len(rerouted) || r.faOK) {
					xs = append(xs, r.vals[vi])
				}
			}
			if len(xs) == 0 {
				continue
			}
			st := SchemeStats{Name: name}
			st.Stats, st.SevereCongestion = eval.Summarize(xs)
			row.Schemes = append(row.Schemes, st)
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// SampleFailures draws nf distinct link failures that leave every SD pair
// with at least one surviving candidate path, so rerouting and the
// fault-aware LP both remain well-defined. The draw is a pure function of
// (ps, rng state, nf): seeding rng explicitly replays a bit-identical
// failure sequence, which the scenario harness relies on for golden
// metrics. The second return is false when no feasible set was found in
// 200 attempts, and at once, drawing nothing, when nf exceeds the
// topology's distinct undirected links.
func SampleFailures(ps *te.PathSet, rng *rand.Rand, nf int) (*te.FailureSet, bool) {
	edges := ps.G.Edges()
	distinct := map[[2]int]bool{}
	for _, e := range edges {
		distinct[[2]int{min(e.From, e.To), max(e.From, e.To)}] = true
	}
	if nf > len(distinct) {
		return nil, false
	}
	for attempt := 0; attempt < 200; attempt++ {
		seen := map[[2]int]bool{}
		var links [][2]int
		for len(links) < nf {
			e := edges[rng.Intn(len(edges))]
			a, b := e.From, e.To
			if a > b {
				a, b = b, a
			}
			if seen[[2]int{a, b}] {
				continue
			}
			seen[[2]int{a, b}] = true
			links = append(links, [2]int{a, b})
		}
		fs := te.NewFailureSet(ps.G, links)
		ok := true
		for _, pp := range ps.PairPaths {
			alive := false
			for _, p := range pp {
				if !fs.PathDown(ps, p) {
					alive = true
					break
				}
			}
			if !alive {
				ok = false
				break
			}
		}
		if ok {
			return fs, true
		}
	}
	return nil, false
}

// String renders the per-failure-count comparison.
func (r *FailureResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Link failures on %s (MLU normalized by demand+failure-aware oracle)\n", r.Topo)
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "-- %d failure(s)\n", row.Failures)
		fmt.Fprintf(&b, "%-12s %8s %8s %8s\n", "scheme", "avg", "median", "max")
		for _, s := range row.Schemes {
			fmt.Fprintf(&b, "%-12s %8.3f %8.3f %8.3f\n", s.Name, s.Stats.Mean, s.Stats.Median, s.Stats.Max)
		}
	}
	b.WriteString("expected shape: FIGRET ≈ FA Des TE, both better than DOTE and Des TE\n")
	return b.String()
}

// Scheme returns the named scheme's stats within a row, or nil.
func (row *FailureRow) Scheme(name string) *SchemeStats {
	for i := range row.Schemes {
		if row.Schemes[i].Name == name {
			return &row.Schemes[i]
		}
	}
	return nil
}
