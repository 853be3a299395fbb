package scenario

import (
	"fmt"
	"math/rand"
	"net/http/httptest"
	"runtime"
	"slices"
	"strings"
	"sync"
	"time"

	"figret/internal/baselines"
	"figret/internal/eval"
	"figret/internal/experiments"
	"figret/internal/figret"
	"figret/internal/netsim"
	"figret/internal/serve"
	"figret/internal/te"
	"figret/internal/traffic"
)

// Options configures a Runner.
type Options struct {
	// Workers sizes each scenario's evaluation worker pool and bounds how
	// many substrates Run works on at once (<= 0 selects
	// runtime.GOMAXPROCS(0)). Metrics are bitwise identical for any value.
	Workers int
	// PathStore, when non-nil, is an on-disk candidate-path cache shared
	// with the trainer and the serving daemon: one candidate-path
	// precomputation per topology across all cells and processes.
	PathStore *te.PathStore
	// Log, when non-nil, receives one progress line per completed
	// scenario. Run calls it from several goroutines.
	Log func(format string, args ...any)
}

// Runner executes scenario specs. Substrate state — the path set, the
// calibrated trace, the omniscient-oracle solve caches and trained NN
// models — is shared across every cell with the same substrate key, so a
// suite of N scenarios on one topology pays for one environment and one
// model, not N.
type Runner struct {
	opt Options

	mu   sync.Mutex
	subs map[string]*substrate
}

// substrate is what the specs of one envKey share: the environment, one
// model per NN scheme and one oracle per evaluated trace. Its lock is
// held for the whole of a RunOne: specs on one substrate run one at a
// time — the way Run schedules them anyway — so the caches below need no
// synchronization of their own and nothing ever waits on a half-built
// entry.
type substrate struct {
	mu      sync.Mutex
	env     *experiments.Env
	models  map[string]*figret.Model
	oracles map[string]*eval.Oracle
}

// NewRunner builds a runner.
func NewRunner(opt Options) *Runner {
	if opt.Workers <= 0 {
		opt.Workers = runtime.GOMAXPROCS(0)
	}
	return &Runner{opt: opt, subs: make(map[string]*substrate)}
}

// Substrates reports how many distinct substrates the runner has built.
func (r *Runner) Substrates() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.subs)
}

// Run executes every spec and returns one Metrics per spec, in input
// order. The schedule is substrate-major: specs are grouped by substrate
// key (groups in order of first appearance), up to Workers groups run
// concurrently, and the specs of a group run in input order on one
// goroutine, each still fanning its cells out over Workers — so the
// serial stretches of one substrate (its env build, its oracle's
// warm-start chain, small-batch training) overlap with the parallel
// stretches of another, and every spec meets exactly the substrate
// state it would meet in a sequential pass. Each result lands in its own
// slot, so the output is independent of scheduling. The error is the
// smallest-indexed failing scenario's, for any Workers: a failure stops
// its own group (whose remaining specs all have larger indices) and no
// other.
func (r *Runner) Run(specs []*Spec) ([]*Metrics, error) {
	var groups [][]int
	groupOf := make(map[string]int)
	for i, s := range specs {
		if err := s.Validate(); err != nil {
			return nil, err
		}
		key := envKey(s.withDefaults())
		g, ok := groupOf[key]
		if !ok {
			g = len(groups)
			groupOf[key] = g
			groups = append(groups, nil)
		}
		groups[g] = append(groups[g], i)
	}
	out := make([]*Metrics, len(specs))
	errs := make([]error, len(specs))
	// The pool's function never fails: a spec's error stays in its slot,
	// so no group cancels another and the verdict below cannot depend on
	// which group a worker reached first.
	eval.Parallel(len(groups), r.opt.Workers, func(g int) error {
		for _, i := range groups[g] {
			//figret:allow(detsource) stopwatch for the progress line, never reaches Metrics
			start := time.Now()
			m, err := r.RunOne(specs[i])
			if err != nil {
				errs[i] = fmt.Errorf("scenario %s: %w", specs[i].Name, err)
				break
			}
			out[i] = m
			if r.opt.Log != nil {
				//figret:allow(detsource) the same stopwatch
				wall := time.Since(start)
				r.opt.Log("ran %-32s mode=%-10s schemes=%d window=[%d,%d) substrate=%s wall=%dms",
					m.Scenario, m.Mode, len(m.Schemes), m.From, m.To, specs[i].Topo, wall.Milliseconds())
			}
		}
		return nil
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// RunOne executes a single spec.
func (r *Runner) RunOne(spec *Spec) (*Metrics, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	sp := spec.withDefaults()
	sub := r.substrateFor(sp)
	sub.mu.Lock()
	defer sub.mu.Unlock()
	env, err := r.envFor(sub, sp)
	if err != nil {
		return nil, err
	}

	// Evaluation trace: the environment's calibrated trace, optionally
	// stress-perturbed. Perturb clones, so the shared environment's trace
	// is never touched.
	evTrace := env.Trace
	if p := sp.Perturb; p != nil {
		if p.WorstCase {
			evTrace = traffic.WorstCasePerturb(env.Trace, env.Train, p.Alpha, perturbSeed)
		} else {
			evTrace = traffic.Perturb(env.Trace, env.Train, p.Alpha, perturbSeed)
		}
	}

	// Evaluated window: the test split.
	from, to := env.TestStart, evTrace.Len()
	if from >= to {
		return nil, fmt.Errorf("empty evaluation window [%d,%d) (trace length %d)", from, to, evTrace.Len())
	}
	// An advised configuration installs Delay intervals after it is
	// computed; at Delay >= the window length none lands inside the window
	// and every scheme would score the bootstrap uniform split.
	if sp.Delay >= to-from {
		return nil, fmt.Errorf("delay %d leaves no advised configuration installed inside the %d-snapshot evaluation window [%d,%d)",
			sp.Delay, to-from, from, to)
	}

	// Failure set: sampled bit-identically from failureSeed, hitting at an
	// absolute snapshot index.
	var fs *te.FailureSet
	failAt := -1
	if f := sp.Failures; f != nil {
		rng := rand.New(rand.NewSource(failureSeed))
		set, ok := experiments.SampleFailures(env.PS, rng, f.Count)
		if !ok {
			return nil, fmt.Errorf("no feasible %d-link failure set found", f.Count)
		}
		fs = set
		failAt = from + f.At
		if failAt >= to {
			return nil, fmt.Errorf("failures.at %d places the failure at snapshot %d, at or beyond the evaluation window [%d,%d) — the scenario would silently run failure-free",
				f.At, failAt, from, to)
		}
	}

	oracle := sub.oracleFor(sp)
	cells, err := r.schemeCells(sub, sp, oracle, fs, failAt)
	if err != nil {
		return nil, err
	}

	m := &Metrics{Scenario: sp.Name, Mode: sp.Mode, From: from, To: to}
	switch sp.Mode {
	case ModeOffline:
		err = r.runOffline(evTrace, oracle, cells, m)
	case ModeFluid:
		err = r.runFluid(sp, env, evTrace, oracle, cells, m)
	case ModeClosedLoop:
		err = r.runClosedLoop(sub, sp, evTrace, m)
	default:
		err = fmt.Errorf("unknown mode %q", sp.Mode)
	}
	if err != nil {
		return nil, err
	}
	m.Seal()
	return m, nil
}

// --- substrate caches ---------------------------------------------------

// envKey identifies a shareable substrate: the spec values that shape the
// topology and the trace.
func envKey(sp *Spec) string {
	return fmt.Sprintf("%s|T=%d", sp.Topo, sp.T)
}

func (r *Runner) substrateFor(sp *Spec) *substrate {
	key := envKey(sp)
	r.mu.Lock()
	defer r.mu.Unlock()
	sub, ok := r.subs[key]
	if !ok {
		sub = &substrate{models: make(map[string]*figret.Model), oracles: make(map[string]*eval.Oracle)}
		r.subs[key] = sub
	}
	return sub
}

func (r *Runner) envFor(sub *substrate, sp *Spec) (*experiments.Env, error) {
	if sub.env != nil {
		return sub.env, nil
	}
	env, err := experiments.NewEnv(sp.Topo, experiments.ScaleFast, experiments.EnvOptions{
		T: sp.T, K: pathK, Seed: traceSeed, PathStore: r.opt.PathStore,
	})
	if err != nil {
		return nil, err
	}
	env.UseGradSolver(solverIters)
	sub.env = env
	return env, nil
}

// oracleFor returns the solve cache of one evaluated trace: the
// substrate's own, or one perturbation of it. Every spec evaluates the
// same window, so specs that agree on the trace share every solve.
func (sub *substrate) oracleFor(sp *Spec) *eval.Oracle {
	key := ""
	if p := sp.Perturb; p != nil {
		key = fmt.Sprintf("alpha=%g|worst=%t", p.Alpha, p.WorstCase)
	}
	o, ok := sub.oracles[key]
	if !ok {
		o = sub.env.NewOracle()
		sub.oracles[key] = o
	}
	return o
}

func (r *Runner) modelFor(sub *substrate, kind string) (*figret.Model, error) {
	if m, ok := sub.models[kind]; ok {
		return m, nil
	}
	env := sub.env
	cfg := figret.Config{
		H: trainH, Epochs: trainEpochs, Seed: traceSeed,
		Hidden: []int{32, 32}, BatchSize: trainBatch,
	}
	var m *figret.Model
	if kind == SchemeFIGRET {
		cfg.Gamma = trainGamma
		m = figret.New(env.PS, cfg)
	} else {
		m = figret.NewDOTE(env.PS, cfg)
	}
	if _, err := m.Train(env.Train); err != nil {
		return nil, err
	}
	sub.models[kind] = m
	return m, nil
}

// --- scheme construction ------------------------------------------------

// schemeCell binds a scheme to its spec name and the scenario's failure
// response: from snapshot failAt on, every advised configuration is
// rerouted around the failure set (§4.5) before scoring — exactly the
// paper's no-retraining failure policy. Advise stays a pure function of
// (tr, t), so the evaluation engine's determinism contract holds.
type schemeCell struct {
	name   string
	inner  baselines.Scheme
	fs     *te.FailureSet
	failAt int
}

func (c *schemeCell) Name() string { return c.name }

func (c *schemeCell) Warmup() int { return c.inner.Warmup() }

func (c *schemeCell) Advise(tr *traffic.Trace, t int) (*te.Config, error) {
	cfg, err := c.inner.Advise(tr, t)
	if err != nil {
		return nil, err
	}
	if c.fs != nil && t >= c.failAt {
		cfg = te.Reroute(cfg, c.fs)
	}
	return cfg, nil
}

func (r *Runner) schemeCells(sub *substrate, sp *Spec, oracle *eval.Oracle, fs *te.FailureSet, failAt int) ([]*schemeCell, error) {
	env := sub.env
	cells := make([]*schemeCell, 0, len(sp.Schemes))
	for _, name := range sp.Schemes {
		var inner baselines.Scheme
		switch name {
		case SchemeFIGRET, SchemeDOTE:
			m, err := r.modelFor(sub, name)
			if err != nil {
				return nil, err
			}
			inner = &baselines.NNScheme{Label: name, Model: m}
		case SchemeDesTE:
			// CachedSolve shares capped peak-matrix solves across cells
			// and scenarios that evaluate the same trace.
			inner = &baselines.DesTE{PS: env.PS, Solve: oracle.CachedSolve, H: trainH}
		case SchemePredTE:
			// PredTE's advice for t is the omniscient solve of t−1: every
			// call is a hit on the oracle's base series.
			inner = &baselines.PredTE{PS: env.PS, Solve: oracle.CachedSolve}
		case SchemeUniform:
			inner = &baselines.FixedScheme{Label: name, Cfg: te.UniformConfig(env.PS)}
		default:
			return nil, fmt.Errorf("unknown scheme %q", name)
		}
		cells = append(cells, &schemeCell{name: name, inner: inner, fs: fs, failAt: failAt})
	}
	return cells, nil
}

// --- modes --------------------------------------------------------------

func (r *Runner) runOffline(tr *traffic.Trace, oracle *eval.Oracle, cells []*schemeCell, m *Metrics) error {
	schemes := make([]baselines.Scheme, len(cells))
	for i, c := range cells {
		schemes[i] = c
	}
	res, err := eval.Run(schemes, tr, eval.Window{From: m.From, To: m.To},
		eval.Options{Workers: r.opt.Workers, Oracle: oracle})
	if err != nil {
		return err
	}
	for i := range res.Schemes {
		ss := &res.Schemes[i]
		m.Schemes = append(m.Schemes, SchemeMetrics{
			Scheme:           ss.Name,
			AvgMLU:           ss.Stats.Mean,
			P50MLU:           traffic.Quantile(ss.Norm, 0.5),
			P95MLU:           traffic.Quantile(ss.Norm, 0.95),
			MaxMLU:           traffic.Quantile(ss.Norm, 1),
			SevereCongestion: ss.SevereCongestion,
		})
	}
	return nil
}

// fluidMetrics summarizes a per-interval fluid series into golden-gated
// quantiles.
func fluidMetrics(name string, intervals []*netsim.Result) SchemeMetrics {
	mlu := make([]float64, len(intervals))
	loss := make([]float64, len(intervals))
	delay := make([]float64, len(intervals))
	var mluSum, lossSum float64
	for i, iv := range intervals {
		mlu[i], loss[i], delay[i] = iv.MLU, iv.LossRate, iv.MeanDelay
		mluSum += iv.MLU
		lossSum += iv.LossRate
	}
	n := float64(len(intervals))
	return SchemeMetrics{
		Scheme:   name,
		AvgMLU:   mluSum / n,
		P50MLU:   traffic.Quantile(mlu, 0.5),
		P95MLU:   traffic.Quantile(mlu, 0.95),
		MaxMLU:   traffic.Quantile(mlu, 1),
		MeanLoss: lossSum / n,
		MaxLoss:  traffic.Quantile(loss, 1),
		P50Delay: traffic.Quantile(delay, 0.5),
		P95Delay: traffic.Quantile(delay, 0.95),
	}
}

// runFluid closes the loop with netsim.ControlLoop per scheme: the
// scheme's advice for interval t is computed from history before t and
// installs Delay intervals later, and every interval is scored by the
// fluid simulator. A failure set reroutes the *advised* configurations
// from failAt on — the control plane's response; configurations already
// installed (or in the Delay pipeline) keep their pre-failure routing
// until the rerouted advice lands, which is exactly the staleness the
// paper's §1 control loop exposes.
func (r *Runner) runFluid(sp *Spec, env *experiments.Env, tr *traffic.Trace, oracle *eval.Oracle, cells []*schemeCell, m *Metrics) error {
	// PredTE reads the oracle's base series back. Fill it first, as
	// eval.Run does, so what PredTE reads is the window's warm-start chain
	// whether or not an offline spec on the same trace ran before.
	if slices.Contains(sp.Schemes, SchemePredTE) {
		if _, err := oracle.Series(tr, m.From, m.To, r.opt.Workers); err != nil {
			return err
		}
	}
	results := make([][]*netsim.Result, len(cells))
	err := eval.Parallel(len(cells), r.opt.Workers, func(i int) error {
		cell := cells[i]
		cl := &netsim.ControlLoop{
			Advise:  func(t int) (*te.Config, error) { return cell.Advise(tr, t) },
			Delay:   sp.Delay,
			Initial: te.UniformConfig(env.PS),
		}
		lr, err := cl.Run(tr.At, m.From, m.To)
		if err != nil {
			return err
		}
		results[i] = lr.PerInterval
		return nil
	})
	if err != nil {
		return err
	}
	for i, cell := range cells {
		m.Schemes = append(m.Schemes, fluidMetrics(cell.name, results[i]))
	}
	return nil
}

// runClosedLoop replays the evaluation window through the serving
// subsystem: an in-process HTTP server hosts the trained checkpoint, the
// trace streams through synchronous ingest (serve.Replay), and every
// served interval is scored with the fluid simulator. The replay starts
// H snapshots early so the controller's sliding window is warm by the
// first evaluated interval; those warmup intervals are excluded from the
// metrics.
func (r *Runner) runClosedLoop(sub *substrate, sp *Spec, tr *traffic.Trace, m *Metrics) error {
	env, kind := sub.env, sp.Schemes[0]
	model, err := r.modelFor(sub, kind)
	if err != nil {
		return err
	}
	h := trainH
	if m.From-h < 0 {
		return fmt.Errorf("closed-loop warmup needs %d snapshots before the window start %d", h, m.From)
	}

	reg := serve.NewRegistry()
	if err := reg.AddTopology(sp.Topo, env.PS); err != nil {
		return err
	}
	srv := serve.NewServer(reg)
	// No drift retraining and no churn clamp: scenario metrics must be a
	// pure function of the spec, and background retraining is
	// wall-clock-dependent.
	if _, err := srv.Add(sp.Topo, serve.ControllerOptions{HistoryCap: 4 * h}); err != nil {
		return err
	}
	defer srv.Close()
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	if _, err := reg.Install(sp.Topo, model, "scenario:"+sp.Name); err != nil {
		return err
	}

	client := serve.NewClient(hs.URL)
	post := func(demand []float64) (*serve.RoutingResponse, error) {
		return client.PostSnapshot(sp.Topo, demand)
	}
	rr, err := serve.Replay(post, env.PS, tr, serve.ReplayOptions{
		From: m.From - h, To: m.To, Delay: sp.Delay,
	})
	if err != nil {
		return err
	}
	// PerInterval[i] describes interval (From−h)+i; drop the h warmup
	// intervals.
	m.Schemes = append(m.Schemes, fluidMetrics(kind+"-served", rr.PerInterval[h:]))
	return nil
}

// Render formats metrics as an aligned text table (one block per
// scenario), the CLI's human-readable output.
func Render(ms []*Metrics) string {
	var b strings.Builder
	for _, m := range ms {
		fmt.Fprintf(&b, "%s (%s, snapshots [%d,%d), checksum %08x)\n", m.Scenario, m.Mode, m.From, m.To, m.Checksum)
		fmt.Fprintf(&b, "  %-16s %8s %8s %8s %8s %8s %8s %8s\n",
			"scheme", "avgMLU", "p50MLU", "p95MLU", "maxMLU", "severe", "loss", "p95dly")
		for _, s := range m.Schemes {
			fmt.Fprintf(&b, "  %-16s %8.4f %8.4f %8.4f %8.4f %8.4f %8.5f %8.3f\n",
				s.Scheme, s.AvgMLU, s.P50MLU, s.P95MLU, s.MaxMLU, s.SevereCongestion, s.MeanLoss, s.P95Delay)
		}
	}
	return b.String()
}
