package scenario

import (
	"fmt"
	"math/rand"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"

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
	// Workers sizes each scenario's evaluation worker pool (<= 0 selects
	// runtime.NumCPU()). Metrics are bitwise identical for any value.
	Workers int
	// ScenarioWorkers is how many scenarios run concurrently (default 1;
	// each scenario already parallelizes its cells). Metrics are bitwise
	// identical for any value — every cell writes only its own slot and
	// the shared caches are content-addressed.
	ScenarioWorkers int
	// TrainWorkers sizes the data-parallel pool used to train substrate
	// models (<= 0 selects GOMAXPROCS). Trained weights — and so every
	// golden-gated metric — are bitwise identical for any value, which is
	// why this is a runner option and not part of the spec or the model
	// cache key.
	TrainWorkers int
	// PathCache, when non-empty, is the directory of an on-disk
	// te.PathStore shared with the trainer and the serving daemon: one
	// candidate-path precomputation per (topology, K) across all cells
	// and processes.
	PathCache string
	// Log, when non-nil, receives one progress line per completed
	// scenario.
	Log func(format string, args ...any)
}

// Runner executes scenario specs. Substrate state — the path set, the
// calibrated trace, the omniscient-oracle solve cache and trained NN
// models — is shared across every cell with the same substrate key, so a
// suite of N scenarios on one topology pays for one environment and one
// model, not N.
type Runner struct {
	opt Options

	mu     sync.Mutex
	envs   map[string]*envEntry
	models map[string]*modelEntry
}

type envEntry struct {
	once sync.Once
	env  *experiments.Env
	err  error
}

type modelEntry struct {
	once  sync.Once
	model *figret.Model
	err   error
}

// NewRunner builds a runner.
func NewRunner(opt Options) *Runner {
	if opt.Workers <= 0 {
		opt.Workers = runtime.NumCPU()
	}
	if opt.ScenarioWorkers <= 0 {
		opt.ScenarioWorkers = 1
	}
	return &Runner{
		opt:    opt,
		envs:   make(map[string]*envEntry),
		models: make(map[string]*modelEntry),
	}
}

// Run executes every spec and returns one Metrics per spec, in input
// order. Scenarios run on a worker pool of ScenarioWorkers; each result
// lands in its own slot, so the output — like every other layer of this
// harness — is independent of scheduling. The error is the
// smallest-indexed failing scenario's.
func (r *Runner) Run(specs []*Spec) ([]*Metrics, error) {
	for _, s := range specs {
		if err := s.Validate(); err != nil {
			return nil, err
		}
	}
	out := make([]*Metrics, len(specs))
	err := eval.Parallel(len(specs), r.opt.ScenarioWorkers, func(i int) error {
		m, err := r.RunOne(specs[i])
		if err != nil {
			return fmt.Errorf("scenario %s: %w", specs[i].Name, err)
		}
		out[i] = m
		if r.opt.Log != nil {
			r.opt.Log("ran %-32s mode=%-10s schemes=%d window=[%d,%d)",
				m.Scenario, m.Mode, len(m.Schemes), m.From, m.To)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// RunOne executes a single spec.
func (r *Runner) RunOne(spec *Spec) (*Metrics, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	sp := spec.withDefaults()
	env, err := r.envFor(sp)
	if err != nil {
		return nil, err
	}

	// Evaluation trace: the environment's calibrated trace, optionally
	// stress-perturbed. Perturb clones, so the shared environment's trace
	// is never touched.
	evTrace := env.Trace
	if p := sp.Perturb; p != nil {
		if p.WorstCase {
			evTrace = traffic.WorstCasePerturb(env.Trace, env.Train, p.Alpha, p.Seed)
		} else {
			evTrace = traffic.Perturb(env.Trace, env.Train, p.Alpha, p.Seed)
		}
	}

	// Evaluated window, absolute within the trace.
	from := env.TestStart
	to := evTrace.Len()
	if w := sp.Window; w != nil {
		from += w.From
		if w.To != 0 {
			to = env.TestStart + w.To
		}
	}
	if to > evTrace.Len() {
		to = evTrace.Len()
	}
	if from >= to {
		return nil, fmt.Errorf("empty evaluation window [%d,%d) (trace length %d)", from, to, evTrace.Len())
	}

	// Failure set: sampled bit-identically from the spec's failure seed,
	// hitting at an absolute snapshot index.
	var fs *te.FailureSet
	failAt := -1
	if f := sp.Failures; f != nil {
		rng := rand.New(rand.NewSource(f.Seed))
		set, ok := experiments.SampleFailures(env.PS, rng, f.Count)
		if !ok {
			return nil, fmt.Errorf("no feasible %d-link failure set found (seed %d)", f.Count, f.Seed)
		}
		fs = set
		failAt = from + f.At
		if failAt >= to {
			return nil, fmt.Errorf("failures.at %d places the failure at snapshot %d, at or beyond the evaluation window [%d,%d) — the scenario would silently run failure-free",
				f.At, failAt, from, to)
		}
	}

	cells, err := r.schemeCells(sp, env, fs, failAt)
	if err != nil {
		return nil, err
	}

	m := &Metrics{Scenario: sp.Name, Mode: sp.Mode, From: from, To: to}
	switch sp.Mode {
	case ModeOffline:
		err = r.runOffline(sp, env, evTrace, cells, m)
	case ModeFluid:
		err = r.runFluid(sp, env, evTrace, cells, m)
	case ModeClosedLoop:
		err = r.runClosedLoop(sp, env, evTrace, m)
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

// envKey identifies a shareable substrate: everything that shapes the
// topology, the trace and the oracle.
func envKey(sp *Spec) string {
	return fmt.Sprintf("%s|%s|T=%d|K=%d|seed=%d|iters=%d", sp.Topo, sp.Scale, sp.T, sp.K, sp.Seed, sp.SolverIters)
}

func (r *Runner) envFor(sp *Spec) (*experiments.Env, error) {
	key := envKey(sp)
	r.mu.Lock()
	e, ok := r.envs[key]
	if !ok {
		e = &envEntry{}
		r.envs[key] = e
	}
	r.mu.Unlock()
	e.once.Do(func() {
		scale := experiments.ScaleFast
		if sp.Scale == "full" {
			scale = experiments.ScaleFull
		}
		env, err := experiments.NewEnv(sp.Topo, scale, experiments.EnvOptions{
			T: sp.T, K: sp.K, Seed: sp.Seed, PathCache: r.opt.PathCache,
		})
		if err != nil {
			e.err = err
			return
		}
		// Scenarios always use the projected-gradient solver: it is
		// deterministic at every scale, and its iteration budget is part
		// of the substrate key so goldens pin it.
		env.UseGradSolver(sp.SolverIters)
		env.Workers = r.opt.Workers
		env.Oracle() // materialize before concurrent use
		e.env = env
	})
	return e.env, e.err
}

func (r *Runner) modelFor(sp *Spec, env *experiments.Env, kind string) (*figret.Model, error) {
	t := *sp.Train
	key := fmt.Sprintf("%s|%s|H=%d|gamma=%g|epochs=%d|hidden=%v|batch=%d",
		envKey(sp), kind, t.H, t.Gamma, t.Epochs, t.Hidden, t.BatchSize)
	r.mu.Lock()
	e, ok := r.models[key]
	if !ok {
		e = &modelEntry{}
		r.models[key] = e
	}
	r.mu.Unlock()
	e.once.Do(func() {
		cfg := figret.Config{
			H: t.H, Epochs: t.Epochs, Seed: sp.Seed,
			Hidden: t.Hidden, BatchSize: t.BatchSize,
			TrainWorkers: r.opt.TrainWorkers,
		}
		var m *figret.Model
		if kind == SchemeFIGRET {
			cfg.Gamma = t.Gamma
			m = figret.New(env.PS, cfg)
		} else {
			m = figret.NewDOTE(env.PS, cfg)
		}
		if _, err := m.Train(env.Train); err != nil {
			e.err = err
			return
		}
		e.model = m
	})
	return e.model, e.err
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

func (r *Runner) schemeCells(sp *Spec, env *experiments.Env, fs *te.FailureSet, failAt int) ([]*schemeCell, error) {
	oracle := env.Oracle()
	cells := make([]*schemeCell, 0, len(sp.Schemes))
	for _, name := range sp.Schemes {
		var inner baselines.Scheme
		switch name {
		case SchemeFIGRET, SchemeDOTE:
			m, err := r.modelFor(sp, env, name)
			if err != nil {
				return nil, err
			}
			inner = &baselines.NNScheme{Label: name, Model: m}
		case SchemeDesTE:
			// CachedSolve shares capped peak-matrix solves across cells
			// and scenarios on the same substrate.
			inner = &baselines.DesTE{PS: env.PS, Solve: oracle.CachedSolve, H: sp.Train.H}
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

func (r *Runner) runOffline(sp *Spec, env *experiments.Env, tr *traffic.Trace, cells []*schemeCell, m *Metrics) error {
	schemes := make([]baselines.Scheme, len(cells))
	for i, c := range cells {
		schemes[i] = c
	}
	res, err := eval.Run(schemes, tr, eval.Window{From: m.From, To: m.To},
		eval.Options{Workers: r.opt.Workers, Oracle: env.Oracle()})
	if err != nil {
		return err
	}
	for i := range res.Schemes {
		ss := &res.Schemes[i]
		m.Schemes = append(m.Schemes, SchemeMetrics{
			Scheme:           ss.Name,
			AvgMLU:           ss.AvgNorm,
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
func (r *Runner) runFluid(sp *Spec, env *experiments.Env, tr *traffic.Trace, cells []*schemeCell, m *Metrics) error {
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
func (r *Runner) runClosedLoop(sp *Spec, env *experiments.Env, tr *traffic.Trace, m *Metrics) error {
	kind := sp.Schemes[0]
	model, err := r.modelFor(sp, env, kind)
	if err != nil {
		return err
	}
	h := sp.Train.H
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
