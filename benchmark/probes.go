package main

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"runtime"
	"time"

	"figret/internal/baselines"
	"figret/internal/eval"
	"figret/internal/experiments"
	"figret/internal/figret"
	"figret/internal/graph"
	"figret/internal/lp"
	"figret/internal/netsim"
	"figret/internal/nn"
	"figret/internal/obs"
	"figret/internal/scenario"
	"figret/internal/serve"
	"figret/internal/solver"
	"figret/internal/te"
	"figret/internal/tracestore"
	"figret/internal/traffic"
	"figret/internal/wire"
)

// prober times calls into the layers' public functions from outside, one
// span per call (or per batch of calls when a call takes nanoseconds).
type prober struct {
	res   *runResult
	tr    *tracer
	layer int // the enclosing layer span, parent of the call spans
}

// calls runs fn n times and returns the median call duration.
func (p *prober) calls(name string, n int, fn func()) time.Duration {
	ds := make([]float64, n)
	for i := range ds {
		t0 := time.Now()
		fn()
		d := time.Since(t0)
		p.tr.record(name, p.layer, 0, t0, d)
		ds[i] = float64(d)
	}
	return time.Duration(median(ds))
}

// perOp times batches of iters calls and returns the median nanoseconds
// of one call.
func (p *prober) perOp(name string, iters int, fn func()) float64 {
	const batches = 7
	d := p.calls(name, batches, func() {
		for i := 0; i < iters; i++ {
			fn()
		}
	})
	return float64(d) / float64(iters)
}

// allocs returns the mean heap allocations of one call, after a warm-up
// call has grown whatever scratch the call reuses.
func allocs(n int, fn func()) float64 {
	fn()
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	for i := 0; i < n; i++ {
		fn()
	}
	runtime.ReadMemStats(&b)
	return float64(b.Mallocs-a.Mallocs) / float64(n)
}

func (p *prober) set(name string, v float64) { p.res.set(name, v) }

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// in opens a layer span for the probes of one module.
func (p *prober) in(layer string, f func() error) error {
	p.layer = p.tr.start(layer, 0, 0)
	defer func() {
		p.tr.end(p.layer)
		p.layer = 0
	}()
	if err := f(); err != nil {
		return fmt.Errorf("%s probes: %w", layer, err)
	}
	return nil
}

// sink keeps results alive so the compiler cannot drop a probed call.
var sink float64

// layerBattery runs the in-process probes on the fixed shapes spec.go
// names. Its inputs come from the run's seed like everything else.
func layerBattery(h *harness, res *runResult, tr *tracer, seed int64) error {
	p := &prober{res: res, tr: tr}
	fast := experiments.ScaleFast
	var geant, large, pod *experiments.Env

	err := p.in("experiments", func() (err error) {
		for _, e := range []struct {
			topo string
			env  **experiments.Env
		}{{"geant", &geant}, {"large-wan", &large}, {"cogentco", nil}, {"pod-db", &pod}} {
			var env *experiments.Env
			d := p.calls("experiments.NewEnv."+e.topo, 3, func() {
				if err == nil {
					env, err = experiments.NewEnv(e.topo, fast, experiments.EnvOptions{T: serveT, Seed: seed})
				}
			})
			if err != nil {
				return err
			}
			if e.env != nil {
				*e.env = env
			}
			if e.topo != "pod-db" {
				p.set("experiments.env_s."+e.topo, d.Seconds())
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(seed))

	if err := p.in("graph", func() error {
		g := geant.G
		ys := graph.NewYenSolver(g)
		n := g.NumVertices()
		d := p.calls("graph.YenSolver.all_pairs", 5, func() {
			for s := 0; s < n; s++ {
				for t := 0; t < n; t++ {
					if s != t {
						sink += float64(len(ys.KShortestPaths(s, t, 3, graph.HopWeight)))
					}
				}
			}
		})
		p.set("graph.yen_us_per_pair", us(d)/float64(n*(n-1)))
		p.set("graph.dijkstra_us", p.perOp("graph.ShortestPath", 200, func() {
			_, dist, _ := g.ShortestPath(0, n-1, graph.HopWeight, nil, nil)
			sink += dist
		})/1000)
		return nil
	}); err != nil {
		return err
	}

	if err := p.in("te", func() (err error) {
		d := p.calls("te.NewPathSetOpt.large-wan", 3, func() {
			if err == nil {
				_, err = te.NewPathSetOpt(large.G, 3, te.PathSetOptions{})
			}
		})
		if err != nil {
			return err
		}
		p.set("te.pathset_build_s", d.Seconds())
		store, err := te.NewPathStore(filepath.Join(h.tmp, "pathstore"))
		if err != nil {
			return err
		}
		if err := store.Save(large.PS, te.SelectorYen); err != nil {
			return err
		}
		d = p.calls("te.PathStore.Load", 5, func() {
			if err == nil {
				_, err = store.Load(large.G, 3, te.SelectorYen)
			}
		})
		if err != nil {
			return err
		}
		p.set("te.pathstore_load_ms", ms(d))

		ps, dem := geant.PS, geant.Trace.At(0)
		cfg := te.UniformConfig(ps)
		buf := make([]float64, ps.G.NumEdges())
		p.set("te.edgeflows_ns", p.perOp("te.EdgeFlows", 2000, func() { ps.EdgeFlows(dem, cfg.R, buf) }))
		p.set("te.mlu_ns", p.perOp("te.MLU", 2000, func() {
			m, _ := ps.MLU(dem, cfg.R)
			sink += m
		}))
		e := ps.G.Edge(0)
		fs := te.NewFailureSet(ps.G, [][2]int{{e.From, e.To}})
		p.set("te.reroute_us", p.perOp("te.Reroute", 200, func() { sink += te.Reroute(cfg, fs).R[0] })/1000)
		p.set("te.quantize_wcmp_us", p.perOp("te.QuantizeWCMP", 100, func() {
			if q, qerr := te.QuantizeWCMP(cfg, 16); qerr != nil {
				err = qerr
			} else {
				sink += q.R[0]
			}
		})/1000)
		return err
	}); err != nil {
		return err
	}

	if err := p.in("traffic", func() (err error) {
		d := p.calls("traffic.ForTopology.large-wan", 3, func() {
			if err == nil {
				_, err = traffic.ForTopology("large-wan", large.G.NumVertices(), serveT, seed)
			}
		})
		p.set("traffic.gen_ms", ms(d))
		dst := make([]float64, serveH*large.PS.Pairs.Count())
		p.set("traffic.window_into_ns", p.perOp("traffic.WindowInto", 500, func() {
			sink += large.Trace.WindowInto(dst, 100, serveH)[0]
		}))
		return err
	}); err != nil {
		return err
	}

	if err := p.in("tracestore", func() (err error) {
		path := filepath.Join(h.tmp, "probe.fgt")
		bytesWritten := float64(geant.Trace.Len() * geant.PS.Pairs.Count() * 8)
		d := p.calls("tracestore.WriteTrace", 5, func() {
			if err == nil {
				err = tracestore.WriteTrace(path, geant.Trace, tracestore.Options{})
			}
		})
		if err != nil {
			return err
		}
		p.set("tracestore.write_mb_per_s", bytesWritten/1e6/d.Seconds())
		d = p.calls("tracestore.Open", 20, func() {
			if err != nil {
				return
			}
			var r *tracestore.Reader
			if r, err = tracestore.Open(path); err == nil {
				err = r.Close()
			}
		})
		if err != nil {
			return err
		}
		p.set("tracestore.open_us", us(d))
		w, err := tracestore.Create(filepath.Join(h.tmp, "spool.fgt"), geant.G.NumVertices(), tracestore.Options{})
		if err != nil {
			return err
		}
		i := 0
		ns := p.perOp("tracestore.Writer.Append", 200, func() {
			if err == nil {
				err = w.Append(geant.Trace.At(i % geant.Trace.Len()))
				i++
			}
		})
		if cerr := w.Close(); err == nil {
			err = cerr
		}
		p.set("tracestore.append_us", ns/1000)
		return err
	}); err != nil {
		return err
	}

	// Untrained models have the served shapes; the kernels do not care
	// what the weights are.
	mcfg := figret.Config{H: serveH, Gamma: 1, Epochs: 1, Seed: seed, BatchSize: serveBatch}
	largeModel := figret.New(large.PS, mcfg)
	var kernelUs float64 // forward + backward of one 16-row batch, for the kernel share
	if err := p.in("nn", func() error {
		for _, s := range []struct {
			name string
			env  *experiments.Env
			n    int
		}{{"large-wan", large, 30}, {"pod-db", pod, 300}} {
			net := figret.New(s.env.PS, mcfg).Net
			x := randVec(rng, net.Layers[0].In)
			d := p.calls("nn.MLP.Forward."+s.name, s.n, func() { sink += net.Forward(x)[0] })
			p.set("nn.forward_b1_us."+s.name, us(d))
		}
		net := largeModel.Net
		in, out := net.Layers[0].In, net.Layers[len(net.Layers)-1].Out
		var macs float64
		for _, l := range net.Layers {
			macs += float64(l.In * l.Out)
		}
		p.set("nn.macs_per_sample", macs)
		const b = serveBatch
		x, dy := randVec(rng, b*in), randVec(rng, b*out)
		sc := nn.NewScratch(net, b)
		fwd := p.calls("nn.MLP.BatchForward", 10, func() { sink += net.BatchForward(x, b, sc)[0] })
		bwd := p.calls("nn.MLP.BatchBackward", 10, func() { sink += net.BatchBackward(dy, b, sc)[0] })
		p.set("nn.batch_forward_us", us(fwd))
		p.set("nn.batch_backward_us", us(bwd))
		kernelUs = us(fwd) + us(bwd)
		net.ZeroGrads()
		eng := nn.NewDataParallel(net, 0)
		score := func(_ int, y []float64, _, _ int, dy []float64) { copy(dy, y) }
		opt := nn.NewAdam(1e-3)
		step := func() {
			eng.Accumulate(x, b, score)
			eng.Reduce()
			opt.Step(net)
		}
		step() // lanes and optimizer moments are allocated on first use
		var acc, red []float64
		for i := 0; i < 7; i++ {
			t0 := time.Now()
			eng.Accumulate(x, b, score)
			t1 := time.Now()
			eng.Reduce()
			t2 := time.Now()
			opt.Step(net)
			p.tr.record("nn.DataParallel.Accumulate", p.layer, 0, t0, t1.Sub(t0))
			p.tr.record("nn.DataParallel.Reduce", p.layer, 0, t1, t2.Sub(t1))
			acc, red = append(acc, float64(t1.Sub(t0))), append(red, float64(t2.Sub(t1)))
		}
		p.set("nn.dp_accumulate_us", median(acc)/1000)
		p.set("nn.dp_reduce_us", median(red)/1000)
		p.set("nn.step_allocs", allocs(5, step))
		return nil
	}); err != nil {
		return err
	}

	geantModel := figret.New(geant.PS, mcfg)
	if err := p.in("figret", func() (err error) {
		pred := largeModel.NewPredictor()
		at := large.Trace.Len()
		predict := func() {
			if c, perr := pred.PredictAt(large.Trace, at); perr != nil {
				err = perr
			} else {
				sink += c.R[0]
			}
		}
		p.set("figret.predict_us", us(p.calls("figret.Predictor.PredictAt", 30, predict)))
		p.set("figret.predict_allocs", allocs(10, predict))
		if err != nil {
			return err
		}
		// One epoch = Train at 2 epochs minus Train at 1: fitting the
		// trace and allocating scratch are in both and cancel.
		var wall [2]time.Duration
		for i := range wall {
			c := mcfg
			c.Epochs = i + 1
			m := figret.New(large.PS, c)
			wall[i] = p.calls(fmt.Sprintf("figret.Model.Train.epochs=%d", i+1), 1, func() { _, err = m.Train(large.Train) })
			if err != nil {
				return err
			}
		}
		epoch := wall[1] - wall[0]
		steps := math.Ceil(float64(large.Train.Len()-serveH) / serveBatch)
		p.set("figret.train_epoch_s", epoch.Seconds())
		p.set("figret.train_step_us", us(epoch)/steps)
		p.set("figret.train_kernel_share", kernelUs*steps/us(epoch))

		var data []byte
		d := p.calls("figret.Model.MarshalJSON", 1, func() { data, err = geantModel.MarshalJSON() })
		if err != nil {
			return err
		}
		p.set("figret.model_marshal_ms", ms(d))
		d = p.calls("figret.LoadModel", 1, func() { _, err = figret.LoadModel(geant.PS, data) })
		p.set("figret.model_load_ms", ms(d))
		return err
	}); err != nil {
		return err
	}

	if err := p.in("solver", func() (err error) {
		ps, d0, d1 := geant.PS, geant.Trace.At(10), geant.Trace.At(11)
		var prev *te.Config
		p.set("solver.minimize_ms", ms(p.calls("solver.MinimizeMLU", 3, func() {
			prev, _ = solver.MinimizeMLU(ps, d0, solver.Options{Iters: 300})
		})))
		p.set("solver.warm_minimize_ms", ms(p.calls("solver.MinimizeMLU.warm", 3, func() {
			c, _ := solver.MinimizeMLU(ps, d1, solver.Options{Iters: 150, InitR: prev.R})
			sink += c.R[0]
		})))
		p.set("lp.solve_ms", ms(p.calls("lp.MLUMin", 20, func() {
			if err == nil {
				_, _, err = lp.MLUMin(pod.PS, pod.Trace.At(10))
			}
		})))
		return err
	}); err != nil {
		return err
	}

	if err := p.in("eval", func() (err error) {
		orc := eval.NewOracle(pod.PS, pod.Solve, nil)
		i := 0
		cold := p.calls("eval.Oracle.MLU.cold", 40, func() {
			if err == nil {
				_, err = orc.MLU(pod.Trace.At(i))
				i++
			}
		})
		p.set("eval.oracle_cold_us", us(cold))
		p.set("eval.oracle_hit_ns", p.perOp("eval.Oracle.MLU.hit", 200, func() {
			m, _ := orc.MLU(pod.Trace.At(7))
			sink += m
		}))
		// One offline spec's worth of schemes on a fresh oracle: PredTE's
		// advice for t is the omniscient solve of t-1, so it hits.
		orc = eval.NewOracle(pod.PS, pod.Solve, nil)
		schemes := []baselines.Scheme{
			&baselines.PredTE{PS: pod.PS, Solve: orc.CachedSolve},
			&baselines.DesTE{PS: pod.PS, Solve: orc.CachedSolve, H: 6},
			&baselines.FixedScheme{Label: "Uniform", Cfg: te.UniformConfig(pod.PS)},
		}
		win := eval.Window{From: 1, To: pod.Test.Len()}
		d := p.calls("eval.Run", 1, func() {
			_, err = eval.Run(schemes, pod.Test, win, eval.Options{Workers: runtime.NumCPU(), Oracle: orc})
		})
		if err != nil {
			return err
		}
		hits, misses := orc.Stats()
		p.set("eval.oracle_hit_ratio", float64(hits)/float64(hits+misses))
		p.set("eval.run_cells_per_s", float64(len(schemes)*(win.To-win.From))/d.Seconds())
		return nil
	}); err != nil {
		return err
	}

	if err := p.in("baselines", func() (err error) {
		des := &baselines.DesTE{PS: geant.PS, Solve: baselines.GradSolve(solver.Options{Iters: 300})}
		p.set("baselines.advise_us", us(p.calls("baselines.DesTE.Advise", 3, func() {
			if err == nil {
				_, err = des.Advise(geant.Trace, 50)
			}
		})))
		cfg := te.UniformConfig(geant.PS)
		p.set("netsim.interval_us", p.perOp("netsim.Simulate", 50, func() {
			if r, serr := netsim.Simulate(cfg, geant.Trace.At(20)); serr != nil {
				err = serr
			} else {
				sink += r.MLU
			}
		})/1000)
		return err
	}); err != nil {
		return err
	}

	if err := p.in("scenario", func() error {
		specs, err := scenario.LoadSuite(filepath.Join(h.root, "scenarios", "suite"))
		if err != nil {
			return err
		}
		if len(specs) != len(suiteSpecs) {
			return fmt.Errorf("suite has %d specs, spec.go names %d", len(specs), len(suiteSpecs))
		}
		golden, err := scenario.NewStore(filepath.Join(h.root, "scenarios", "golden"))
		if err != nil {
			return err
		}
		runner := scenario.NewRunner(scenario.Options{Workers: 2})
		var compare []float64
		for i, sp := range specs {
			if sp.Name != suiteSpecs[i] {
				return fmt.Errorf("suite spec %d is %q, spec.go says %q", i, sp.Name, suiteSpecs[i])
			}
			var m *scenario.Metrics
			d := p.calls("scenario.Runner.RunOne."+sp.Name, 1, func() { m, err = runner.RunOne(sp) })
			if err != nil {
				return err
			}
			p.set("scenario.spec_s."+sp.Name, d.Seconds())
			d = p.calls("scenario.Compare", 1, func() {
				var g *scenario.Metrics
				if g, err = golden.Load(sp.Name); err == nil && !scenario.Compare(g, m, sp.Tolerance).OK() {
					err = fmt.Errorf("%s run in process differs from its golden", sp.Name)
				}
			})
			if err != nil {
				return err
			}
			compare = append(compare, us(d))
		}
		p.set("scenario.golden_compare_us", median(compare))
		return nil
	}); err != nil {
		return err
	}

	if err := p.in("serve", func() error { return serveInProcess(p, geant, geantModel) }); err != nil {
		return err
	}
	if err := p.in("wire", func() error { return wireProbes(p, large, rng) }); err != nil {
		return err
	}
	return p.in("obs", func() error {
		reg := obs.NewRegistry()
		c := reg.Counter("probe_total", "probe")
		hst := reg.Histogram("probe_seconds", "probe", obs.DefaultLatencyBuckets())
		trc := obs.NewTracer(reg, "probe_stage_seconds", "probe", []string{"a"}, obs.DefaultLatencyBuckets())
		p.set("obs.counter_inc_ns", p.perOp("obs.Counter.Inc", 100000, c.Inc))
		p.set("obs.histogram_observe_ns", p.perOp("obs.Histogram.Observe", 100000, func() { hst.Observe(1e-4) }))
		sp := trc.Start()
		p.set("obs.span_mark_ns", p.perOp("obs.Span.Mark", 100000, func() { sp.Mark(0) }))
		// A page the size of the daemon's: its telemetry on one topology.
		page := obs.NewRegistry()
		obs.RegisterRuntimeMetrics(page)
		tel := serve.NewTelemetry(page)
		sreg := serve.NewRegistry()
		sreg.SetTelemetry(tel)
		if err := sreg.AddTopology("pod-db", pod.PS); err != nil {
			return err
		}
		ctl, err := serve.NewController("pod-db", sreg, serve.ControllerOptions{Telemetry: tel})
		if err != nil {
			return err
		}
		defer ctl.Close()
		var buf bytes.Buffer
		d := p.calls("obs.Registry.WritePrometheus", 20, func() {
			buf.Reset()
			if err == nil {
				err = page.WritePrometheus(&buf)
			}
		})
		p.set("obs.render_us", us(d))
		return err
	})
}

func randVec(rng *rand.Rand, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = rng.Float64()
	}
	return v
}

// serveInProcess times the controller with no socket in the way, on
// geant, with telemetry on as in the daemon.
func serveInProcess(p *prober, env *experiments.Env, model *figret.Model) error {
	tel := serve.NewTelemetry(obs.NewRegistry())
	reg := serve.NewRegistry()
	srv := serve.NewServer(reg)
	srv.UseTelemetry(tel)
	defer srv.Close()
	const topo = "geant"
	if err := reg.AddTopology(topo, env.PS); err != nil {
		return err
	}
	ctl, err := srv.Add(topo, serve.ControllerOptions{})
	if err != nil {
		return err
	}
	d := p.calls("serve.Registry.Install", 2, func() {
		if err == nil {
			_, err = reg.Install(topo, model, "probe")
		}
	})
	if err != nil {
		return err
	}
	p.set("serve.registry_install_ms", ms(d))
	for i := 0; i < serveH; i++ {
		if _, err := ctl.Ingest(env.Trace.At(i), true); err != nil {
			return err
		}
	}
	i := serveH
	ingest := func() {
		if err != nil {
			return
		}
		var r *serve.IngestResult
		if r, err = ctl.Ingest(env.Trace.At(i%env.Trace.Len()), true); err == nil && r.Decision == nil {
			err = fmt.Errorf("controller still warming after %d snapshots", i)
		}
		i++
	}
	ing := p.calls("serve.Controller.Ingest", 100, ingest)
	// The same inference with nothing around it.
	pred := reg.Active(topo).Model.NewPredictor()
	at := env.Trace.Len()
	inf := p.calls("figret.Predictor.PredictAt.geant", 100, func() {
		if c, perr := pred.PredictAt(env.Trace, at); perr != nil {
			err = perr
		} else {
			sink += c.R[0]
		}
	})
	if err != nil {
		return err
	}
	p.set("serve.controller_ingest_us", us(ing))
	p.set("serve.controller_self_us", us(ing-inf))
	p.set("serve.controller_allocs", allocs(20, ingest))
	a, b := te.UniformConfig(env.PS), ctl.Decision().Config
	p.set("serve.limit_churn_us", p.perOp("serve.LimitChurn", 100, func() {
		c, _ := serve.LimitChurn(a, b, 0.1)
		sink += c.R[0]
	})/1000)
	return err
}

// wireProbes times the codec on a large-wan decision (45 KB) and
// snapshot, and a synthetic delta in which 1% of the pairs changed: real
// replays never produce one, every pair changes every snapshot.
func wireProbes(p *prober, env *experiments.Env, rng *rand.Rand) error {
	ps := env.PS
	layout := wire.Layout(ps.PairPaths)
	base := &wire.Decision{Seq: 7, Snapshot: 7, Version: 1, Ratios: te.UniformConfig(ps).R}
	next := &wire.Decision{Seq: 8, Snapshot: 8, Version: 1, Ratios: append([]float64(nil), base.Ratios...)}
	for k := 0; k < len(ps.PairPaths)/100; k++ {
		pp := ps.PairPaths[rng.Intn(len(ps.PairPaths))]
		if len(pp) > 1 {
			next.Ratios[pp[0]] += 0.01
			next.Ratios[pp[1]] -= 0.01
		}
	}
	snap := &wire.Snapshot{Demand: env.Trace.At(0)}
	var enc wire.Encoder
	var err error
	note := func(e error) {
		if err == nil {
			err = e
		}
	}
	// Frames alias the encoder's buffer, so each is copied once up front.
	snapFrame := append([]byte(nil), enc.Snapshot(snap)...)
	decFrame := append([]byte(nil), enc.Decision(next)...)
	deltaBytes, ok := enc.DecisionDelta(base, next, layout)
	if !ok {
		return fmt.Errorf("encoder declined a 1%% delta")
	}
	deltaFrame := append([]byte(nil), deltaBytes...)

	p.set("wire.encode_snapshot_ns", p.perOp("wire.Encoder.Snapshot", 500, func() { sink += float64(len(enc.Snapshot(snap))) }))
	var gotSnap wire.Snapshot
	p.set("wire.decode_snapshot_ns", p.perOp("wire.DecodeSnapshot", 500, func() {
		_, payload, e := wire.DecodeFrame(snapFrame)
		note(e)
		note(wire.DecodeSnapshot(payload, &gotSnap))
	}))
	p.set("wire.encode_decision_ns", p.perOp("wire.Encoder.Decision", 200, func() { sink += float64(len(enc.Decision(next))) }))
	var got wire.Decision
	decode := func() {
		_, payload, e := wire.DecodeFrame(decFrame)
		note(e)
		note(wire.DecodeDecision(payload, &got))
	}
	p.set("wire.decode_decision_ns", p.perOp("wire.DecodeDecision", 200, decode))
	p.set("wire.encode_delta_ns", p.perOp("wire.Encoder.DecisionDelta", 200, func() {
		b, _ := enc.DecisionDelta(base, next, layout)
		sink += float64(len(b))
	}))
	var delta wire.Delta
	var applied wire.Decision
	p.set("wire.apply_delta_ns", p.perOp("wire.ApplyDelta", 200, func() {
		_, payload, e := wire.DecodeFrame(deltaFrame)
		note(e)
		note(wire.DecodeDelta(payload, &delta))
		note(wire.ApplyDelta(base, &delta, layout, &applied))
	}))
	if err == nil && !bitwiseEqual(applied.Ratios, next.Ratios) {
		err = fmt.Errorf("applied delta differs from the decision it encodes")
	}
	if err == nil && !bitwiseEqual(got.Ratios, next.Ratios) {
		err = fmt.Errorf("decoded decision differs from the one encoded")
	}
	p.set("wire.frame_allocs", allocs(50, func() {
		sink += float64(len(enc.Decision(next)))
		decode()
	}))
	p.res.note("wire: a large-wan decision is a %d-byte frame, its 1%%-changed delta %d bytes, a snapshot %d bytes",
		len(decFrame), len(deltaFrame), len(snapFrame))
	return err
}
