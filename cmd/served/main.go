// Command served is the online TE controller daemon: it serves routing
// decisions for one or more topologies over the HTTP/JSON API in
// internal/serve, with hot-swappable model checkpoints, streaming demand
// ingest, failure rerouting, churn limiting and drift-triggered
// background retraining.
//
// For each named topology the daemon builds the evaluation environment
// (topology, candidate paths, a synthetic bootstrap trace), trains a
// bootstrap FIGRET checkpoint on the trace's training split, and starts
// a per-topology controller. Checkpoints trained elsewhere are swapped
// in at runtime:
//
//	served -topos pod-db,geant -addr :8080
//	curl -X POST :8080/v1/topologies/pod-db/snapshots -d '{"demand": [...]}'
//	curl :8080/v1/topologies/pod-db/routing
//	curl -X POST :8080/v1/topologies/pod-db/checkpoints --data-binary @model.json
//	curl -X POST :8080/v1/topologies/pod-db/checkpoints/rollback
//	curl :8080/v1/metrics
//
// With -bootstrap=false the daemon starts without models: routing serves
// the uniform fallback until a checkpoint is uploaded.
//
// Next to the API listener the daemon runs an ops listener (-opsaddr)
// with the Prometheus scrape and the probes:
//
//	curl :9090/metrics        Prometheus text exposition (figret_* series)
//	curl :9090/healthz        liveness (200 from boot until shutdown begins)
//	curl :9090/readyz         readiness (200 once every topology has served
//	                          a real decision; 503 with the reason before)
//	go tool pprof :9090/debug/pprof/profile
//
// The ops listener is up before bootstrap training starts, so liveness
// and scrapes work while readiness still reports the warming topologies.
// Logs are structured (log/slog); -loglevel/-logformat or the
// FIGRET_LOG_LEVEL/FIGRET_LOG_FORMAT environment variables tune them,
// and -tracelog emits a debug record per decision-pipeline stage.
//
// The daemon exits only through graceful shutdown: SIGINT/SIGTERM stops
// the listeners, drains every controller (pending sync ingests are
// answered, not dropped) within -draintimeout, and flushes upgraded wire
// streams by closing them.
//
// With -drive the binary becomes a load generator instead of a daemon:
// it replays demand snapshots against an already-running served
// instance — over the pipelined binary wire protocol by default
// (sustained decisions/sec, RTT quantiles, delta mix), or as a
// synchronous JSON closed-loop replay with -drivetransport json:
//
//	served -topos geant -drive http://127.0.0.1:8080 -driven 20000
//	served -topos geant -drive http://127.0.0.1:8080 -drivetransport json
//
// Startup cost is dominated by candidate-path precomputation (Yen's
// algorithm over all SD pairs of every served topology). It fans out
// across all CPUs by default (-pathworkers pins the pool), and -pathcache
// names an on-disk path cache shared with the figret and experiments
// CLIs: with a warm cache the daemon skips the solve entirely and comes
// up in seconds even for large WANs:
//
//	served -topos cogentco,uscarrier -scale full -pathcache /var/cache/figret-paths
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"figret/internal/baselines"
	"figret/internal/eval"
	"figret/internal/experiments"
	"figret/internal/figret"
	"figret/internal/obs"
	"figret/internal/serve"
	"figret/internal/te"
	"figret/internal/tracestore"
)

func main() {
	var (
		cfg topoConfig

		topos   = flag.String("topos", "pod-db", "comma-separated topologies to serve (geant uscarrier cogentco pfabric pod-db pod-web tor-db tor-web large-wan)")
		addr    = flag.String("addr", ":8080", "HTTP listen address of the serving API")
		opsAddr = flag.String("opsaddr", ":9090", "ops listen address for /metrics, /healthz, /readyz and /debug/pprof (empty disables)")
		scale   = flag.String("scale", "fast", "fast|full topology sizing")

		logLevel  = flag.String("loglevel", envOr("FIGRET_LOG_LEVEL", "info"), "log level: debug|info|warn|error (env FIGRET_LOG_LEVEL)")
		logFormat = flag.String("logformat", envOr("FIGRET_LOG_FORMAT", "text"), "log format: text|json (env FIGRET_LOG_FORMAT)")
		traceLog  = flag.Bool("tracelog", false, "emit a debug log record per decision-pipeline stage (expensive at decision rate; requires -loglevel debug)")
		drainT    = flag.Duration("draintimeout", 10*time.Second, "graceful-shutdown budget for draining controllers")

		drive          = flag.String("drive", "", "load-generator mode: instead of serving, drive the daemon at this base URL (e.g. http://127.0.0.1:8080); the first -topos entry names the target topology")
		driveN         = flag.Int("driven", 0, "load-generator request count (0 = one pass over the topology's trace)")
		driveTransport = flag.String("drivetransport", "wire", "drive-mode transport: wire (pipelined binary stream) or json (synchronous closed-loop HTTP replay)")
	)
	flag.IntVar(&cfg.env.T, "T", 200, "bootstrap trace length")
	flag.Int64Var(&cfg.env.Seed, "seed", 1, "random seed")
	flag.StringVar(&cfg.env.PathCache, "pathcache", "", "directory of the on-disk candidate-path cache; a warm cache brings multi-topology daemons up in seconds instead of re-running Yen per process")
	flag.IntVar(&cfg.env.PathWorkers, "pathworkers", 0, "candidate-path precomputation worker pool size (0 = all CPUs); the path set is bitwise identical for any value")
	flag.IntVar(&cfg.model.H, "H", 12, "history window of bootstrap models")
	flag.Float64Var(&cfg.model.Gamma, "gamma", 1, "robustness loss weight of bootstrap models (0 = DOTE)")
	flag.IntVar(&cfg.model.Epochs, "epochs", 6, "bootstrap training epochs")
	flag.IntVar(&cfg.model.BatchSize, "batch", 16, "bootstrap training minibatch size")
	flag.IntVar(&cfg.model.TrainWorkers, "trainworkers", 0, "worker pool size for bootstrap and drift retraining (0 = all CPUs); trained weights are bitwise identical for any value")
	flag.IntVar(&cfg.ctl.HistoryCap, "history", 256, "sliding demand-window capacity per topology")
	flag.Float64Var(&cfg.ctl.MaxChurn, "churn", 0, "per-interval L1 churn limit (0 = unlimited)")
	flag.StringVar(&cfg.ctl.Spool, "spool", "", "directory where each controller spools every ingested snapshot to an on-disk trace store (<dir>/<topology>.fgt); the in-RAM window stays bounded by -history, and a restarted daemon recovers the spool and resumes where it stopped")
	flag.BoolVar(&cfg.bootstrap, "bootstrap", true, "train a bootstrap checkpoint per topology at startup")
	flag.BoolVar(&cfg.drift, "drift", true, "enable drift-triggered background retraining")
	flag.Parse()
	cfg.model.Seed = cfg.env.Seed

	logger, err := newLogger(*logLevel, *logFormat)
	if err != nil {
		fmt.Fprintln(os.Stderr, "served:", err)
		os.Exit(2)
	}
	slog.SetDefault(logger)

	if cfg.scale, err = experiments.ParseScale(*scale); err != nil {
		fmt.Fprintln(os.Stderr, "served:", err)
		os.Exit(2)
	}

	if *drive != "" {
		topo := strings.TrimSpace(strings.Split(*topos, ",")[0])
		if err := runDrive(logger, *drive, topo, *driveTransport, cfg.scale, cfg.env, *driveN); err != nil {
			logger.Error("drive failed", "topology", topo, "err", err)
			os.Exit(1)
		}
		return
	}

	expected := splitTopos(*topos)
	if len(expected) == 0 {
		logger.Error("no topologies to serve", "topos", *topos)
		os.Exit(2)
	}
	if cfg.bootstrap && cfg.ctl.HistoryCap > 0 && cfg.model.H > cfg.ctl.HistoryCap {
		// Every synchronous ingest would answer 500 (ErrNeverServable)
		// forever; an uploaded checkpoint is still checked per decision.
		fmt.Fprintf(os.Stderr, "served: -H %d exceeds -history %d: the bootstrap model's window would never fit the demand window\n", cfg.model.H, cfg.ctl.HistoryCap)
		os.Exit(2)
	}

	// Observability comes up first: the ops listener answers liveness and
	// scrapes while bootstrap training still runs, and readiness reports
	// which topology it is waiting for.
	metrics := obs.NewRegistry()
	obs.RegisterRuntimeMetrics(metrics)
	tel := serve.NewTelemetry(metrics)
	if *traceLog {
		tel.LogSpans(logger)
	}

	reg := serve.NewRegistry()
	srv := serve.NewServer(reg)
	srv.UseTelemetry(tel)

	var draining atomic.Bool
	ops := &obs.Ops{
		Metrics: metrics,
		Logger:  logger,
		Healthz: func() error {
			if draining.Load() {
				return errors.New("shutting down")
			}
			return nil
		},
		Readyz: func() error {
			if draining.Load() {
				return errors.New("shutting down")
			}
			return srv.Ready(expected...)
		},
	}
	var opsSrv *http.Server
	if *opsAddr != "" {
		opsSrv = startListener(logger, "ops", *opsAddr, ops.Handler())
	}

	if cfg.env.PathCache != "" {
		tel.RegisterCacheStats("paths", "", te.PathCacheStats)
	}
	if cfg.ctl.Spool != "" {
		registerTracestoreMetrics(metrics)
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	cfg.logger, cfg.tel, cfg.srv, cfg.reg = logger, tel, srv, reg
	for _, topo := range expected {
		if err := cfg.addTopology(topo); err != nil {
			logger.Error("topology bootstrap failed", "topology", topo, "err", err)
			os.Exit(1)
		}
		if ctx.Err() != nil {
			break // signalled mid-bootstrap: skip straight to the drain
		}
	}

	apiSrv := startListener(logger, "api", *addr, srv.Handler())
	logger.Info("serving", "addr", *addr, "ops", *opsAddr, "topologies", expected)

	// The only exit path: wait for the signal, then drain gracefully —
	// probes flip first (load balancers stop routing), listeners stop
	// accepting, wire streams flush and close, controllers answer their
	// queued sync ingests.
	<-ctx.Done()
	stop()
	draining.Store(true)
	logger.Info("shutdown requested, draining", "timeout", *drainT)

	shCtx, cancel := context.WithTimeout(context.Background(), *drainT)
	defer cancel()
	if err := apiSrv.Shutdown(shCtx); err != nil {
		logger.Warn("api listener shutdown", "err", err)
	}
	if err := srv.Shutdown(shCtx); err != nil {
		logger.Warn("controller drain incomplete", "err", err)
	}
	if opsSrv != nil {
		// Last: the metrics page stays scrapeable through the drain.
		if err := opsSrv.Shutdown(shCtx); err != nil {
			logger.Warn("ops listener shutdown", "err", err)
		}
	}
	logger.Info("shutdown complete")
}

// registerTracestoreMetrics exports the process-wide trace-store
// counters (the ingest spools' writes and recovery reads) as scrape-time
// Prometheus counters.
func registerTracestoreMetrics(reg *obs.Registry) {
	reg.CounterFunc("figret_tracestore_blocks_written_total",
		"Trace-store block writes, including tail-block rewrites.",
		func() float64 { return float64(tracestore.Stats().BlocksWritten) })
	reg.CounterFunc("figret_tracestore_bytes_written_total",
		"Bytes handed to the OS by trace-store block writes.",
		func() float64 { return float64(tracestore.Stats().BytesWritten) })
	reg.CounterFunc("figret_tracestore_blocks_verified_total",
		"Trace-store blocks whose payload checksum was validated.",
		func() float64 { return float64(tracestore.Stats().BlocksVerified) })
	reg.CounterFunc("figret_tracestore_bytes_mapped_total",
		"Bytes memory-mapped (or heap-loaded) by trace-store readers.",
		func() float64 { return float64(tracestore.Stats().BytesMapped) })
	reg.CounterFunc("figret_tracestore_opens_total",
		"Successfully-opened trace-store readers.",
		func() float64 { return float64(tracestore.Stats().Opens) })
}

// envOr returns the environment value when set, else def.
func envOr(key, def string) string {
	if v := os.Getenv(key); v != "" {
		return v
	}
	return def
}

func splitTopos(s string) []string {
	var out []string
	for _, t := range strings.Split(s, ",") {
		if t = strings.TrimSpace(t); t != "" {
			out = append(out, t)
		}
	}
	return out
}

// newLogger builds the process logger from level/format names.
func newLogger(level, format string) (*slog.Logger, error) {
	var lv slog.Level
	if err := lv.UnmarshalText([]byte(level)); err != nil {
		return nil, fmt.Errorf("bad log level %q: %w", level, err)
	}
	opts := &slog.HandlerOptions{Level: lv}
	var h slog.Handler
	switch format {
	case "text":
		h = slog.NewTextHandler(os.Stderr, opts)
	case "json":
		h = slog.NewJSONHandler(os.Stderr, opts)
	default:
		return nil, fmt.Errorf("bad log format %q (want text or json)", format)
	}
	return slog.New(h), nil
}

// startListener binds addr synchronously (so a taken port fails fast,
// before bootstrap) and serves h in the background.
func startListener(logger *slog.Logger, name, addr string, h http.Handler) *http.Server {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		logger.Error("listen failed", "listener", name, "addr", addr, "err", err)
		os.Exit(1)
	}
	s := &http.Server{Addr: addr, Handler: h}
	go func() {
		if err := s.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			logger.Error("listener failed", "listener", name, "addr", addr, "err", err)
			os.Exit(1)
		}
	}()
	logger.Info("listening", "listener", name, "addr", ln.Addr().String())
	return s
}

// runDrive is the load-generator mode. The wire transport rebuilds the
// topology's environment (path set + synthetic trace, no training),
// dials the running daemon's binary stream and pipelines demand
// snapshots through it; the json transport runs the synchronous
// closed-loop Replay over plain HTTP. n is the request count either way
// (0 = one pass over the test split). Both log how many decisions the
// daemon actually served, which the e2e smoke gate asserts on.
func runDrive(logger *slog.Logger, baseURL, topo, transport string, sc experiments.Scale, envOpt experiments.EnvOptions, n int) error {
	env, err := experiments.NewEnv(topo, sc, envOpt)
	if err != nil {
		return err
	}
	switch transport {
	case "json":
		client := serve.NewClient(baseURL)
		post := func(demand []float64) (*serve.RoutingResponse, error) {
			return client.PostSnapshot(topo, demand)
		}
		res, err := serve.Replay(post, env.PS, env.Test, serve.ReplayOptions{To: n})
		if err != nil {
			return err
		}
		logger.Info("drive replay done", "transport", "json", "topology", topo,
			"decisions", len(res.Decisions), "mean_mlu", res.MeanMLU, "versions", res.Versions)
		return nil
	case "wire":
		res, err := serve.LoadGen(baseURL, topo, env.PS, env.Test, serve.LoadOptions{Requests: n})
		if err != nil {
			return err
		}
		s := &res.Stream
		logger.Info("drive done", "transport", "wire", "topology", topo,
			"requests", s.Requests, "elapsed", s.Elapsed.Round(time.Millisecond),
			"decisions_per_sec", int(res.DecisionsPerSec), "requests_per_sec", int(res.RequestsPerSec))
		logger.Info("drive rtt", "mean_us", int(s.MeanRTTMicros), "p50_us", int(s.P50RTTMicros),
			"p99_us", int(s.P99RTTMicros))
		logger.Info("drive transfer", "deltas", res.Bin.Deltas, "fulls", res.Bin.Fulls,
			"resyncs", res.Bin.Resyncs, "redials", res.Bin.Redials,
			"bytes_sent", s.BytesSent, "bytes_received", s.BytesReceived)
		return nil
	default:
		return fmt.Errorf("unknown drive transport %q (want wire or json)", transport)
	}
}

// topoConfig is everything addTopology needs besides the topology's
// name: the serving objects and the option structs the flags fill, the
// same for every topology the daemon serves.
type topoConfig struct {
	logger *slog.Logger
	tel    *serve.Telemetry
	srv    *serve.Server
	reg    *serve.Registry
	scale  experiments.Scale
	env    experiments.EnvOptions  // -T -seed -pathcache -pathworkers
	ctl    serve.ControllerOptions // -history -churn -spool

	drift, bootstrap bool // -drift -bootstrap
	// model holds the bootstrap hyperparameters; its TrainWorkers also
	// sizes drift retrains.
	model figret.Config
}

// addTopology builds one topology's environment, starts its controller
// and, with bootstrap set, trains and installs its first checkpoint.
func (c *topoConfig) addTopology(topo string) error {
	start := time.Now()
	env, err := experiments.NewEnv(topo, c.scale, c.env)
	if err != nil {
		return err
	}
	envDone := time.Now()
	if err := c.reg.AddTopology(topo, env.PS); err != nil {
		return err
	}
	opt := c.ctl
	if c.drift {
		// Shadow evaluations normalize against the environment's memoized
		// omniscient oracle; solves run in the background and are shared
		// across retrains.
		oracle := eval.NewOracle(env.PS, baselines.AutoSolve(env.PS), nil)
		c.tel.RegisterCacheStats("oracle", topo, oracle.Stats)
		opt.Drift = &serve.DriftOptions{
			Oracle:       oracle,
			TrainWorkers: c.model.TrainWorkers,
		}
	}
	if _, err := c.srv.Add(topo, opt); err != nil {
		return err
	}
	if !c.bootstrap {
		c.logger.Info("topology ready", "topology", topo, "checkpoint", "none (uniform fallback until upload)")
		return nil
	}
	trainStart := time.Now()
	m := figret.New(env.PS, c.model)
	stats, err := m.Train(env.Train)
	if err != nil {
		return err
	}
	trained := time.Now()
	ck, err := c.reg.Install(topo, m, "bootstrap")
	if err != nil {
		return err
	}
	// Where the boot went, stage by stage, for whoever reads the log.
	c.logger.Info("topology ready", "topology", topo, "version", ck.Version,
		"params", m.Net.NumParams(),
		"env_s", envDone.Sub(start).Seconds(), "train_s", trained.Sub(trainStart).Seconds(),
		"install_s", time.Since(trained).Seconds(),
		"train_mlu_first", stats.EpochMLU[0], "train_mlu_last", stats.EpochMLU[len(stats.EpochMLU)-1])
	return nil
}
