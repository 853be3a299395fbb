package main

// This file is the single declaration of every workload and metric the
// benchmark reports. BENCHMARK.json repeats the names, units and bounds
// (TestBenchmarkJSONAgrees keeps the two in step); README.md explains them.

// Workload names. Later issues refer to workloads by exactly these.
const (
	wlServePod      = "serve-pod-wire"
	wlServeLargeWAN = "serve-largewan-wire"
	wlServeMixed    = "serve-geant-mixed"
	wlTrain         = "train-largewan"
	wlSuite         = "scenario-suite"
)

type workloadSpec struct {
	Name string
	// Topo is the topology the workload's daemon (serve-*) or trainer
	// runs on; the suite spans many and has none of its own.
	Topo string
	// Daemons is how many daemons, each a complete set-up, a serve workload
	// spreads its measured phase over. One daemon process differs from the
	// next by more than a longer phase on one of them averages away (pod-db:
	// 9% spread of op_p10_ms between runs on one daemon, 4% on three);
	// large-wan has one because its set-up and warm-up take 15 s.
	Daemons int
	// Op names what one operation is, for the report.
	Op  string
	Why string
}

var workloads = []workloadSpec{
	{wlServePod, "pod-db", 3, "decision round trip",
		"smallest message (331-byte decision): per-message glue (serve handler, wire framing, controller hop, allocations) is half the round trip, inference the rest"},
	{wlServeLargeWAN, "large-wan", 1, "decision round trip",
		"opposite corner: figret.Predict/nn forward is about 90% of the round trip and a 45 KB decision makes encode/copy visible; glue changes show nothing"},
	{wlServeMixed, "geant", 3, "decision round trip (JSON connection A)",
		"JSON codec is the largest share; reroutes, checkpoint hot-swaps and published-decision reads run against the decision path on a second connection"},
	{wlTrain, trainTopo, 0, "one Train to a fixed loss (fixed epochs, bitwise-fixed trajectory)",
		"wall-clock to a fixed training loss: nn batched kernels, burst-aware loss and shard reduce do all the work; serve/wire none"},
	{wlSuite, "", 0, "one cold `scenarios diff` pass over the 15 golden-gated specs",
		"the developer's clock: te path precompute, traffic generation, eval.Oracle/solver, substrate training, netsim and the in-process closed loop all contribute"},
}

func findWorkload(name string) *workloadSpec {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i]
		}
	}
	return nil
}

type metricSpec struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is the share of the parent's median by which an end-to-end
	// metric may worsen before it counts as a regression (0 for
	// per-layer metrics, which have none).
	Bound float64
	// Moves is the written prediction: which end-to-end metric on which
	// workload this metric should move, and where it should not.
	Moves string
}

// End-to-end metrics. Every workload reports every one of them (the
// benchmark contract requires it), so they are named for what the five
// workloads share: an operation is a decision round trip on serve-*, one
// Train on train-largewan and one cold suite pass on scenario-suite. The
// three ROADMAP clocks are op_p10_ms on their workload.
//
// The gate holds the one timing this class of machine repeats: the fast
// decile of operation time. Throughput, the median and the daemon's CPU
// per decision spread 15-25% between runs of the same code here (see
// README.md, "Steadiness"); they are printed by every run and reported as
// per-layer metrics (serve.decisions_per_s, serve.rtt_p50_us,
// serve.cpu_us_per_decision), without a bound.
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower", 0.25,
		"median of the complete set-ups: env + in-process reference model + daemon boot to first real decision (serve-*); child start + env build (train); building the scenarios binary (suite)"},
	{"op_p10_ms", "ms", "lower", 0.25,
		"10th percentile of the wall-clock of one operation: of every round trip of the measured phase pooled (serve-*); of the run's Train calls (train); of its cold passes (suite)"},
}

// suiteSpecs are the scenario specs in name order, one per-layer metric
// each.
var suiteSpecs = []string{
	"dc-pfabric-fluid", "dc-pfabric-offline", "dc-pod-db-offline", "dc-pod-web-fail1",
	"dc-tor-db-offline", "dc-tor-web-fluid-fail1", "wan-cogentco-fail2", "wan-geant-fail1",
	"wan-geant-fluid", "wan-geant-offline", "wan-geant-perturb", "wan-geant-served",
	"wan-large-offline", "wan-uscarrier-gravity", "wan-uscarrier-worstcase",
}

// Per-layer metrics, layer = module name. Every traced run reports every
// one: the in-process probes run on fixed shapes named below, the socket
// probes against a geant daemon, and the "attached" ones (stage scrape,
// serve.rtt_*, wire.bytes_per_decision, wire.delta_ratio, loadgen.*)
// against the workload's own daemon when it has one, else the geant one.
var perLayer = buildPerLayer()

func buildPerLayer() []metricSpec {
	const (
		suite   = "-> op_p10_ms@scenario-suite; ~0 on serve-*"
		train   = "-> op_p10_ms@train-largewan, second-order scenario-suite; ~0 on serve-*"
		lwServe = "-> op_p10_ms@serve-largewan-wire (and its decisions_per_s, cpu_us_per_decision); ~0@serve-pod-wire"
		podGlue = "-> op_p10_ms@serve-pod-wire (and its decisions_per_s, cpu_us_per_decision); ~0@serve-largewan-wire"
		none    = "-> none of today's end-to-end metrics (no workload enables -spool/-tracecache); baseline for a later spool-on workload"
		diag    = "diagnostic of the benchmark itself; not a target"
	)
	m := []metricSpec{
		// graph
		{"graph.yen_us_per_pair", "us", "lower", 0, "YenSolver k=3 over all geant pairs. " + suite + "; setup_s@serve-largewan-wire"},
		{"graph.dijkstra_us", "us", "lower", 0, "one geant ShortestPath. " + suite + "; setup_s@serve-largewan-wire"},
		// te
		{"te.pathset_build_s", "s", "lower", 0, "NewPathSetOpt large-wan cold, workers=nproc. setup_s@serve-largewan-wire, " + suite},
		{"te.pathstore_load_ms", "ms", "lower", 0, "warm PathStore.Load large-wan. setup_s when -pathcache is on; ~0 today"},
		{"te.edgeflows_ns", "ns", "lower", 0, "EdgeFlows geant. " + train + "; " + suite},
		{"te.mlu_ns", "ns", "lower", 0, "PathSet.MLU geant. " + train + "; " + suite},
		{"te.reroute_us", "us", "lower", 0, "Reroute geant one failed link. op_p10_ms@serve-geant-mixed (rerouted half of each B cycle); ~0@serve-pod-wire"},
		{"te.quantize_wcmp_us", "us", "lower", 0, "QuantizeWCMP geant table 16. " + suite + "; ~0@serve-*"},
		// traffic
		{"traffic.gen_ms", "ms", "lower", 0, "ForTopology large-wan T=200. setup_s@serve-largewan-wire, " + suite},
		{"traffic.window_into_ns", "ns", "lower", 0, "WindowInto large-wan H=12. op_p10_ms@serve-largewan-wire, " + train},
		// tracestore
		{"tracestore.write_mb_per_s", "MB/s", "higher", 0, "WriteTrace geant T=200. " + none},
		{"tracestore.open_us", "us", "lower", 0, "Open of that file. " + none},
		{"tracestore.append_us", "us", "lower", 0, "Writer.Append, the spool path. " + none},
		// nn
		{"nn.forward_b1_us.large-wan", "us", "lower", 0, "batch-1 Forward, large-wan shape. " + lwServe},
		{"nn.forward_b1_us.pod-db", "us", "lower", 0, "batch-1 Forward, pod-db shape. op_p10_ms@serve-pod-wire (about half of that round trip); ~0 elsewhere"},
		{"nn.batch_forward_us", "us", "lower", 0, "BatchForward b=16 large-wan. " + train},
		{"nn.batch_backward_us", "us", "lower", 0, "BatchBackward b=16 large-wan. " + train},
		{"nn.dp_accumulate_us", "us", "lower", 0, "DataParallel.Accumulate b=16 large-wan, zero score. " + train},
		{"nn.dp_reduce_us", "us", "lower", 0, "DataParallel.Reduce large-wan. " + train},
		{"nn.step_allocs", "count", "lower", 0, "allocations of one Accumulate+Reduce+Adam step. " + train},
		{"nn.macs_per_sample", "count", "lower", 0, "multiply-accumulates of one large-wan forward, computed from layer sizes, not measured"},
		// figret
		{"figret.predict_us", "us", "lower", 0, "Predictor.PredictAt large-wan. " + lwServe},
		{"figret.predict_allocs", "count", "lower", 0, "allocations of one PredictAt. serve.cpu_us_per_decision@serve-largewan-wire"},
		{"figret.train_epoch_s", "s", "lower", 0, "large-wan T=200 Train at 2 epochs minus Train at 1. " + train},
		{"figret.train_step_us", "us", "lower", 0, "that epoch / its 16-row steps. " + train},
		{"figret.train_kernel_share", "ratio", "lower", 0, "nn forward+backward on the same shapes x steps / epoch time; the remainder is loss + reduce + Adam"},
		{"figret.model_marshal_ms", "ms", "lower", 0, "MarshalJSON geant model. setup_s@serve-*, serve.registry_upload_ms"},
		{"figret.model_load_ms", "ms", "lower", 0, "LoadModel geant model. setup_s@serve-*, serve.registry_upload_ms"},
		// solver / lp
		{"solver.minimize_ms", "ms", "lower", 0, "MinimizeMLU geant 300 iters. " + suite},
		{"solver.warm_minimize_ms", "ms", "lower", 0, "warm-started from the previous optimum, 150 iters. " + suite},
		{"lp.solve_ms", "ms", "lower", 0, "MLUMin pod-db exact. " + suite},
		// eval
		{"eval.oracle_cold_us", "us", "lower", 0, "Oracle.MLU first lookup, pod-db. " + suite},
		{"eval.oracle_hit_ns", "ns", "lower", 0, "Oracle.MLU repeated lookup. " + suite},
		{"eval.oracle_hit_ratio", "ratio", "higher", 0, "hits / lookups over one offline eval.Run. " + suite},
		{"eval.run_cells_per_s", "1/s", "higher", 0, "eval.Run scheme x snapshot cells per second, pod-db. " + suite},
		// baselines / netsim
		{"baselines.advise_us", "us", "lower", 0, "DesTE.Advise geant (grad solver). " + suite},
		{"netsim.interval_us", "us", "lower", 0, "Simulate one geant interval. " + suite + " (fluid specs)"},
		// experiments
		{"experiments.env_s.geant", "s", "lower", 0, "NewEnv geant T=200. setup_s@serve-geant-mixed, " + suite},
		{"experiments.env_s.large-wan", "s", "lower", 0, "NewEnv large-wan T=200. setup_s@serve-largewan-wire, train-largewan, " + suite},
		{"experiments.env_s.cogentco", "s", "lower", 0, "NewEnv cogentco T=200. " + suite},
	}
	// scenario
	for _, name := range suiteSpecs {
		m = append(m, metricSpec{"scenario.spec_s." + name, "s", "lower", 0,
			"RunOne on one shared Runner in name order, so a spec that pays for a new substrate shows it. " + suite})
	}
	m = append(m,
		metricSpec{"scenario.golden_compare_us", "us", "lower", 0, "Store.Load + Compare of one golden. " + suite},
		// serve, in process (geant)
		metricSpec{"serve.controller_ingest_us", "us", "lower", 0, "Controller.Ingest(wait) geant. op_p10_ms@serve-geant-mixed"},
		metricSpec{"serve.controller_self_us", "us", "lower", 0, "ingest minus figret.Predictor on the same window. " + podGlue},
		metricSpec{"serve.controller_allocs", "count", "lower", 0, "allocations of one Ingest. " + podGlue},
		metricSpec{"serve.limit_churn_us", "us", "lower", 0, "LimitChurn geant. ~0 everywhere (no workload sets -churn)"},
		metricSpec{"serve.registry_install_ms", "ms", "lower", 0, "Registry.Install geant. setup_s@serve-geant-mixed"},
		// serve, over the socket (geant daemon)
		metricSpec{"serve.json_rtt_us", "us", "lower", 0, "sync snapshot over JSON. op_p10_ms@serve-geant-mixed"},
		metricSpec{"serve.binhttp_rtt_us", "us", "lower", 0, "same snapshots over binary HTTP. ~0 on today's workloads' gates (B reads only)"},
		metricSpec{"serve.wire_rtt_us", "us", "lower", 0, "same snapshots over the upgraded stream. op_p10_ms@serve-*-wire"},
		metricSpec{"serve.wire_pipelined_dps", "1/s", "higher", 0, "LoadGen pipelined stream. none today: one controller goroutine serialises a topology"},
		metricSpec{"serve.async_ingest_per_s", "1/s", "higher", 0, "StreamAsync. none today (no async workload)"},
		metricSpec{"serve.coalesced_ratio", "ratio", "higher", 0, "coalesced / ingested during that async run, from the scrape"},
		metricSpec{"serve.routing_get_us", "us", "lower", 0, "Routing GET over binary HTTP. routing_reads_per_s@serve-geant-mixed"},
		metricSpec{"serve.failures_report_us", "us", "lower", 0, "ReportFailures. tail of A on serve-geant-mixed"},
		metricSpec{"serve.registry_upload_ms", "ms", "lower", 0, "UploadCheckpoint of a gamma=0 checkpoint. tail of A on serve-geant-mixed"},
		metricSpec{"serve.rollback_us", "us", "lower", 0, "Rollback. tail of A on serve-geant-mixed"},
		metricSpec{"serve.boot_to_listen_s", "s", "lower", 0, "process start to the API listener accepting. setup_s@serve-*"},
		metricSpec{"serve.drain_s", "s", "lower", 0, "SIGTERM to exit. none (not on a measured path)"},
		// serve, attached: the daemon's own /metrics differenced over the traced phase
		metricSpec{"serve.stage_ingest_us", "us", "lower", 0, "queue wait, enqueue to controller pickup. " + podGlue},
		metricSpec{"serve.stage_window_us", "us", "lower", 0, "window append. " + podGlue},
		metricSpec{"serve.stage_predict_us", "us", "lower", 0, "inference. " + lwServe},
		metricSpec{"serve.stage_reroute_us", "us", "lower", 0, "churn limit + reroute. op_p10_ms@serve-geant-mixed"},
		metricSpec{"serve.stage_publish_us", "us", "lower", 0, "publish. " + podGlue},
		metricSpec{"serve.handler_us", "us", "lower", 0, "transport histogram mean (ingest to response inside the daemon). " + podGlue},
		metricSpec{"serve.net_self_us", "us", "lower", 0, "client round-trip mean minus serve.handler_us: socket + HTTP/stream glue + scheduler. " + podGlue},
		metricSpec{"serve.stage_sum_ratio", "ratio", "lower", 0, "sum of the five stage means / scraped decision-duration mean; expected within 10% of 1"},
		metricSpec{"serve.peak_rss_mb", "MB", "lower", 0, "attached: VmHWM of the daemon after the phase; the issue's peak_rss_mb, kept off the gate (its spread on serve-geant-mixed is 21-24%)"},
		metricSpec{"serve.rtt_p10_us", "us", "lower", 0, "attached: 10th percentile of the client round trips of the traced phase, pooled; op_p10_ms of a serve workload, from the traced run"},
		metricSpec{"serve.rtt_p50_us", "us", "lower", 0, "attached: their median; the issue's decision_p50_us, kept off the gate (spreads 17-21% between runs of the same code on the wire workloads)"},
		metricSpec{"serve.rtt_p99_us", "us", "lower", 0, "per-segment p99 (or the highest percentile with >=10 samples beyond it), median of segments; the issue's decision_p99_us, kept off the gate"},
		metricSpec{"serve.decisions_per_s", "1/s", "higher", 0, "attached: connection A's decisions / segment wall-clock, median of segments; the issue's decisions_per_s, kept off the gate (spreads 22-25% on serve-pod-wire)"},
		metricSpec{"serve.cpu_us_per_decision", "us", "lower", 0, "attached: the daemon's utime+stime over the phase / decisions served; the issue's cpu_us_per_decision, kept off the gate (spreads 15-17% on serve-pod-wire)"},
		// wire (large-wan shape)
		metricSpec{"wire.encode_snapshot_ns", "ns", "lower", 0, "serve.cpu_us_per_decision@serve-largewan-wire; ~0@train/suite"},
		metricSpec{"wire.decode_snapshot_ns", "ns", "lower", 0, "serve.cpu_us_per_decision@serve-largewan-wire"},
		metricSpec{"wire.encode_decision_ns", "ns", "lower", 0, "serve.cpu_us_per_decision@serve-largewan-wire (45 KB frames)"},
		metricSpec{"wire.decode_decision_ns", "ns", "lower", 0, "serve.cpu_us_per_decision@serve-largewan-wire"},
		metricSpec{"wire.encode_delta_ns", "ns", "lower", 0, "synthetic 1%-of-pairs-changed decision pair; none today (real replays never produce a delta)"},
		metricSpec{"wire.apply_delta_ns", "ns", "lower", 0, "same pair; none today"},
		metricSpec{"wire.frame_allocs", "count", "lower", 0, "allocations of encode+frame-decode+decode of one decision. serve.cpu_us_per_decision@serve-largewan-wire"},
		metricSpec{"wire.bytes_per_decision", "B", "lower", 0, "attached: bytes received / decisions on the workload's stream"},
		metricSpec{"wire.delta_ratio", "ratio", "higher", 0, "attached: deltas / decisions from BinStats; 0 on real replays"},
		// obs
		metricSpec{"obs.counter_inc_ns", "ns", "lower", 0, "serve.cpu_us_per_decision@serve-pod-wire (the daemon always runs with telemetry on); ~0@serve-largewan-wire"},
		metricSpec{"obs.histogram_observe_ns", "ns", "lower", 0, "serve.cpu_us_per_decision@serve-pod-wire"},
		metricSpec{"obs.span_mark_ns", "ns", "lower", 0, "serve.cpu_us_per_decision@serve-pod-wire"},
		metricSpec{"obs.render_us", "us", "lower", 0, "one /metrics page. none (never scraped during a measured phase)"},
		// loadgen: the benchmark itself
		metricSpec{"loadgen.paced_p50_us", "us", "lower", 0, "attached: fixed-schedule phase, latency from the intended send time. " + diag},
		metricSpec{"loadgen.paced_p99_us", "us", "lower", 0, "same phase. " + diag},
		metricSpec{"loadgen.paced_late_p99_us", "us", "lower", 0, "how late the generator sent. " + diag},
		metricSpec{"loadgen.canary_ratio", "ratio", "lower", 0, "worst kept canary / best canary of the run. " + diag},
		metricSpec{"loadgen.segments_retried", "count", "lower", 0, "segments discarded for a slow canary. " + diag},
		metricSpec{"loadgen.trace_overhead_ratio", "ratio", "higher", 0, "operations per second of traced segments / untraced segments of the same run. " + diag},
	)
	return m
}

// pacedRate is the fixed schedule of the paced phase, requests per second
// by topology: about half of what one synchronous wire connection sustains.
var pacedRate = map[string]float64{"pod-db": 2000, "geant": 400, "large-wan": 150}

// Daemon and model configuration shared by every serve workload and by
// the in-process reference the decisions are verified against.
const (
	serveT      = 200
	serveH      = 12
	serveEpochs = 2
	serveBatch  = 16
)

// Training workload: large-wan fast, T=400, H=12, gamma=1, batch 16. Fixed
// epochs is fixed loss because the trajectory is bitwise deterministic. One
// epoch (288 windows, about 1.5 s) per Train, so that a run holds six or
// more operations for the fast decile to choose from.
const (
	trainTopo   = "large-wan"
	trainT      = 400
	trainEpochs = 1
)
