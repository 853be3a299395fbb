package serve

import (
	"log/slog"
	"sync"
	"time"

	"figret/internal/obs"
	"figret/internal/tracestore"
)

// Decision-span stages, in pipeline order. A span opens when a snapshot
// is enqueued (Ingest) and marks each stage as the controller pushes it
// through the pipeline; the per-stage latencies land in the
// figret_serve_stage_duration_seconds{topology,stage} histograms, so
// queueing delay is attributable separately from inference or reroute
// cost — the L4Span-style visibility the drift loop flies by.
const (
	stageIngest  = iota // queue wait: enqueue → controller pickup
	stageWindow         // window append + trim + drift observation
	stagePredict        // model inference over the window
	stageReroute        // churn limiting + failure reroute
	stagePublish        // atomic publish + latency bookkeeping
	numStages
)

var stageNames = [numStages]string{"ingest", "window", "predict", "reroute", "publish"}

// Telemetry is the serving subsystem's view into an obs.Registry: it
// decides which registry — and so which Prometheus page — the instruments
// land on. A nil *Telemetry leaves the server's transport timing, the
// wire-stream lifecycle and the registry's install/rollback counts
// unobserved at one branch per call site; a Controller
// counts its events regardless (into a private registry when handed
// none, see ControllerOptions.Telemetry). Instruments only count and
// time: replays over a shared and over a private registry are bitwise
// identical (TestTelemetryZeroImpact).
type Telemetry struct {
	reg      *obs.Registry
	traceLog *slog.Logger

	mu    sync.Mutex
	topos map[string]*topoTelemetry
	store storeTelemetry // registered by the first spool to open (storeIO)

	transports map[string]*transportTelemetry

	wireConnsActive *obs.Gauge
	wireConnsTotal  *obs.Counter
	wireDecisions   *obs.Counter
}

// Transport labels of the three serving surfaces.
const (
	transportJSON    = "json"
	transportBinHTTP = "binhttp"
	transportWire    = "wire"
)

// NewTelemetry builds the serving instrument set over reg.
func NewTelemetry(reg *obs.Registry) *Telemetry {
	t := &Telemetry{
		reg:        reg,
		topos:      make(map[string]*topoTelemetry),
		transports: make(map[string]*transportTelemetry, 3),
		wireConnsActive: reg.Gauge("figret_wire_connections_active",
			"Upgraded wire streams currently open."),
		wireConnsTotal: reg.Counter("figret_wire_connections_total",
			"Upgraded wire streams accepted since start."),
		// Every stream decision is a full frame; the one-valued label
		// keeps the series the benchmark scrapes.
		wireDecisions: reg.Counter("figret_wire_decisions_total",
			"Decisions sent on wire streams by encoding.", obs.L("encoding", "full")),
	}
	for _, tr := range []string{transportJSON, transportBinHTTP, transportWire} {
		t.transports[tr] = &transportTelemetry{
			requests: reg.Counter("figret_serve_transport_requests_total",
				"Decision-path requests per transport.", obs.L("transport", tr)),
			latency: reg.Histogram("figret_serve_transport_duration_seconds",
				"Ingest-to-response latency per transport.", obs.DefaultLatencyBuckets(),
				obs.L("transport", tr)),
		}
	}
	return t
}

// LogSpans attaches a structured trace log: every span stage of every
// topology tracer (existing and future) emits a Debug record. Expensive
// at decision rate — meant for targeted debugging, not steady state.
func (t *Telemetry) LogSpans(l *slog.Logger) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.traceLog = l
	for _, tt := range t.topos {
		tt.tracer.LogSpans(l)
	}
}

// RegisterCacheStats exports a cache's monotonic hit/miss counters
// (oracle solves, path stores) as scrape-time counters.
func (t *Telemetry) RegisterCacheStats(cache, topo string, stats func() (hits, misses uint64)) {
	if t == nil {
		return
	}
	labels := []obs.Label{obs.L("cache", cache)}
	if topo != "" {
		labels = append(labels, obs.L("topology", topo))
	}
	t.reg.CounterFunc("figret_cache_hits_total", "Cache hits by cache and topology.",
		func() float64 { h, _ := stats(); return float64(h) }, labels...)
	t.reg.CounterFunc("figret_cache_misses_total", "Cache misses by cache and topology.",
		func() float64 { _, m := stats(); return float64(m) }, labels...)
}

// topoTelemetry is one topology's instrument set — the only place a
// controller books its events. Both metrics endpoints render from it:
// Prometheus through the registry, JSON through Controller.Metrics.
type topoTelemetry struct {
	snapshots    *obs.Counter
	coalesced    *obs.Counter
	decisions    *obs.Counter
	rerouted     *obs.Counter
	churnLimited *obs.Counter
	warming      *obs.Counter
	rollbacks    *obs.Counter
	retrains     map[string]*obs.Counter // outcome → counter
	latency      *obs.Histogram
	tracer       *obs.Tracer
	spoolBytes   *obs.Gauge
	spoolErrors  *obs.Counter

	reg  *obs.Registry
	topo string
}

func newTopoTelemetry(reg *obs.Registry, name string) *topoTelemetry {
	l := obs.L("topology", name)
	tt := &topoTelemetry{
		reg:  reg,
		topo: name,
		snapshots: reg.Counter("figret_serve_snapshots_total",
			"Demand snapshots ingested.", l),
		coalesced: reg.Counter("figret_serve_snapshots_coalesced_total",
			"Async snapshots that entered the window without their own decision.", l),
		decisions: reg.Counter("figret_serve_decisions_total",
			"Routing decisions published.", l),
		rerouted: reg.Counter("figret_serve_decisions_rerouted_total",
			"Published decisions that applied a failure reroute.", l),
		churnLimited: reg.Counter("figret_serve_decisions_churn_limited_total",
			"Published decisions clamped by the churn limit.", l),
		warming: reg.Counter("figret_serve_warming_total",
			"Sync ingests answered while warming (no decision yet).", l),
		rollbacks: reg.Counter("figret_serve_rollbacks_total",
			"Checkpoint rollbacks.", l),
		retrains: make(map[string]*obs.Counter, 3),
		spoolBytes: reg.Gauge("figret_serve_spool_bytes",
			"Durable bytes of the on-disk ingest spool.", l),
		spoolErrors: reg.Counter("figret_serve_spool_errors_total",
			"Spool append failures (spooling disables itself after the first).", l),
		latency: reg.Histogram("figret_serve_decision_duration_seconds",
			"End-to-end decision latency (ingest pickup to publish).",
			obs.DefaultLatencyBuckets(), l),
		tracer: obs.NewTracer(reg, "figret_serve_stage_duration_seconds",
			"Decision pipeline stage latency.", stageNames[:],
			obs.DefaultLatencyBuckets(), l),
	}
	for _, outcome := range []string{"accepted", "rejected", "failed"} {
		tt.retrains[outcome] = reg.Counter("figret_serve_retrains_total",
			"Drift-triggered retrains by outcome.", l, obs.L("outcome", outcome))
	}
	return tt
}

// topo returns (creating on first use) the named topology's instrument
// set; nil on a nil Telemetry. Controllers that share a Telemetry and a
// topology name share one set, as they share its Prometheus series.
func (t *Telemetry) topo(name string) *topoTelemetry {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	tt := t.topos[name]
	if tt == nil {
		tt = newTopoTelemetry(t.reg, name)
		tt.tracer.LogSpans(t.traceLog)
		t.topos[name] = tt
	}
	return tt
}

func (tt *topoTelemetry) ingest(coalesced bool) {
	tt.snapshots.Inc()
	if coalesced {
		tt.coalesced.Inc()
	}
}

func (tt *topoTelemetry) decision(d *Decision, latency time.Duration) {
	tt.decisions.Inc()
	tt.latency.Observe(latency.Seconds())
	if d.Rerouted {
		tt.rerouted.Inc()
	}
	if d.ChurnLimited {
		tt.churnLimited.Inc()
	}
}

// install counts a checkpoint activation; sources are unbounded
// operator strings, so the counter is created on demand.
func (tt *topoTelemetry) install(source string) {
	tt.reg.Counter("figret_serve_checkpoint_installs_total",
		"Checkpoint activations by source.",
		obs.L("topology", tt.topo), obs.L("source", source)).Inc()
}

// storeTelemetry is a registry's figret_tracestore_* counters: the I/O
// of every spool handle its controllers opened, summed, and the readers
// their recoveries opened.
type storeTelemetry struct {
	blocksWritten, bytesWritten, blocksVerified, bytesRead, opens *obs.Counter
}

// book adds the I/O a handle did between two of its Stats readings.
func (st storeTelemetry) book(now, before tracestore.CounterStats) {
	st.blocksWritten.Add(now.BlocksWritten - before.BlocksWritten)
	st.bytesWritten.Add(now.BytesWritten - before.BytesWritten)
	st.blocksVerified.Add(now.BlocksVerified - before.BlocksVerified)
	st.bytesRead.Add(now.BytesRead - before.BytesRead)
}

// storeIO returns the trace-store counters, registering them on first
// use, so a registry without spools shows none. On a nil Telemetry they
// are nil instruments: nothing could read them.
func (t *Telemetry) storeIO() storeTelemetry {
	if t == nil {
		return storeTelemetry{}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.store.opens == nil {
		r := t.reg
		t.store = storeTelemetry{
			blocksWritten:  r.Counter("figret_tracestore_blocks_written_total", "Trace-store block writes, including tail-block flushes."),
			bytesWritten:   r.Counter("figret_tracestore_bytes_written_total", "Bytes handed to the OS by trace-store block writes."),
			blocksVerified: r.Counter("figret_tracestore_blocks_verified_total", "Trace-store blocks whose payload checksum was validated."),
			bytesRead:      r.Counter("figret_tracestore_bytes_read_total", "Trace-store block bytes read back by readers."),
			opens:          r.Counter("figret_tracestore_opens_total", "Successfully-opened trace-store readers."),
		}
	}
	return t.store
}

// transportTelemetry times the decision path of one serving surface.
type transportTelemetry struct {
	requests *obs.Counter
	latency  *obs.Histogram
}

func (tr *transportTelemetry) observe(d time.Duration) {
	if tr == nil {
		return
	}
	tr.requests.Inc()
	tr.latency.Observe(d.Seconds())
}

// transport returns the named transport's instruments; nil on a nil
// Telemetry.
func (t *Telemetry) transport(name string) *transportTelemetry {
	if t == nil {
		return nil
	}
	return t.transports[name]
}

// Wire-stream lifecycle hooks (nil-safe).

func (t *Telemetry) wireConnOpen() {
	if t == nil {
		return
	}
	t.wireConnsTotal.Inc()
	t.wireConnsActive.Add(1)
}

func (t *Telemetry) wireConnClose() {
	if t != nil {
		t.wireConnsActive.Add(-1)
	}
}

func (t *Telemetry) wireDecisionSent() {
	if t != nil {
		t.wireDecisions.Inc()
	}
}
