package serve

import (
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"figret/internal/eval"
	"figret/internal/figret"
	"figret/internal/obs"
	"figret/internal/te"
	"figret/internal/tracestore"
	"figret/internal/traffic"
)

// ErrClosed marks requests against a stopped controller (a server-side
// lifecycle condition, not a caller fault — the HTTP layer maps it to
// 503).
var ErrClosed = errors.New("controller closed")

// ErrNeverServable marks a standing misconfiguration: the active
// checkpoint's history window exceeds the controller's HistoryCap, so
// warming can never complete (mapped to 500 by the HTTP layer and
// surfaced to async ingesters via Metrics.ConfigError).
var ErrNeverServable = errors.New("history cap below checkpoint window")

// Decision is one published routing decision. Decisions are immutable
// once published: readers must not modify Config.R.
type Decision struct {
	// Seq numbers published decisions (1-based; 0 is the bootstrap
	// fallback published before any snapshot arrives).
	Seq int64
	// Snapshot is the absolute index of the newest demand snapshot the
	// decision saw (-1 for the bootstrap fallback).
	Snapshot int64
	// Version is the model checkpoint that produced the decision (0 when
	// no checkpoint was active and the fallback config is serving).
	Version int
	// Config is the routing configuration (split ratio per candidate
	// path).
	Config *te.Config
	// Rerouted reports that a link-failure reroute (te.Reroute) was
	// applied.
	Rerouted bool
	// ChurnLimited reports that the hysteresis limit clamped this
	// decision toward its predecessor.
	ChurnLimited bool
	// At is the publication time.
	At time.Time
}

// IngestResult is the outcome of one ingested snapshot.
type IngestResult struct {
	// Snapshot is the absolute index assigned to the ingested snapshot.
	Snapshot int64
	// Decision is the decision computed from the window ending at this
	// snapshot (nil for async ingests and while warming).
	Decision *Decision
	// Warming reports that no decision could be computed yet: no active
	// checkpoint, or fewer than H snapshots ingested.
	Warming bool
}

// ControllerOptions tunes one topology's controller.
type ControllerOptions struct {
	// HistoryCap bounds the sliding demand window (default 256). It must
	// comfortably exceed the active model's history length H — snapshots
	// beyond the cap are forgotten oldest-first — and bounds the trace
	// drift-triggered retraining learns from.
	HistoryCap int
	// MaxChurn caps the total L1 split-ratio movement per decision
	// interval (Σ_p |r_p − r'_p|): when a fresh model decision would move
	// more than this, it is blended toward the previous decision's
	// pre-reroute configuration so exactly MaxChurn mass moves. 0
	// disables hysteresis. The limit applies between consecutive model
	// decisions; failure reroutes are never clamped (restoring
	// connectivity beats smoothness).
	MaxChurn float64
	// DriftOracle, when non-nil, enables drift-triggered background
	// retraining: the driftDetector watches every served interval, and a
	// retrain's candidate is shadow-evaluated against the incumbent on
	// MLUs normalized by this oracle's memoized omniscient solves. The
	// solves run in the background retrain goroutine and hit the shared
	// cache, so shadow evaluation never blocks the decision path.
	DriftOracle *eval.Oracle
	// Telemetry names the obs registry this controller's counters, stage
	// spans and latency histograms are exported through. Nil does not
	// turn them off — Metrics and Ready read them — it keeps them on a
	// registry private to the controller, reachable only through Metrics.
	// Instruments observe decisions; they never alter them — replays over
	// a shared and a private registry are bitwise identical.
	Telemetry *Telemetry
	// Spool, when non-empty, is a directory where every ingested snapshot
	// is appended to an on-disk trace store (<dir>/<topo>.fgt) as it
	// arrives. The in-RAM window stays bounded by HistoryCap regardless —
	// the spool is the durable full history it spills to. On restart the
	// controller recovers the spool (truncating from the first damaged
	// record), preloads the newest HistoryCap snapshots into the window,
	// and resumes absolute snapshot numbering where the previous process
	// stopped, so replayed decision sequences continue rather than
	// restart. A spool append failure disables spooling for the
	// controller's lifetime (counted in telemetry) instead of failing the
	// decision path.
	Spool string

	// policy tunes the drift trigger and the retrain; the zero value
	// selects defaultPolicy.
	policy retrainPolicy
}

func (o ControllerOptions) withDefaults() ControllerOptions {
	if o.HistoryCap <= 0 {
		o.HistoryCap = 256
	}
	if o.policy == (retrainPolicy{}) {
		o.policy = defaultPolicy
	}
	return o
}

// ctrlMsg is one message into the controller goroutine.
type ctrlMsg struct {
	// demand is set for snapshot ingests (already copied, correct
	// length).
	demand []float64
	// links is set for failure reports (empty slice clears failures).
	links   [][2]int
	failure bool
	// span traces the snapshot through the decision pipeline. It opens at
	// enqueue, so its first stage is the queue wait.
	span obs.Span
	// reply, when non-nil, receives the result once the message is fully
	// processed (sync ingest / failure report).
	reply chan ingestReply
}

type ingestReply struct {
	res *IngestResult
	err error
}

// Controller serves one topology: a single goroutine owns the sliding
// demand window and processes ingests, failure reports and retrain
// completions strictly in arrival order, so decisions are deterministic
// for a given message sequence. Reads of the current decision and the
// metrics are lock-free and never touch the goroutine.
type Controller struct {
	topo string
	ps   *te.PathSet
	reg  *Registry
	opt  ControllerOptions

	ch       chan ctrlMsg
	retctl   chan struct{}
	stop     chan struct{}
	stopOnce sync.Once
	done     chan struct{}
	decided  atomic.Pointer[Decision]
	start    time.Time
	tel      *topoTelemetry
	// lastRetrainErr and configErr are the two Metrics fields that are
	// messages rather than counts (nil = none).
	lastRetrainErr atomic.Pointer[string]
	configErr      atomic.Pointer[string]

	// Goroutine-owned state below (never touched outside run).
	spool      *tracestore.Writer // nil when spooling is off or failed
	spoolIO    storeTelemetry     // where the spool's handles book their I/O
	history    *traffic.Trace
	nSnapshots int64 // absolute count of ingested snapshots
	seq        int64
	failures   *te.FailureSet
	// base is the latest pre-reroute configuration (the bootstrap uniform
	// split until a model decides). Failure handling always reroutes from
	// this clean base, so clearing or replacing a failure set never
	// leaves stale reroutes behind.
	base       *te.Config
	detector   *driftDetector
	detVersion int // checkpoint version the detector was calibrated for
	retraining bool
}

// NewController builds and starts a controller for a topology registered
// in reg. Close must be called to stop its goroutine.
func NewController(topo string, reg *Registry, opt ControllerOptions) (*Controller, error) {
	ps := reg.PathSet(topo)
	if ps == nil {
		return nil, fmt.Errorf("serve: topology %q not registered", topo)
	}
	opt = opt.withDefaults()
	tel := opt.Telemetry.topo(topo)
	if tel == nil {
		tel = newTopoTelemetry(obs.NewRegistry(), topo)
	}
	c := &Controller{
		topo:    topo,
		ps:      ps,
		reg:     reg,
		opt:     opt,
		ch:      make(chan ctrlMsg, 64),
		retctl:  make(chan struct{}, 1),
		stop:    make(chan struct{}),
		done:    make(chan struct{}),
		start:   time.Now(),
		tel:     tel,
		history: traffic.NewTrace(ps.Pairs.N()),
	}
	if opt.Spool != "" {
		if err := c.openSpool(); err != nil {
			return nil, err
		}
	}
	// Bootstrap fallback: routing reads always answer, even before the
	// first snapshot or checkpoint, with the maximal-hedging uniform
	// split.
	c.base = te.UniformConfig(ps)
	c.publish(&Decision{Seq: 0, Snapshot: -1, Version: 0, Config: c.base, At: time.Now()})
	go c.run()
	return c, nil
}

// openSpool opens — recovering, when the previous process crashed — the
// controller's on-disk ingest spool and warm-starts the in-RAM window
// from the newest HistoryCap snapshots its recovery walk checked;
// absolute snapshot numbering resumes at the spool's durable length.
// Runs before the controller goroutine starts, so it may touch
// goroutine-owned state.
func (c *Controller) openSpool() error {
	if err := os.MkdirAll(c.opt.Spool, 0o755); err != nil {
		return fmt.Errorf("serve: %s spool: %w", c.topo, err)
	}
	w, tail, err := tracestore.OpenAppend(filepath.Join(c.opt.Spool, c.topo+".fgt"), c.ps.Pairs.N(), c.opt.HistoryCap)
	if err != nil {
		return fmt.Errorf("serve: %s spool: %w", c.topo, err)
	}
	for _, s := range tail {
		c.history.AppendOwned(s)
	}
	c.nSnapshots = w.Len()
	c.spool = w
	c.spoolIO = c.opt.Telemetry.storeIO()
	c.spoolIO.book(w.Stats(), tracestore.CounterStats{}) // the recovery walk or a new header
	c.tel.spoolBytes.Set(float64(w.DurableBytes()))
	return nil
}

// spoolSnapshot lands one ingested snapshot in the spool. The decision
// path never fails on spool errors: the first failure counts in
// telemetry and turns spooling off for this controller's lifetime.
func (c *Controller) spoolSnapshot(demand []float64) {
	if c.spool == nil {
		return
	}
	before := c.spool.Stats()
	err := c.spool.Append(demand)
	if err == nil {
		err = c.spool.Flush()
	}
	if err != nil {
		c.tel.spoolErrors.Inc()
		c.spool.Close() // retries the unflushed tail
		c.spoolIO.book(c.spool.Stats(), before)
		c.spool = nil
		return
	}
	c.spoolIO.book(c.spool.Stats(), before)
	c.tel.spoolBytes.Set(float64(c.spool.DurableBytes()))
}

// Topology returns the served topology name.
func (c *Controller) Topology() string { return c.topo }

// Decision returns the currently published routing decision (never nil
// after NewController). The returned value is immutable.
func (c *Controller) Decision() *Decision { return c.decided.Load() }

// Ready reports whether this controller has published at least one real
// decision (model inference or failure republish — not the bootstrap
// fallback). This is the per-topology readiness condition of the
// daemon's /readyz probe, read from the figret_serve_decisions_total
// counter so probes never touch the controller goroutine.
func (c *Controller) Ready() bool { return c.tel.decisions.Value() > 0 }

// Close stops the controller goroutine. Pending sync requests are
// answered with an error. Safe to call multiple times, concurrently.
func (c *Controller) Close() {
	c.stopOnce.Do(func() { close(c.stop) })
	<-c.done
}

// Ingest streams one demand snapshot into the controller. A snapshot of
// the wrong length, or with a negative or non-finite entry, is refused as
// the caller's fault before it touches any state. The slice is copied
// before handoff, so callers may reuse it. With wait set the call
// blocks until the decision for the window ending at this snapshot is
// published and returns it; without, the snapshot enters the window and
// the next published decision covers it (bursts coalesce: queued async
// snapshots all extend the window but only the newest triggers a
// decision).
func (c *Controller) Ingest(demand []float64, wait bool) (*IngestResult, error) {
	if len(demand) != c.ps.Pairs.Count() {
		return nil, fmt.Errorf("serve: %s snapshot has %d entries, want %d", c.topo, len(demand), c.ps.Pairs.Count())
	}
	// The binary transports carry raw float bits: one NaN would enter the
	// window, the spool and the retrain history, and every decision over
	// it would publish NaN ratios.
	for i, v := range demand {
		if !(v >= 0 && v <= math.MaxFloat64) {
			return nil, fmt.Errorf("serve: %s snapshot entry %d is %v, want a finite non-negative demand", c.topo, i, v)
		}
	}
	msg := ctrlMsg{demand: append([]float64(nil), demand...), span: c.tel.tracer.Start()}
	if wait {
		msg.reply = make(chan ingestReply, 1)
	}
	select {
	case c.ch <- msg:
	case <-c.stop:
		return nil, fmt.Errorf("serve: %s: %w", c.topo, ErrClosed)
	}
	if !wait {
		return nil, nil
	}
	select {
	case r := <-msg.reply:
		return r.res, r.err
	case <-c.done:
		return nil, fmt.Errorf("serve: %s: %w", c.topo, ErrClosed)
	}
}

// ReportFailures installs the set of failed undirected links (replacing
// any previous report; an empty set clears all failures) and immediately
// republishes a rerouted decision, without waiting for the next snapshot.
// A report naming a pair that is not a link of the topology in either
// direction is rejected whole, and nothing changes.
func (c *Controller) ReportFailures(links [][2]int) error {
	for _, l := range links {
		_, fwd := c.ps.G.EdgeID(l[0], l[1])
		_, rev := c.ps.G.EdgeID(l[1], l[0])
		if !fwd && !rev {
			return fmt.Errorf("serve: %s: failed link %v is not a link of the topology", c.topo, l)
		}
	}
	cp := make([][2]int, len(links))
	copy(cp, links)
	msg := ctrlMsg{links: cp, failure: true, reply: make(chan ingestReply, 1)}
	select {
	case c.ch <- msg:
	case <-c.stop:
		return fmt.Errorf("serve: %s: %w", c.topo, ErrClosed)
	}
	select {
	case r := <-msg.reply:
		return r.err
	case <-c.done:
		return fmt.Errorf("serve: %s: %w", c.topo, ErrClosed)
	}
}

// run is the controller goroutine: it drains queued messages in batches
// and processes them in order, giving every sync ingest its own decision
// while coalescing runs of async snapshots into the final decision of
// the batch.
func (c *Controller) run() {
	defer close(c.done)
	defer func() {
		if c.spool != nil {
			c.spool.Close() // clean after each snapshot's Flush: no write
		}
	}()
	for {
		select {
		case <-c.stop:
			c.drainOnStop()
			return
		case <-c.retctl:
			c.finishRetrain()
		case msg := <-c.ch:
			batch := []ctrlMsg{msg}
		drain:
			for {
				select {
				case m := <-c.ch:
					batch = append(batch, m)
				default:
					break drain
				}
			}
			// Coalescing is over snapshots only: the newest snapshot of
			// the batch always gets a decision, even when a failure
			// report drained in behind it.
			lastSnap := -1
			for i, m := range batch {
				if !m.failure {
					lastSnap = i
				}
			}
			for i, m := range batch {
				if m.failure {
					c.handleFailures(m)
					continue
				}
				c.handleSnapshot(m, i == lastSnap)
			}
		}
	}
}

// drainOnStop answers queued sync requests with a closed error so no
// caller hangs across Close.
func (c *Controller) drainOnStop() {
	for {
		select {
		case m := <-c.ch:
			if m.reply != nil {
				m.reply <- ingestReply{err: fmt.Errorf("serve: %s: %w", c.topo, ErrClosed)}
			}
		default:
			return
		}
	}
}

// handleSnapshot appends one snapshot to the sliding window, feeds the
// drift detector and — for sync ingests or the newest snapshot of a
// batch — computes and publishes a fresh decision.
func (c *Controller) handleSnapshot(m ctrlMsg, last bool) {
	m.span.Mark(stageIngest) // queue wait: enqueue → pickup
	idx := c.nSnapshots
	c.nSnapshots++
	// m.demand is already controller-owned (Ingest copied it), so it
	// enters the window without a second copy.
	c.history.AppendOwned(m.demand)
	if over := c.history.Len() - c.opt.HistoryCap; over > 0 {
		c.history.Snapshots = c.history.Snapshots[over:]
	}
	c.spoolSnapshot(m.demand)
	c.observeDrift(m.demand)
	m.span.Mark(stageWindow)

	sync := m.reply != nil
	if !sync && !last {
		c.tel.ingest(true)
		return
	}
	c.tel.ingest(false)
	dec, warming, err := c.decide(idx, &m.span)
	if err != nil {
		// Async ingesters never see per-request errors; a standing
		// misconfiguration surfaces through the metrics endpoint.
		msg := err.Error()
		c.configErr.Store(&msg)
	}
	if warming {
		c.tel.warming.Inc()
	}
	if sync {
		m.reply <- ingestReply{res: &IngestResult{Snapshot: idx, Decision: dec, Warming: warming}, err: err}
	}
}

// decide runs inference on the active checkpoint over the current window
// and publishes the resulting decision, recording its latency. It
// returns (nil, true, nil) while warming — no active checkpoint, or not
// enough history for its window yet — and an error when the controller
// can never leave warming because the history cap is below the model's
// window.
func (c *Controller) decide(snapshot int64, span *obs.Span) (*Decision, bool, error) {
	start := time.Now()
	ck := c.reg.Active(c.topo)
	if ck == nil {
		return nil, true, nil
	}
	h := ck.Model.Cfg.H
	if h > c.opt.HistoryCap {
		return nil, true, fmt.Errorf("serve: %s history cap %d vs checkpoint v%d window H=%d: %w",
			c.topo, c.opt.HistoryCap, ck.Version, h, ErrNeverServable)
	}
	if c.history.Len() < h {
		return nil, true, nil
	}
	cfg, err := ck.Model.PredictAt(c.history, c.history.Len())
	if err != nil {
		// PredictAt only fails on a window-range mismatch, which the
		// length check above rules out; keep serving the installed
		// decision.
		return nil, true, nil
	}
	span.Mark(stagePredict)
	dec := &Decision{
		Snapshot: snapshot,
		Version:  ck.Version,
		Config:   cfg,
	}
	// Hysteresis blends toward the previous pre-reroute base — always a
	// feasible per-pair distribution, unlike a published rerouted
	// decision, whose fully-disconnected pairs sum to 0 and would make
	// the blend infeasible. The reroute runs last so no blend can put
	// mass back onto a failed path: connectivity beats smoothness.
	if prev := c.Decision(); c.opt.MaxChurn > 0 && prev.Version > 0 {
		dec.Config, dec.ChurnLimited = LimitChurn(c.base, dec.Config, c.opt.MaxChurn)
	}
	c.base = dec.Config // clean pre-reroute base for failure handling
	if c.failures != nil {
		dec.Config = te.Reroute(dec.Config, c.failures)
		dec.Rerouted = true
	}
	span.Mark(stageReroute)
	c.publish(dec)
	// A model decision proves the config serves. Only model decisions
	// clear the message: a failure-report republish of the fallback must
	// not hide a still-present misconfiguration.
	c.configErr.Store(nil)
	span.Mark(stagePublish)
	c.tel.decision(dec, time.Since(start))
	return dec, false, nil
}

// handleFailures swaps the failure set and immediately republishes the
// clean pre-reroute base rerouted around it, so traffic leaves failed
// links before the next snapshot arrives. Failure handling is pure
// post-processing (the §4.5 policy): no fresh model decision is
// computed, so repeated failure reports cannot advance the churn budget
// between snapshots, and clearing or replacing a failure set never
// leaves stale reroutes behind (the base is never itself rerouted).
func (c *Controller) handleFailures(m ctrlMsg) {
	if len(m.links) == 0 {
		c.failures = nil
	} else {
		c.failures = te.NewFailureSet(c.ps.G, m.links)
	}
	start := time.Now()
	prev := c.Decision()
	dec := &Decision{
		Snapshot: prev.Snapshot,
		Version:  prev.Version,
		Config:   c.base,
	}
	if c.failures != nil {
		dec.Config = te.Reroute(c.base, c.failures)
		dec.Rerouted = true
	}
	c.publish(dec)
	c.tel.decision(dec, time.Since(start))
	m.reply <- ingestReply{}
}

// publish stamps and atomically installs a decision.
func (c *Controller) publish(d *Decision) {
	c.seq++
	d.Seq = c.seq - 1 // bootstrap fallback gets Seq 0
	if d.At.IsZero() {
		d.At = time.Now()
	}
	c.decided.Store(d)
}

// observeDrift feeds the drift detector with the MLU the installed
// configuration achieves on the just-revealed demand. The detector's
// first observations of a version calibrate its healthy level; once it
// flags a sustained degradation, a background retrain starts (at most one
// in flight).
func (c *Controller) observeDrift(demand []float64) {
	if c.opt.DriftOracle == nil {
		return
	}
	if c.failures != nil {
		// During an outage the achieved MLU reflects rerouting around
		// dead links, not model quality; observing it would mistake the
		// failure for drift and retrain in a loop that cannot help.
		return
	}
	prev := c.Decision()
	if prev.Version == 0 {
		return // only model decisions define the serving quality level
	}
	if c.detector == nil || c.detVersion != prev.Version {
		// New serving version (bootstrap, upload or retrain swap): start a
		// fresh calibration at this version's quality level.
		c.detector = newDriftDetector(c.ps, c.opt.policy)
		c.detVersion = prev.Version
	}
	if !c.detector.observe(prev.Config.MLU(demand), demand) || c.retraining {
		return
	}
	ck := c.reg.Active(c.topo)
	// The candidate trains on history with the shadow window held out
	// (see retrain), so both must fit before a retrain can launch.
	if ck == nil || c.history.Len() <= ck.Model.Cfg.H+1+c.opt.policy.shadow {
		return
	}
	c.retraining = true
	go c.retrain(c.history.Clone(), ck)
}

// retrain trains a candidate on the recent window, shadow-evaluates it
// against the incumbent and — when it holds up — installs it as the next
// checkpoint. It runs outside the controller goroutine, so serving
// continues at full rate; the swap itself is the registry's atomic
// pointer store.
func (c *Controller) retrain(hist *traffic.Trace, incumbent *Checkpoint) {
	pol := c.opt.policy
	cfg := incumbent.Model.Cfg
	cfg.Epochs = pol.epochs
	cfg.Seed = cfg.Seed + int64(incumbent.Version) // decorrelate restarts
	cand := figret.New(c.ps, cfg)
	// Hold the shadow window out of training: the candidate is accepted
	// on snapshots neither model trained on, so an overfit candidate
	// cannot buy its way past the incumbent with memorized data.
	if _, err := cand.Train(hist.Slice(0, hist.Len()-pol.shadow)); err != nil {
		c.retrainFailed(err)
		return
	}
	candScore, incScore, err := c.shadowScores(hist, cand, incumbent.Model)
	if err != nil {
		c.retrainFailed(err)
		return
	}
	if candScore > incScore*(1+pol.tolerance) {
		c.tel.retrains["rejected"].Inc()
		c.retctl <- struct{}{}
		return
	}
	// The install is conditional on the incumbent still serving: an
	// operator upload that landed mid-retrain must not be silently
	// superseded by a candidate that was never compared against it.
	if _, err := c.reg.InstallIf(c.topo, cand, "retrain", incumbent); err != nil {
		c.retrainFailed(err)
		return
	}
	c.tel.retrains["accepted"].Inc()
	c.retctl <- struct{}{}
}

func (c *Controller) retrainFailed(err error) {
	msg := err.Error()
	c.lastRetrainErr.Store(&msg)
	c.tel.retrains["failed"].Inc()
	c.retctl <- struct{}{}
}

// shadowScores evaluates candidate and incumbent on the most recent
// policy.shadow predictable snapshots of hist, returning their mean
// oracle-normalized MLUs. Oracle solves are memoized and
// content-addressed, so repeated retrains over overlapping windows hit
// the cache.
func (c *Controller) shadowScores(hist *traffic.Trace, cand, inc *figret.Model) (candScore, incScore float64, err error) {
	h := cand.Cfg.H
	if ih := inc.Cfg.H; ih > h {
		h = ih
	}
	from := hist.Len() - c.opt.policy.shadow
	if from < h {
		from = h
	}
	if from >= hist.Len() {
		return 0, 0, fmt.Errorf("serve: shadow window empty (history %d, H %d)", hist.Len(), h)
	}
	cp, ip := cand.NewPredictor(), inc.NewPredictor()
	var cSum, iSum float64
	n := 0
	for t := from; t < hist.Len(); t++ {
		ccfg, err := cp.PredictAt(hist, t)
		if err != nil {
			return 0, 0, err
		}
		icfg, err := ip.PredictAt(hist, t)
		if err != nil {
			return 0, 0, err
		}
		d := hist.At(t)
		// A snapshot whose omniscient solve fails is skipped for both
		// models: mixing raw and normalized MLUs in one mean would weight
		// snapshots inconsistently around the accept boundary.
		base, err := c.opt.DriftOracle.MLU(d)
		if err != nil || base <= 0 {
			continue
		}
		cSum += ccfg.MLU(d) / base
		iSum += icfg.MLU(d) / base
		n++
	}
	if n == 0 {
		return 0, 0, fmt.Errorf("serve: no scorable shadow snapshots (every oracle solve failed)")
	}
	return cSum / float64(n), iSum / float64(n), nil
}

// finishRetrain clears the in-flight flag and always resets the
// detector: its EWMA and patience counter reflect the pre-retrain model,
// and observeDrift runs before the next decision publishes the new
// version — leaving the latched state live would immediately launch a
// duplicate retrain of the model that was just installed. The next
// observed decision recalibrates at the serving version's quality level
// (see observeDrift).
func (c *Controller) finishRetrain() {
	c.retraining = false
	c.detector = nil
}

// LimitChurn enforces the per-interval hysteresis limit: when moving from
// prev to next would shift more than maxChurn total split-ratio mass
// (Σ_p |next_p − prev_p|), the returned configuration is the convex blend
// prev + α·(next−prev) with α chosen so exactly maxChurn mass moves.
// Blending preserves per-pair ratio sums, so the result is always
// feasible. The second return reports whether clamping occurred.
func LimitChurn(prev, next *te.Config, maxChurn float64) (*te.Config, bool) {
	var churn float64
	for p, r := range next.R {
		d := r - prev.R[p]
		if d < 0 {
			d = -d
		}
		churn += d
	}
	if churn <= maxChurn {
		return next, false
	}
	alpha := maxChurn / churn
	out := prev.Clone()
	for p := range out.R {
		out.R[p] += alpha * (next.R[p] - prev.R[p])
	}
	return out, true
}
