package main

import (
	"fmt"
	"runtime"
	"time"

	"figret/internal/serve"
	"figret/internal/wire"
)

// probeSpec is the geant daemon the socket probes run against when the
// workload has no geant daemon of its own: one wire connection, and the
// γ=0 checkpoint ready to upload.
var probeSpec = workloadSpec{Name: "probe", Topo: "geant", Daemons: 1}

func bootProbeRig(h *harness, served string, seed int64, ops *opCounts) (*serveRig, error) {
	rig, _, err := setUpServe(h, served, &probeSpec, seed, ops)
	return rig, err
}

func setOnce(res *runResult, name string, v float64) {
	if _, done := res.Metrics[name]; !done {
		res.set(name, v)
	}
}

// attachedMetrics reports what the daemon says about its phase ph: its
// /metrics _sum/_count differenced between the end of the warm-up and the
// end of the last segment, against what the client saw.
func attachedMetrics(res *runResult, rig *serveRig, ph *servePhase, g *noiseGuard) error {
	topo := rig.wl.Topo
	before, after := ph.before, ph.after
	res.set("serve.peak_rss_mb", ph.rssMB)
	var stageSum float64
	for _, st := range []string{"ingest", "window", "predict", "reroute", "publish"} {
		mean, _ := after.meanDelta(before, "figret_serve_stage_duration_seconds", "stage", st, "topology", topo)
		res.set("serve.stage_"+st+"_us", mean*1e6)
		stageSum += mean
	}
	decision, nDec := after.meanDelta(before, "figret_serve_decision_duration_seconds", "topology", topo)
	transport := "wire"
	if rig.bin == nil {
		transport = "json"
	}
	handler, nReq := after.meanDelta(before, "figret_serve_transport_duration_seconds", "transport", transport)
	var sum float64
	var n int
	for _, s := range ph.segs {
		sum += s.Mean * float64(s.N)
		n += s.N
	}
	rttMean := sum / float64(n)
	res.set("serve.handler_us", handler*1e6)
	res.set("serve.net_self_us", rttMean-handler*1e6)
	res.set("serve.stage_sum_ratio", stageSum/decision)
	p50 := quantile(ph.rtts, 0.5)
	res.set("serve.rtt_p10_us", quantile(ph.rtts, fastQuantile))
	res.set("serve.rtt_p50_us", p50)
	res.set("serve.rtt_p99_us", medianOf(ph.segs, func(s segmentStats) float64 { return s.Tail }))
	res.set("serve.decisions_per_s", medianOf(ph.segs, func(s segmentStats) float64 { return s.OpsPerSec }))
	res.set("serve.cpu_us_per_decision", float64(ph.cpu)/float64(time.Microsecond)/float64(ph.served))
	predict := res.Metrics["serve.stage_predict_us"].Value
	res.note("scrape over the phase: %.0f decisions, %.0f %s requests; five stage means sum to %.1f us / decision-duration mean %.1f us = %.3f; client round-trip mean %.1f us",
		nDec, nReq, transport, stageSum*1e6, decision*1e6, stageSum/decision, rttMean)
	res.note("serve.stage_predict_us / decision_p50_us = %.1f / %.1f = %.3f on %s", predict, p50, predict/p50, topo)

	deltas := after.delta(before, promKey("figret_wire_decisions_total", "encoding", "delta"))
	fulls := after.delta(before, promKey("figret_wire_decisions_total", "encoding", "full"))
	ratio := 0.0
	if deltas+fulls > 0 {
		ratio = deltas / (deltas + fulls)
	}
	res.set("wire.delta_ratio", ratio)
	res.note("wire stream sent %.0f delta and %.0f full decisions over the phase", deltas, fulls)
	var enc wire.Encoder
	frame := enc.Decision(&wire.Decision{Ratios: make([]float64, rig.ref.env.PS.NumPaths())})
	res.set("wire.bytes_per_decision", float64(len(frame)))

	// The train and suite workloads have their own guard and overhead
	// figures from their own repetitions; these are the serve ones.
	ops := floats(ph.segs, func(s segmentStats) float64 { return s.OpsPerSec })
	setOnce(res, "loadgen.trace_overhead_ratio", traceOverhead(ops, ph.traced))
	setOnce(res, "loadgen.canary_ratio", g.ratio())
	setOnce(res, "loadgen.segments_retried", float64(g.retried))
	return nil
}

// wireConn returns the rig's stream connection, dialing one for the mixed
// workload, whose own connections are HTTP.
func (r *serveRig) wireConn() (*serve.BinClient, func(), error) {
	if r.bin != nil {
		return r.bin, func() {}, nil
	}
	bin, err := serve.DialBin(r.d.api, r.wl.Topo, r.ref.env.PS, serve.BinClientOptions{})
	if err != nil {
		return nil, nil, err
	}
	return bin, func() { bin.Close() }, nil
}

const pacedSeconds = 1.5

// pacedPhase sends on a fixed schedule over one stream connection and
// times each request from the moment it was due, so a stall counts
// against every request it delayed; it also reports how late the
// generator itself ran. time.Sleep wakes ~0.6 ms late on this class of
// machine, longer than pod-db's whole service time, so the generator
// yields in a loop instead of sleeping through the last millisecond.
func pacedPhase(res *runResult, rig *serveRig, tr *tracer) error {
	rate := pacedRate[rig.wl.Topo]
	bin, done, err := rig.wireConn()
	if err != nil {
		return err
	}
	defer done()
	n := int(rate * pacedSeconds)
	interval := time.Duration(float64(time.Second) / rate)
	lat, late := make([]float64, 0, n), make([]float64, 0, n)
	t0 := time.Now()
	for i := 0; i < n; i++ {
		due := t0.Add(time.Duration(i) * interval)
		for {
			wait := time.Until(due)
			if wait <= 0 {
				break
			}
			if wait > 2*time.Millisecond {
				time.Sleep(wait - time.Millisecond)
			} else {
				runtime.Gosched()
			}
		}
		sent := time.Now()
		sp := tr.start("serve.client.post_snapshot.paced", 0, rig.next)
		resp, err := rig.postVia(bin.PostSnapshot)
		tr.end(sp)
		if err != nil {
			return fmt.Errorf("paced phase: %w", err)
		}
		lat = append(lat, us(time.Since(due)))
		late = append(late, us(sent.Sub(due)))
		if i%verifyEvery == 0 {
			rig.pending = append(rig.pending, pendingCheck{rig.next - 1, resp})
		}
	}
	rig.verifyPending()
	slat, slate := sortedCopy(lat), sortedCopy(late)
	pct, tail := tailPercentile(slat, tailWant)
	_, lateTail := tailPercentile(slate, tailWant)
	res.set("loadgen.paced_p50_us", quantile(slat, 0.5))
	res.set("loadgen.paced_p99_us", tail)
	res.set("loadgen.paced_late_p99_us", lateTail)
	res.note("paced phase: %d requests at %.0f/s on %s, latency from the intended send time; tail is p%.4g", n, rate, rig.wl.Topo, pct*100)
	return nil
}

// socketProbes times each way of talking to a geant daemon, one
// connection, one request in flight: the same snapshots over JSON, binary
// HTTP and the upgraded stream, then the read and control-plane calls,
// then the pipelined and asynchronous streams, and last the drain.
func socketProbes(res *runResult, rig *serveRig, tr *tracer) error {
	topo, api := rig.wl.Topo, rig.d.api
	p := &prober{res: res, tr: tr}
	p.layer = tr.start("serve.socket", 0, 0)
	defer func() { tr.end(p.layer) }()
	bin, done, err := rig.wireConn()
	if err != nil {
		return err
	}
	defer done()
	jsonC := &serve.Client{BaseURL: api, HTTP: ownHTTPClient()}
	binC := &serve.Client{BaseURL: api, HTTP: ownHTTPClient(), Binary: true}
	defer jsonC.HTTP.CloseIdleConnections()
	defer binC.HTTP.CloseIdleConnections()

	note := func(e error) {
		if err == nil {
			err = e
		}
	}
	for _, t := range []struct {
		metric string
		send   func([]float64) (*serve.RoutingResponse, error)
	}{
		{"serve.json_rtt_us", func(d []float64) (*serve.RoutingResponse, error) { return jsonC.PostSnapshot(topo, d) }},
		{"serve.binhttp_rtt_us", func(d []float64) (*serve.RoutingResponse, error) { return binC.PostSnapshot(topo, d) }},
		{"serve.wire_rtt_us", bin.PostSnapshot},
	} {
		i := 0
		d := p.calls(t.metric, 150, func() {
			resp, e := rig.postVia(t.send)
			note(e)
			if e == nil && i%verifyEvery == 0 {
				rig.pending = append(rig.pending, pendingCheck{rig.next - 1, resp})
			}
			i++
		})
		p.set(t.metric, us(d))
	}
	p.set("serve.routing_get_us", us(p.calls("serve.Client.Routing", 300, func() {
		rig.ops.attempted.Add(1)
		_, e := binC.Routing(topo)
		note(e)
	})))
	clear := false
	p.set("serve.failures_report_us", us(p.calls("serve.Client.ReportFailures", 20, func() {
		links := rig.ref.failLinks
		if clear {
			links = nil
		}
		clear = !clear
		rig.ops.attempted.Add(1)
		_, e := jsonC.ReportFailures(topo, links)
		note(e)
	})))
	var rollbacks []float64
	p.set("serve.registry_upload_ms", ms(p.calls("serve.Client.UploadCheckpoint", 3, func() {
		rig.ops.attempted.Add(2)
		_, e := jsonC.UploadCheckpoint(topo, rig.ref.doteJSON)
		note(e)
		t0 := time.Now()
		_, e = jsonC.Rollback(topo)
		rollbacks = append(rollbacks, us(time.Since(t0)))
		note(e)
	})))
	p.set("serve.rollback_us", median(rollbacks))
	if err != nil {
		return fmt.Errorf("socket probes: %w", err)
	}
	rig.verifyPending()

	// From here on the daemon's window no longer follows the feed: the
	// stream drivers pick their own snapshots. Nothing after is verified
	// against inference.
	const streamed = 1500
	rig.ops.attempted.Add(2*streamed + 1)
	sp := tr.start("serve.LoadGen", p.layer, 0)
	load, err := serve.LoadGen(api, topo, rig.ref.env.PS, rig.ref.env.Trace, serve.LoadOptions{Requests: streamed})
	tr.end(sp)
	if err != nil {
		return fmt.Errorf("pipelined stream: %w", err)
	}
	p.set("serve.wire_pipelined_dps", load.DecisionsPerSec)
	res.note("pipelined stream: %d requests, %.0f decisions/s against %.0f/s for one synchronous request in flight (serve.wire_rtt_us); deltas=%d fulls=%d",
		streamed, load.DecisionsPerSec, 1e6/res.Metrics["serve.wire_rtt_us"].Value, load.Bin.Deltas, load.Bin.Fulls)

	before, err := scrape(rig.d.ops)
	if err != nil {
		return err
	}
	sp = tr.start("serve.LoadGen.async", p.layer, 0)
	async, err := serve.LoadGen(api, topo, rig.ref.env.PS, rig.ref.env.Trace, serve.LoadOptions{Requests: streamed, Async: true})
	tr.end(sp)
	if err != nil {
		return fmt.Errorf("async stream: %w", err)
	}
	// Acks answer the enqueue, not the ingest: one synchronous request
	// queues behind everything streamed, so the scrape after it sees all.
	if _, err := bin.PostSnapshot(rig.ref.demand(0)); err != nil {
		return fmt.Errorf("flush after the async stream: %w", err)
	}
	after, err := scrape(rig.d.ops)
	if err != nil {
		return err
	}
	p.set("serve.async_ingest_per_s", async.RequestsPerSec)
	ingested := after.delta(before, promKey("figret_serve_snapshots_total", "topology", topo))
	coalesced := after.delta(before, promKey("figret_serve_snapshots_coalesced_total", "topology", topo))
	if ingested != streamed+1 {
		rig.ops.fail(fmt.Errorf("async stream sent %d snapshots and one flush, the daemon counted %.0f", streamed, ingested))
	}
	p.set("serve.coalesced_ratio", coalesced/ingested)

	drain, err := rig.d.stop()
	if err != nil {
		rig.ops.fail(err)
	}
	p.set("serve.drain_s", drain.Seconds())
	return nil
}
