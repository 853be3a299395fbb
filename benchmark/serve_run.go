package main

import (
	"fmt"
	"path/filepath"
	"sort"
	"time"
)

// servePhases is the measured phase of one run: one servePhase per daemon.
type servePhases []*servePhase

// allSegs returns every kept segment of the run, daemon after daemon.
func (ps servePhases) allSegs() (segs []segmentStats) {
	for _, ph := range ps {
		segs = append(segs, ph.segs...)
	}
	return segs
}

// pooled returns every round trip of the run, sorted.
func (ps servePhases) pooled() []float64 {
	var rtts []float64
	for _, ph := range ps {
		rtts = append(rtts, ph.rtts...)
	}
	sort.Float64s(rtts)
	return rtts
}

func runServe(h *harness, wl *workloadSpec, o runOpts, res *runResult, ops *opCounts) error {
	served, buildDur, err := h.build("served")
	if err != nil {
		return err
	}
	var tr *tracer
	if o.traced {
		tr = newTracer()
	}

	// One complete set-up after another, each measured for its share of
	// --seconds before the next one boots; the last daemon stays up for
	// the traced run's probes.
	perDaemon := max(2, (serveSegments+wl.Daemons/2)/wl.Daemons)
	guard := &noiseGuard{maxRetries: maxSegmentRetry}
	var (
		rig            *serveRig
		phases         servePhases
		setups, boots  []float64
		uploads, cycle int
	)
	defer func() {
		if rig != nil {
			rig.close()
		}
	}()
	for k := 0; k < wl.Daemons; k++ {
		if rig != nil {
			if _, err := rig.d.stop(); err != nil {
				ops.fail(err)
			}
			rig.close()
		}
		var d time.Duration
		if rig, d, err = setUpServe(h, served, wl, o.seed, ops); err != nil {
			return fmt.Errorf("set-up %d: %w", k+1, err)
		}
		setups = append(setups, d.Seconds())
		boots = append(boots, rig.d.bootToListen.Seconds())
		ph, err := rig.measure(o.seconds/float64(wl.Daemons), perDaemon, guard, tr)
		if err != nil {
			return err
		}
		phases = append(phases, ph)
		uploads, cycle = uploads+rig.b.uploads, cycle+rig.b.cycle
	}
	ph := phases[len(phases)-1] // the traced run's attached metrics are the last daemon's

	segs, rtts := phases.allSegs(), phases.pooled()
	fast := quantile(rtts, fastQuantile)
	opsPerS := medianOf(segs, func(s segmentStats) float64 { return s.OpsPerSec })
	tailus := medianOf(segs, func(s segmentStats) float64 { return s.Tail })
	tailPct := medianOf(segs, func(s segmentStats) float64 { return s.TailPct })
	var cpu time.Duration
	var servedN int64
	var verified int
	var rss float64
	var reads []float64
	for _, p := range phases {
		cpu, servedN, verified, rss = cpu+p.cpu, servedN+p.served, verified+p.verified, max(rss, p.rssMB)
		reads = append(reads, p.reads...)
	}
	cpuUs := float64(cpu) / float64(time.Microsecond) / float64(servedN)

	res.note("build served %.2fs (not in setup_s: an operator deploys a binary); boot to listen %.3fs; set-ups %.3v s",
		buildDur.Seconds(), median(boots), setups)
	res.note("%d daemon(s), on each a warm-up until it had collected its heap (%.1v s; %.0v collection(s)), then %d segments of %.2fs",
		len(phases), floats(phases, func(p *servePhase) float64 { return p.warm.Seconds() }),
		floats(phases, func(p *servePhase) float64 { return p.warmGCs }), perDaemon, segs[0].WallSecond)
	res.note("round trips pooled over the segments: p10 %.1f us, p25 %.1f us, p50 %.1f us, p90 %.1f us (%d samples; p10 per daemon %.1f us)",
		fast, quantile(rtts, 0.25), quantile(rtts, 0.5), quantile(rtts, 0.9), len(rtts),
		floats(phases, func(p *servePhase) float64 { return quantile(p.rtts, fastQuantile) }))
	res.note("decisions_per_s = %.1f 1/s (median of segments); decision_p50_us = %.1f us; decision_p%.4g_us = %.1f us (median of segments); cpu_us_per_decision = %.1f us",
		opsPerS, quantile(rtts, 0.5), tailPct*100, tailus, cpuUs)
	res.note("per segment: decisions %v; %d verified bitwise against offline inference",
		floats(segs, func(s segmentStats) float64 { return float64(s.N) }), verified)
	if rig.binB != nil {
		res.note("routing_reads_per_s = %.1f 1/s (connection B, median of segments); B uploaded %d checkpoint(s), ran %d cycle(s)",
			median(reads), uploads, cycle)
	}
	res.note("peak_rss_mb = %.1f MB (largest VmHWM of the daemons)", rss)
	res.note("noise canary: best %.2f ms, worst kept/best = %.3f; segments retried %d, kept though flagged %d",
		ms(guard.best), guard.ratio(), guard.retried, guard.flagged)

	if !o.traced {
		if _, err := rig.d.stop(); err != nil {
			ops.fail(err)
		}
		res.set("setup_s", median(setups))
		res.set("op_p10_ms", fast/1000)
		return nil
	}

	if err := attachedMetrics(res, rig, ph, guard); err != nil {
		return err
	}
	if err := pacedPhase(res, rig, tr); err != nil {
		return err
	}
	// The fixed probes want a geant daemon: the mixed workload has one,
	// the wire workloads boot one in place of their own.
	probe := rig
	if wl.Name != wlServeMixed {
		drain, err := rig.d.stop()
		if err != nil {
			ops.fail(err)
		}
		res.note("%s daemon drained in %.3fs", wl.Topo, drain.Seconds())
		if probe, err = bootProbeRig(h, served, o.seed, ops); err != nil {
			return err
		}
		defer probe.close()
	}
	return fixedProbes(h, res, tr, o, probe)
}

// fixedProbes is the part of a traced run that is the same for every
// workload: the socket probes on a geant daemon, the layer battery, and
// the span dump.
func fixedProbes(h *harness, res *runResult, tr *tracer, o runOpts, probe *serveRig) error {
	res.set("serve.boot_to_listen_s", probe.d.bootToListen.Seconds())
	if err := socketProbes(res, probe, tr); err != nil {
		return err
	}
	if err := layerBattery(h, res, tr, o.seed); err != nil {
		return err
	}
	path := filepath.Join(o.traceDir, res.Workload+".spans.jsonl")
	if err := tr.dump(path); err != nil {
		return err
	}
	res.note("%d spans written to %s", len(tr.snapshot()), path)
	return nil
}

// traceOverhead is ops/s of the traced segments over the untraced ones of
// the same phase.
func traceOverhead(ops []float64, traced []bool) float64 {
	var on, off []float64
	for i, v := range ops {
		if traced[i] {
			on = append(on, v)
		} else {
			off = append(off, v)
		}
	}
	return median(on) / median(off)
}
