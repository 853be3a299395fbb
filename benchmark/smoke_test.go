package main

import (
	"sort"
	"testing"
	"time"
)

// The smoke test drives the real served binary: one set-up of
// serve-pod-wire, one 0.5 s closed-loop segment, every decision of it
// verified bitwise against offline inference, a one-second measured phase
// behind its warm-up, and a clean drain. It is fast enough to run under
// -short too.
func TestSmokeServePodWire(t *testing.T) {
	h, err := newHarness()
	if err != nil {
		t.Fatal(err)
	}
	defer h.close()
	served, _, err := h.build("served")
	if err != nil {
		t.Fatal(err)
	}
	ops := &opCounts{}
	rig, setup, err := setUpServe(h, served, findWorkload(wlServePod), 3, ops)
	if err != nil {
		t.Fatal(err)
	}
	defer rig.close()
	tr := newTracer()
	rig.tr = tr
	rtts, wall, _, err := rig.segment(500*time.Millisecond, true)
	if err != nil {
		t.Fatal(err)
	}
	rig.verifyPending()
	if ops.failed.Load() != 0 {
		t.Fatalf("%d of %d operations failed, first: %v", ops.failed.Load(), ops.attempted.Load(), ops.firstErr)
	}
	if len(rtts) < 100 || rig.verified < 100 {
		t.Errorf("%d round trips, %d verified in %v: too few to mean anything", len(rtts), rig.verified, wall)
	}
	if spans := tr.snapshot(); len(spans) != len(rtts) {
		t.Errorf("%d spans for %d round trips", len(spans), len(rtts))
	}
	// The measured phase: it starts only once the daemon has collected its
	// heap, and its gated latency is taken over every round trip pooled.
	rig.tr = nil
	ph, err := rig.measure(1, serveSegments, &noiseGuard{maxRetries: maxSegmentRetry}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ph.warmGCs < 1 && ph.warm < warmMax {
		t.Errorf("warm-up ended after %v with %v collections: neither a collection nor the cap", ph.warm, ph.warmGCs)
	}
	var inSegs int
	for _, s := range ph.segs {
		inSegs += s.N
	}
	if len(ph.segs) != serveSegments || inSegs != len(ph.rtts) || !sort.Float64sAreSorted(ph.rtts) || ph.after == nil || ph.rssMB < 1 {
		t.Errorf("%d segments holding %d round trips, %d pooled (sorted: %v)", len(ph.segs), inSegs, len(ph.rtts), sort.Float64sAreSorted(ph.rtts))
	}
	if p10, p50 := quantile(ph.rtts, fastQuantile), quantile(ph.rtts, 0.5); !(p10 > 0 && p10 <= p50) {
		t.Errorf("pooled p10 %v us, p50 %v us", p10, p50)
	}
	if ops.failed.Load() != 0 {
		t.Fatalf("measured phase: %d operations failed, first: %v", ops.failed.Load(), ops.firstErr)
	}
	cpu, err := procCPU(rig.d.pid())
	if err != nil || cpu <= 0 {
		t.Errorf("daemon CPU %v, err %v", cpu, err)
	}
	if rss, err := procPeakRSSMB(rig.d.pid()); err != nil || rss < 1 {
		t.Errorf("daemon peak RSS %v MB, err %v", rss, err)
	}
	page, err := scrape(rig.d.ops)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := page[promKey("figret_serve_snapshots_total", "topology", "pod-db")], float64(rig.next); got != want {
		t.Errorf("daemon counted %v snapshots, the benchmark sent %v", got, want)
	}
	// The check has teeth: a right decision held against the window one
	// snapshot earlier is a mismatch.
	resp, err := rig.post()
	if err != nil {
		t.Fatal(err)
	}
	rig.pending = append(rig.pending, pendingCheck{rig.next - 2, resp})
	rig.verifyPending()
	if ops.failed.Load() != 1 {
		t.Errorf("a decision checked against the wrong window: %d failures, want 1", ops.failed.Load())
	}
	if _, err := rig.d.stop(); err != nil {
		t.Errorf("drain: %v", err)
	}
	t.Logf("set-up %v, %d decisions in %v, all bitwise equal to offline inference", setup, len(rtts), wall)
}
