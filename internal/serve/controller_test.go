package serve

import (
	"fmt"
	"math"
	"testing"

	"figret/internal/figret"
	"figret/internal/te"
	"figret/internal/traffic"
)

// startController is the common controller fixture: a registered PoD
// topology with a trained bootstrap checkpoint.
func startController(t *testing.T, opt ControllerOptions) (*Controller, *Registry, *controllerFixture) {
	t.Helper()
	ps, tr, m := fixture(t, 60, 1)
	reg := NewRegistry()
	if err := reg.AddTopology("pod", ps); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Install("pod", m, "bootstrap"); err != nil {
		t.Fatal(err)
	}
	c, err := NewController("pod", reg, opt)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c, reg, &controllerFixture{ps: ps, tr: tr, m: m}
}

type controllerFixture struct {
	ps *te.PathSet
	tr *traffic.Trace
	m  *figret.Model
}

// checkDecision returns why ratios are not a decision the daemon may
// serve over ps, or nil. Every ratio is finite and non-negative and each
// pair's sum to 1 (decisionConfig); a pair sums to 0 only when every one
// of its paths crosses a link in failed, and no such path carries mass.
// With want non-nil, the offline inference over the same window, every
// ratio equals want's bitwise.
func checkDecision(ps *te.PathSet, ratios []float64, failed [][2]int, want []float64) error {
	cfg, err := decisionConfig(ps, ratios)
	if err != nil {
		return err
	}
	fs := te.NewFailureSet(ps.G, failed)
	for pi, pp := range ps.PairPaths {
		live, sum := false, 0.0
		for _, p := range pp {
			if !fs.PathDown(ps, p) {
				live = true
			} else if cfg.R[p] != 0 {
				return fmt.Errorf("path %d crosses a failed link and carries %v", p, cfg.R[p])
			}
			sum += cfg.R[p]
		}
		if live && sum == 0 {
			return fmt.Errorf("pair %d has a live path and no mass", pi)
		}
	}
	if want == nil {
		return nil
	}
	if len(want) != len(ratios) {
		return fmt.Errorf("%d ratios, offline inference has %d", len(ratios), len(want))
	}
	for p := range want {
		if math.Float64bits(ratios[p]) != math.Float64bits(want[p]) {
			return fmt.Errorf("path %d: served %v, offline %v", p, ratios[p], want[p])
		}
	}
	return nil
}

func TestControllerWarmingThenBitwiseDecisions(t *testing.T) {
	c, _, fx := startController(t, ControllerOptions{})
	h := 4
	for i := 0; i < fx.tr.Len(); i++ {
		res, err := c.Ingest(fx.tr.At(i), true)
		if err != nil {
			t.Fatal(err)
		}
		if res.Snapshot != int64(i) {
			t.Fatalf("snapshot index %d, want %d", res.Snapshot, i)
		}
		if i < h-1 {
			if !res.Warming || res.Decision != nil {
				t.Fatalf("t=%d: expected warming, got %+v", i, res)
			}
			continue
		}
		if res.Decision == nil {
			t.Fatalf("t=%d: no decision after warmup", i)
		}
		// The decision after ingesting snapshot i must equal offline
		// inference on the window ending at i — bitwise.
		want, err := fx.m.Predict(fx.tr.Window(i+1, h))
		if err != nil {
			t.Fatal(err)
		}
		if err := checkDecision(fx.ps, res.Decision.Config.R, nil, want.R); err != nil {
			t.Fatalf("t=%d: %v", i, err)
		}
		if res.Decision.Version != 1 {
			t.Fatalf("t=%d: version %d", i, res.Decision.Version)
		}
		if pub := c.Decision(); pub.Seq != res.Decision.Seq {
			t.Fatalf("published seq %d, returned %d", pub.Seq, res.Decision.Seq)
		}
	}
}

func TestControllerHistoryCapBelowModelWindowErrors(t *testing.T) {
	// A history cap below the model's H can never leave warming; the
	// misconfiguration must surface as an ingest error, not an eternal
	// silent "warming" response.
	c, _, fx := startController(t, ControllerOptions{HistoryCap: 3}) // model H = 4
	for i := 0; i < 6; i++ {
		_, err := c.Ingest(fx.tr.At(i), true)
		if err == nil {
			t.Fatalf("t=%d: miscapped controller ingested without error", i)
		}
	}
}

func TestControllerSlidingWindowEviction(t *testing.T) {
	// A history cap of exactly H must still serve: eviction keeps the
	// newest H snapshots, and the decision matches offline inference on
	// them.
	c, _, fx := startController(t, ControllerOptions{HistoryCap: 4})
	var last *IngestResult
	var err error
	for i := 0; i < 12; i++ {
		last, err = c.Ingest(fx.tr.At(i), true)
		if err != nil {
			t.Fatal(err)
		}
	}
	want, err := fx.m.Predict(fx.tr.Window(12, 4))
	if err != nil {
		t.Fatal(err)
	}
	if err := checkDecision(fx.ps, last.Decision.Config.R, nil, want.R); err != nil {
		t.Fatal(err)
	}
}

func TestControllerFailureReroute(t *testing.T) {
	c, _, fx := startController(t, ControllerOptions{})
	for i := 0; i < 8; i++ {
		if _, err := c.Ingest(fx.tr.At(i), true); err != nil {
			t.Fatal(err)
		}
	}
	e := fx.ps.G.Edge(0)
	if err := c.ReportFailures([][2]int{{e.From, e.To}}); err != nil {
		t.Fatal(err)
	}
	dec := c.Decision()
	if !dec.Rerouted {
		t.Fatal("decision not marked rerouted")
	}
	if err := checkDecision(fx.ps, dec.Config.R, [][2]int{{e.From, e.To}}, nil); err != nil {
		t.Fatalf("rerouted decision: %v", err)
	}
	// New snapshots keep rerouting until the failure clears.
	res, err := c.Ingest(fx.tr.At(8), true)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Decision.Rerouted {
		t.Fatal("post-failure decision not rerouted")
	}
	if err := c.ReportFailures(nil); err != nil {
		t.Fatal(err)
	}
	res, err = c.Ingest(fx.tr.At(9), true)
	if err != nil {
		t.Fatal(err)
	}
	if res.Decision.Rerouted {
		t.Fatal("decision still rerouted after failures cleared")
	}
	want, err := fx.m.Predict(fx.tr.Window(10, 4))
	if err != nil {
		t.Fatal(err)
	}
	if err := checkDecision(fx.ps, res.Decision.Config.R, nil, want.R); err != nil {
		t.Fatalf("after failure clear: %v", err)
	}
}

func TestFailureClearWhileWarmingRestoresCleanBase(t *testing.T) {
	// Without a checkpoint the controller serves the uniform fallback;
	// failure handling must reroute from (and on clear return to) that
	// clean base rather than stacking reroutes on published decisions.
	ps, _, _ := fixture(t, 40, 1)
	reg := NewRegistry()
	if err := reg.AddTopology("pod", ps); err != nil {
		t.Fatal(err)
	}
	c, err := NewController("pod", reg, ControllerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)

	uniform := te.UniformConfig(ps)
	e := ps.G.Edge(0)
	if err := c.ReportFailures([][2]int{{e.From, e.To}}); err != nil {
		t.Fatal(err)
	}
	if dec := c.Decision(); !dec.Rerouted {
		t.Fatal("failure report on fallback not rerouted")
	}
	// Replace the failure set: the reroute must start from the clean
	// base, so paths over the healed first link carry mass again.
	e2 := ps.G.Edge(2)
	if err := c.ReportFailures([][2]int{{e2.From, e2.To}}); err != nil {
		t.Fatal(err)
	}
	fs1 := te.NewFailureSet(ps.G, [][2]int{{e.From, e.To}})
	fs2 := te.NewFailureSet(ps.G, [][2]int{{e2.From, e2.To}})
	dec := c.Decision()
	healedCarries := false
	for p := range dec.Config.R {
		if fs2.PathDown(ps, p) && dec.Config.R[p] != 0 {
			t.Fatalf("newly failed path %d carries %v", p, dec.Config.R[p])
		}
		if fs1.PathDown(ps, p) && !fs2.PathDown(ps, p) && dec.Config.R[p] > 0 {
			healedCarries = true
		}
	}
	if !healedCarries {
		t.Fatal("healed link still avoided: reroutes stacked instead of rebasing")
	}
	// Clearing restores the clean base exactly.
	if err := c.ReportFailures(nil); err != nil {
		t.Fatal(err)
	}
	dec = c.Decision()
	if dec.Rerouted {
		t.Fatal("cleared decision still marked rerouted")
	}
	for p := range dec.Config.R {
		if dec.Config.R[p] != uniform.R[p] {
			t.Fatalf("path %d: %v after clear, want uniform %v", p, dec.Config.R[p], uniform.R[p])
		}
	}
}

func TestControllerChurnLimit(t *testing.T) {
	const maxChurn = 0.05
	c, _, fx := startController(t, ControllerOptions{MaxChurn: maxChurn})
	var prev *te.Config
	for i := 0; i < 20; i++ {
		res, err := c.Ingest(fx.tr.At(i), true)
		if err != nil {
			t.Fatal(err)
		}
		if res.Decision == nil {
			continue
		}
		cfg := res.Decision.Config
		if err := checkDecision(fx.ps, cfg.R, nil, nil); err != nil {
			t.Fatalf("t=%d: churn-limited decision: %v", i, err)
		}
		if prev != nil {
			var churn float64
			for p := range cfg.R {
				churn += math.Abs(cfg.R[p] - prev.R[p])
			}
			if churn > maxChurn+1e-9 {
				t.Fatalf("t=%d: churn %v exceeds limit %v", i, churn, maxChurn)
			}
		}
		prev = cfg
	}
}

func TestChurnNeverBlendsOntoFailedPaths(t *testing.T) {
	// The reroute must run after the hysteresis blend: even under a tight
	// churn limit, the decision following a failure report carries zero
	// mass on every failed path — connectivity beats smoothness.
	c, _, fx := startController(t, ControllerOptions{MaxChurn: 0.01})
	for i := 0; i < 8; i++ {
		if _, err := c.Ingest(fx.tr.At(i), true); err != nil {
			t.Fatal(err)
		}
	}
	e := fx.ps.G.Edge(0)
	if err := c.ReportFailures([][2]int{{e.From, e.To}}); err != nil {
		t.Fatal(err)
	}
	for i := 8; i < 12; i++ {
		res, err := c.Ingest(fx.tr.At(i), true)
		if err != nil {
			t.Fatal(err)
		}
		if err := checkDecision(fx.ps, res.Decision.Config.R, [][2]int{{e.From, e.To}}, nil); err != nil {
			t.Fatalf("t=%d: churn blend: %v", i, err)
		}
	}
}

func TestLimitChurn(t *testing.T) {
	ps, _, m := fixture(t, 40, 5)
	a := te.UniformConfig(ps)
	b, err := m.Predict(make([]float64, 4*ps.Pairs.Count()))
	if err != nil {
		t.Fatal(err)
	}
	var full float64
	for p := range b.R {
		full += math.Abs(b.R[p] - a.R[p])
	}
	if full == 0 {
		t.Skip("degenerate fixture: model output equals uniform")
	}
	// Below the limit: returned unchanged.
	out, limited := LimitChurn(a, b, full+1)
	if limited || out != b {
		t.Fatal("under-limit transition was clamped")
	}
	// Above the limit: exactly half the mass moves, feasibility holds.
	out, limited = LimitChurn(a, b, full/2)
	if !limited {
		t.Fatal("over-limit transition not clamped")
	}
	var moved float64
	for p := range out.R {
		moved += math.Abs(out.R[p] - a.R[p])
	}
	if math.Abs(moved-full/2) > 1e-9 {
		t.Fatalf("moved %v, want %v", moved, full/2)
	}
	if err := checkDecision(ps, out.R, nil, nil); err != nil {
		t.Fatalf("blended config: %v", err)
	}
}

func TestControllerAsyncCoalescing(t *testing.T) {
	c, _, fx := startController(t, ControllerOptions{})
	// Queue a burst of async snapshots; all must enter the window even
	// when their decisions coalesce.
	for i := 0; i < 11; i++ {
		if _, err := c.Ingest(fx.tr.At(i), false); err != nil {
			t.Fatal(err)
		}
	}
	// A final sync ingest orders after the burst and proves the window
	// absorbed every snapshot: its decision matches offline inference on
	// the full 12-snapshot history.
	res, err := c.Ingest(fx.tr.At(11), true)
	if err != nil {
		t.Fatal(err)
	}
	want, err := fx.m.Predict(fx.tr.Window(12, 4))
	if err != nil {
		t.Fatal(err)
	}
	if err := checkDecision(fx.ps, res.Decision.Config.R, nil, want.R); err != nil {
		t.Fatalf("burst ingest corrupted the window: %v", err)
	}
	m := c.Metrics()
	if m.Snapshots != 12 {
		t.Fatalf("snapshots = %d, want 12", m.Snapshots)
	}
	// Batch boundaries depend on scheduling, so the coalesced count is
	// only bounded, not exact: warming snapshots and coalesced snapshots
	// produce no decision, and the final sync ingest always decides.
	if m.Decisions == 0 || m.Decisions+m.Coalesced > 12 {
		t.Fatalf("decisions %d / coalesced %d inconsistent with 12 snapshots", m.Decisions, m.Coalesced)
	}
}
