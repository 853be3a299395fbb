package serve

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"figret/internal/experiments"
	"figret/internal/figret"
	"figret/internal/graph"
	"figret/internal/te"
	"figret/internal/traffic"
)

// hairTrigger fires on every observation past a short calibration and
// accepts any candidate, so a retrain launches deterministically early.
var hairTrigger = retrainPolicy{
	calibration: 4,
	alpha:       0.5,
	threshold:   1e-9,
	patience:    2,
	epochs:      2,
	shadow:      4,
	tolerance:   1e9,
}

func driftSetup(t *testing.T, calibration int) (*te.PathSet, *driftDetector) {
	t.Helper()
	ps, err := te.NewPathSet(graph.Triangle(), 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	pol := defaultPolicy
	pol.calibration = calibration
	return ps, newDriftDetector(ps, pol)
}

func TestLowerBoundValidity(t *testing.T) {
	// The bound must never exceed the true optimum (checked against the
	// all-direct config, itself an upper bound on the optimum here).
	ps, det := driftSetup(t, 1)
	d := make([]float64, ps.Pairs.Count())
	d[ps.Pairs.Index(0, 1)] = 3
	d[ps.Pairs.Index(1, 2)] = 1
	lb := det.lowerBound(d)
	direct := te.NewConfig(ps).MLU(d)
	if lb > direct+1e-9 {
		t.Errorf("lower bound %v exceeds achievable MLU %v", lb, direct)
	}
	if lb <= 0 {
		t.Errorf("lower bound %v not positive", lb)
	}
	// Pair-capacity bound: pair (0,1) has two paths of capacity 2 -> total 4;
	// demand 3 forces MLU >= 0.75.
	if lb < 0.75-1e-9 {
		t.Errorf("lower bound %v below pair-capacity bound 0.75", lb)
	}
}

func TestDriftDetectorLifecycle(t *testing.T) {
	ps, det := driftSetup(t, 10)
	d := make([]float64, ps.Pairs.Count())
	for i := range d {
		d[i] = 1
	}
	// Calibrate at ratio ~= achieved/lb; calibrating observations never
	// fire, however degraded they look.
	lb := det.lowerBound(d)
	for i := 0; i < 10; i++ {
		if det.observe(1.2*lb, d) {
			t.Fatalf("calibration observation %d fired", i)
		}
	}
	if !det.calibrated || math.Abs(det.baseline-1.2) > 1e-9 {
		t.Fatalf("baseline = %v, calibrated = %v", det.baseline, det.calibrated)
	}
	// Healthy operation: no retrain.
	for i := 0; i < 20; i++ {
		if det.observe(1.2*lb, d) {
			t.Fatal("healthy operation triggered retrain")
		}
	}
	// Sustained degradation: retrain within a bounded number of steps.
	fired := false
	for i := 0; i < 60 && !fired; i++ {
		fired = det.observe(2.5*lb, d)
	}
	if !fired {
		t.Error("sustained degradation never triggered retrain")
	}
}

func TestDriftDetectorSingleBurstTolerated(t *testing.T) {
	ps, det := driftSetup(t, 3)
	d := make([]float64, ps.Pairs.Count())
	for i := range d {
		d[i] = 1
	}
	lb := det.lowerBound(d)
	for i := 0; i < 3; i++ {
		det.observe(1.1*lb, d)
	}
	// One huge spike followed by normal operation must not trigger.
	if det.observe(10*lb, d) {
		t.Error("single spike triggered retrain immediately")
	}
	for i := 0; i < 30; i++ {
		if det.observe(1.1*lb, d) {
			t.Error("retrain triggered during recovery")
		}
	}
}

// TestDriftDetectorCalibrateValidation: a calibration window with no
// usable ratio (all-zero demand, or no achieved MLU) sets no baseline;
// the detector discards it and calibrates on the next full window.
func TestDriftDetectorCalibrateValidation(t *testing.T) {
	ps, det := driftSetup(t, 3)
	zero := make([]float64, ps.Pairs.Count())
	d := make([]float64, ps.Pairs.Count())
	for i := range d {
		d[i] = 1
	}
	lb := det.lowerBound(d)
	for i := 0; i < 3; i++ {
		det.observe(1, zero)
	}
	det.observe(0, d) // achieved 0: unusable too
	if det.calibrated || det.seen != 1 {
		t.Fatalf("degenerate window calibrated (calibrated %v, seen %d)", det.calibrated, det.seen)
	}
	det.observe(2*lb, d)
	det.observe(1, zero)
	if !det.calibrated || det.baseline != 2 {
		t.Fatalf("second window: baseline = %v, calibrated = %v; want 2 from its one usable ratio", det.baseline, det.calibrated)
	}
}

// parentDetector is the detector as figret.DriftDetector had it, with
// the controller's calibration buffering around it: the reference
// driftDetector must reproduce bit for bit.
type parentDetector struct {
	Threshold, Alpha    float64
	Patience, calWindow int

	pairCapSum []float64
	minHops    []float64
	capTotal   float64

	calMLU    []float64
	calDemand [][]float64

	calibrated bool
	baseline   float64
	ewma       float64
	over       int
}

func newParentDetector(ps *te.PathSet, pol retrainPolicy) *parentDetector {
	d := &parentDetector{Threshold: pol.threshold, Alpha: pol.alpha,
		Patience: pol.patience, calWindow: pol.calibration}
	d.pairCapSum = make([]float64, ps.Pairs.Count())
	d.minHops = make([]float64, ps.Pairs.Count())
	for pi, pp := range ps.PairPaths {
		min := math.Inf(1)
		for _, p := range pp {
			d.pairCapSum[pi] += ps.Cap[p]
			if h := float64(len(ps.Paths[p]) - 1); h < min {
				min = h
			}
		}
		d.minHops[pi] = min
	}
	for _, e := range ps.G.Edges() {
		d.capTotal += e.Capacity
	}
	return d
}

func (d *parentDetector) LowerBound(demand []float64) float64 {
	var volume float64
	best := 0.0
	for pi, v := range demand {
		if v <= 0 {
			continue
		}
		volume += v * d.minHops[pi]
		if d.pairCapSum[pi] > 0 {
			if b := v / d.pairCapSum[pi]; b > best {
				best = b
			}
		}
	}
	if d.capTotal > 0 {
		if b := volume / d.capTotal; b > best {
			best = b
		}
	}
	return best
}

func (d *parentDetector) Calibrate(achieved []float64, demands [][]float64) error {
	if len(achieved) != len(demands) || len(achieved) == 0 {
		return fmt.Errorf("figret: calibration needs matching non-empty series")
	}
	var sum float64
	var n int
	for i, m := range achieved {
		if r, ok := d.ratio(m, demands[i]); ok {
			sum += r
			n++
		}
	}
	if n == 0 {
		return fmt.Errorf("figret: no usable calibration samples")
	}
	d.baseline = sum / float64(n)
	d.ewma = d.baseline
	d.calibrated = true
	d.over = 0
	return nil
}

func (d *parentDetector) ratio(achieved float64, demand []float64) (float64, bool) {
	lb := d.LowerBound(demand)
	if lb <= 0 || achieved <= 0 {
		return 0, false
	}
	return achieved / lb, true
}

func (d *parentDetector) Observe(achievedMLU float64, demand []float64) (retrain bool, err error) {
	if !d.calibrated {
		return false, fmt.Errorf("figret: detector not calibrated")
	}
	r, ok := d.ratio(achievedMLU, demand)
	if !ok {
		return false, nil
	}
	d.ewma = (1-d.Alpha)*d.ewma + d.Alpha*r
	if r > d.baseline*d.Threshold {
		d.over++
	} else {
		d.over = 0
	}
	return d.over >= d.Patience && d.ewma > d.baseline*d.Threshold, nil
}

// observe is the parent controller's observeDrift around the detector.
func (d *parentDetector) observe(achieved float64, demand []float64) bool {
	if !d.calibrated {
		d.calMLU = append(d.calMLU, achieved)
		d.calDemand = append(d.calDemand, demand)
		if len(d.calMLU) >= d.calWindow {
			if err := d.Calibrate(d.calMLU, d.calDemand); err != nil {
				d.calMLU = d.calMLU[:0]
				d.calDemand = d.calDemand[:0]
			}
		}
		return false
	}
	retrain, err := d.Observe(achieved, demand)
	return err == nil && retrain
}

// TestDriftDetectorMatchesParent feeds the detector and the parent's
// Calibrate + Observe (with the controller's buffering) the same seeded
// sequences — zero-demand observations, a degenerate first window,
// drifted stretches — and requires the same baseline bits and the same
// firing indices, at the default policy and at the hair trigger.
func TestDriftDetectorMatchesParent(t *testing.T) {
	ps, err := te.NewPathSet(graph.PoDDB(), 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, pol := range []retrainPolicy{defaultPolicy, hairTrigger} {
		for seed := int64(1); seed <= 20; seed++ {
			rng := rand.New(rand.NewSource(seed))
			got := newDriftDetector(ps, pol)
			ref := newParentDetector(ps, pol)
			// Seeds 1–5 open with a whole degenerate window.
			degenerate := 0
			if seed <= 5 {
				degenerate = pol.calibration
			}
			fires := 0
			for i := 0; i < 400; i++ {
				demand := make([]float64, ps.Pairs.Count())
				if i >= degenerate && rng.Float64() >= 0.1 {
					for j := range demand {
						if rng.Float64() < 0.8 {
							demand[j] = rng.ExpFloat64()
						}
					}
				}
				level := 1 + 0.3*rng.Float64()
				if (i/40)%3 == 2 { // drifted stretch
					level *= 1.5 + rng.Float64()
				}
				achieved := level * ref.LowerBound(demand)
				if rng.Float64() < 0.05 {
					achieved = 0
				}
				g, r := got.observe(achieved, demand), ref.observe(achieved, demand)
				if g != r {
					t.Fatalf("policy %+v seed %d obs %d: fired %v, parent %v", pol, seed, i, g, r)
				}
				if got.calibrated != ref.calibrated ||
					math.Float64bits(got.baseline) != math.Float64bits(ref.baseline) ||
					math.Float64bits(got.ewma) != math.Float64bits(ref.ewma) {
					t.Fatalf("policy %+v seed %d obs %d: calibrated %v baseline %v ewma %v, parent %v %v %v",
						pol, seed, i, got.calibrated, got.baseline, got.ewma, ref.calibrated, ref.baseline, ref.ewma)
				}
				if g {
					fires++
				}
			}
			if fires == 0 {
				t.Errorf("policy %+v seed %d: never fired; the drifted stretches test nothing", pol, seed)
			}
		}
	}
}

// TestDriftDetectorEndToEnd exercises the §6 retraining trigger across the
// whole stack: train FIGRET, calibrate the detector on healthy test
// intervals, verify silence under normal operation, then inject adversarial
// drift (variance-rank-reversed perturbation, the Table 5 stressor) and
// verify the trigger fires.
func TestDriftDetectorEndToEnd(t *testing.T) {
	env, err := experiments.NewEnv(graph.TopoPoDDB, experiments.ScaleFast, experiments.EnvOptions{T: 140, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	const h = 6
	m := figret.New(env.PS, figret.Config{H: h, Gamma: 1, Epochs: 6, Seed: 2})
	if _, err := m.Train(env.Train); err != nil {
		t.Fatal(err)
	}
	// Calibrate on the first healthy stretch of the test split.
	pol := defaultPolicy
	pol.calibration = 15
	det := newDriftDetector(env.PS, pol)

	achieve := func(tr *traffic.Trace, snap int) float64 {
		cfg, err := m.PredictAt(tr, snap)
		if err != nil {
			t.Fatal(err)
		}
		return cfg.MLU(tr.At(snap))
	}

	// Calibration, then healthy operation, stays silent.
	for snap := h; snap < env.Test.Len(); snap++ {
		if det.observe(achieve(env.Test, snap), env.Test.At(snap)) {
			t.Fatalf("trigger fired on healthy traffic at snapshot %d", snap)
		}
	}
	if !det.calibrated {
		t.Fatal("detector never calibrated on the test split")
	}

	// Inject heavy adversarial drift; the model's efficiency collapses and
	// the detector must eventually advise retraining.
	drifted := traffic.WorstCasePerturb(env.Test, env.Train, 6.0, 99)
	fired := false
	for snap := h; snap < drifted.Len() && !fired; snap++ {
		fired = det.observe(achieve(drifted, snap), drifted.At(snap))
	}
	if !fired {
		t.Error("detector never advised retraining under heavy drift")
	}
}
