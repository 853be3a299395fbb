package figret

import (
	"math"
	"testing"

	"figret/internal/graph"
	"figret/internal/te"
)

// --- Drift detector (§6) -----------------------------------------------------

func driftSetup(t *testing.T) (*te.PathSet, *DriftDetector) {
	t.Helper()
	ps, err := te.NewPathSet(graph.Triangle(), 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	return ps, NewDriftDetector(ps)
}

func TestLowerBoundValidity(t *testing.T) {
	// The bound must never exceed the true optimum (checked against the
	// all-direct config, itself an upper bound on the optimum here).
	ps, det := driftSetup(t)
	d := make([]float64, ps.Pairs.Count())
	d[ps.Pairs.Index(0, 1)] = 3
	d[ps.Pairs.Index(1, 2)] = 1
	lb := det.LowerBound(d)
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
	ps, det := driftSetup(t)
	d := make([]float64, ps.Pairs.Count())
	for i := range d {
		d[i] = 1
	}
	// Observing before calibration errors.
	if _, err := det.Observe(1, d); err == nil {
		t.Error("uncalibrated Observe accepted")
	}
	// Calibrate at ratio ~= achieved/lb.
	lb := det.LowerBound(d)
	achieved := make([]float64, 10)
	demands := make([][]float64, 10)
	for i := range achieved {
		achieved[i] = 1.2 * lb
		demands[i] = d
	}
	if err := det.Calibrate(achieved, demands); err != nil {
		t.Fatal(err)
	}
	_, baseline, ok := det.Status()
	if !ok || math.Abs(baseline-1.2) > 1e-9 {
		t.Fatalf("baseline = %v, calibrated = %v", baseline, ok)
	}
	// Healthy operation: no retrain.
	for i := 0; i < 20; i++ {
		retrain, err := det.Observe(1.2*lb, d)
		if err != nil {
			t.Fatal(err)
		}
		if retrain {
			t.Fatal("healthy operation triggered retrain")
		}
	}
	// Sustained degradation: retrain within a bounded number of steps.
	fired := false
	for i := 0; i < 60; i++ {
		retrain, err := det.Observe(2.5*lb, d)
		if err != nil {
			t.Fatal(err)
		}
		if retrain {
			fired = true
			break
		}
	}
	if !fired {
		t.Error("sustained degradation never triggered retrain")
	}
}

func TestDriftDetectorSingleBurstTolerated(t *testing.T) {
	ps, det := driftSetup(t)
	d := make([]float64, ps.Pairs.Count())
	for i := range d {
		d[i] = 1
	}
	lb := det.LowerBound(d)
	achieved := []float64{1.1 * lb, 1.1 * lb, 1.1 * lb}
	demands := [][]float64{d, d, d}
	if err := det.Calibrate(achieved, demands); err != nil {
		t.Fatal(err)
	}
	// One huge spike followed by normal operation must not trigger.
	if retrain, _ := det.Observe(10*lb, d); retrain {
		t.Error("single spike triggered retrain immediately")
	}
	for i := 0; i < 30; i++ {
		if retrain, _ := det.Observe(1.1*lb, d); retrain {
			t.Error("retrain triggered during recovery")
		}
	}
}

func TestDriftDetectorCalibrateValidation(t *testing.T) {
	_, det := driftSetup(t)
	if err := det.Calibrate(nil, nil); err == nil {
		t.Error("empty calibration accepted")
	}
	if err := det.Calibrate([]float64{1}, [][]float64{}); err == nil {
		t.Error("mismatched calibration accepted")
	}
}
