package serve

import (
	"math"

	"figret/internal/te"
)

// retrainPolicy tunes the drift trigger and the retrain it launches. The
// controller reads exactly one value, defaultPolicy; the zero value of
// ControllerOptions.policy selects it, and only this package's tests set
// another.
type retrainPolicy struct {
	calibration int     // observations of a version that set its healthy level
	alpha       float64 // EWMA smoothing factor of the observed ratio
	threshold   float64 // multiplicative degradation that counts as drift
	patience    int     // consecutive over-threshold observations that fire
	epochs      int     // retrain epoch budget (fast turnaround over loss)
	shadow      int     // newest snapshots held out to shadow-evaluate on
	tolerance   float64 // accept when candidate ≤ (1+tolerance)·incumbent
}

var defaultPolicy = retrainPolicy{
	calibration: 8,
	alpha:       0.1,
	threshold:   1.25,
	patience:    5,
	epochs:      4,
	shadow:      8,
	tolerance:   0.05,
}

// driftDetector is the retraining trigger sketched in §6 ("When should
// FIGRET be retrained?"): instead of blind periodic retraining, it
// watches the ratio between the MLU the served model actually achieves
// and a cheap demand-derived lower bound on the achievable MLU. When that
// ratio stays above its calibrated healthy level by the policy's
// threshold, retraining is advised.
//
// The lower bound needs no solver: for any configuration,
//
//	MLU ≥ max_sd d_sd / Σ_{p∈P_sd} C_p     (a pair's traffic cannot use more
//	                                        than its paths' total capacity)
//	MLU ≥ Σ_sd d_sd·minHops_sd / Σ_e c_e   (volume × shortest hop count must
//	                                        fit into the network)
//
// Both bounds are valid for every feasible configuration, so the ratio is
// always ≥ 1 and drift-free operation keeps it near its healthy level.
// A detector serves one checkpoint version; the controller builds a fresh
// one whenever the serving version changes.
type driftDetector struct {
	pol        retrainPolicy
	pairCapSum []float64
	minHops    []float64
	capTotal   float64

	// Calibration window: the first pol.calibration observations.
	seen   int
	sum    float64 // usable ratios of the window, summed in arrival order
	usable int

	calibrated bool
	baseline   float64
	ewma       float64
	over       int // consecutive over-threshold observations
}

func newDriftDetector(ps *te.PathSet, pol retrainPolicy) *driftDetector {
	d := &driftDetector{
		pol:        pol,
		pairCapSum: make([]float64, ps.Pairs.Count()),
		minHops:    make([]float64, ps.Pairs.Count()),
	}
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

// lowerBound returns the demand-derived MLU lower bound.
func (d *driftDetector) lowerBound(demand []float64) float64 {
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

func (d *driftDetector) ratio(achieved float64, demand []float64) (float64, bool) {
	lb := d.lowerBound(demand)
	if lb <= 0 || achieved <= 0 {
		return 0, false
	}
	return achieved / lb, true
}

// observe feeds one served interval — the MLU the installed configuration
// achieved on the revealed demand — and reports whether retraining is
// advised. The first pol.calibration observations set the healthy level
// (the mean of their usable ratios) and never fire; a window with no
// usable ratio (all-zero demand throughout) is discarded and the next
// pol.calibration observations calibrate instead.
func (d *driftDetector) observe(achieved float64, demand []float64) bool {
	r, ok := d.ratio(achieved, demand)
	if !d.calibrated {
		if ok {
			d.sum += r
			d.usable++
		}
		if d.seen++; d.seen < d.pol.calibration {
			return false
		}
		if d.usable == 0 {
			d.seen = 0
			return false
		}
		d.baseline = d.sum / float64(d.usable)
		d.ewma = d.baseline
		d.calibrated = true
		return false
	}
	if !ok {
		return false
	}
	d.ewma = (1-d.pol.alpha)*d.ewma + d.pol.alpha*r
	// Only sustained degradation fires: the instantaneous ratio must
	// exceed the threshold patience times in a row AND the smoothed ratio
	// must agree. An isolated burst inflates the EWMA briefly but resets
	// the consecutive counter immediately.
	if r > d.baseline*d.pol.threshold {
		d.over++
	} else {
		d.over = 0
	}
	return d.over >= d.pol.patience && d.ewma > d.baseline*d.pol.threshold
}
