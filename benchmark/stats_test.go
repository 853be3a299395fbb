package main

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

func TestQuantileAndMedian(t *testing.T) {
	s := []float64{1, 2, 3, 4, 5}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.5, 3}, {1, 5}, {0.25, 2}, {0.9, 4.6}} {
		if got := quantile(s, c.q); !near(got, c.want) {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := median([]float64{9, 1, 5, 3}); !near(got, 4) {
		t.Errorf("median of an even count = %v, want 4", got)
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of nothing must be NaN, not a number that looks measured")
	}
}

// The driver computes spreads with Python's statistics.quantiles(n=4);
// these are its answers.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{3, 1, 4, 1, 5, 9, 2, 6, 5, 3}, [3]float64{1.75, 3.5, 5.25}},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{10, 20}, [3]float64{7.5, 15, 22.5}},
		{[]float64{10, 20, 40}, [3]float64{10, 20, 40}},
	} {
		q1, q2, q3 := quartiles(c.xs)
		if !near(q1, c.want[0]) || !near(q2, c.want[1]) || !near(q3, c.want[2]) {
			t.Errorf("quartiles(%v) = %v %v %v, want %v", c.xs, q1, q2, q3, c.want)
		}
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); !near(got, 1) {
		t.Errorf("spread = %v, want (8.25-2.75)/5.5 = 1", got)
	}
}

// The tail percentile is the highest one, up to the percentile asked for,
// that still has at least ten samples beyond it.
func TestTailPercentile(t *testing.T) {
	ramp := func(n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = float64(i)
		}
		return s
	}
	if p, _ := tailPercentile(ramp(5000), 0.99); p != 0.99 {
		t.Errorf("5000 samples: percentile %v, want the 0.99 asked for (50 lie beyond)", p)
	}
	if p, v := tailPercentile(ramp(1000), 0.99); p != 0.99 || !near(v, 989.01) {
		t.Errorf("1000 samples: p%v = %v, want p0.99 = 989.01 (exactly ten beyond)", p, v)
	}
	p, v := tailPercentile(ramp(500), 0.99)
	if !near(p, 0.98) {
		t.Errorf("500 samples: percentile %v, want 0.98", p)
	}
	if beyond := 499 - int(v); beyond < 10 {
		t.Errorf("500 samples: only %d samples beyond p%v = %v", beyond, p, v)
	}
	if p, _ := tailPercentile(ramp(12), 0.99); p != 0.5 {
		t.Errorf("12 samples: percentile %v, want the median (nothing higher qualifies)", p)
	}
}

// A workload's value is the median over its segments, so one segment hit
// by a noisy neighbour changes nothing.
func TestMedianOfSegments(t *testing.T) {
	quiet := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	stalled := append(append([]float64(nil), quiet...), 900000) // one 0.9 s stall
	segs := []segmentStats{
		summarizeSegment(quiet, 1, 0.99),
		summarizeSegment(stalled, 1.9, 0.99),
		summarizeSegment(quiet, 1, 0.99),
	}
	if got := medianOf(segs, func(s segmentStats) float64 { return s.OpsPerSec }); !near(got, 10) {
		t.Errorf("median ops/s = %v, want 10 (the stalled segment's %v is outvoted)", got, segs[1].OpsPerSec)
	}
	if got := medianOf(segs, func(s segmentStats) float64 { return s.P50 }); !near(got, 100) {
		t.Errorf("median of segment medians = %v, want 100", got)
	}
	if segs[1].Mean < 80000 {
		t.Errorf("the stalled segment's mean %v should show the stall", segs[1].Mean)
	}
}
