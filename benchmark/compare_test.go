package main

import "testing"

func TestVerdicts(t *testing.T) {
	lower := metricSpec{Name: "op_p10_ms", Unit: "ms", Better: "lower", Bound: 0.10}
	higher := metricSpec{Name: "serve.decisions_per_s", Unit: "1/s", Better: "higher", Bound: 0.10}
	base := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	shift := func(f float64) []float64 {
		out := make([]float64, len(base))
		for i, v := range base {
			out[i] = v * f
		}
		return out
	}
	noisy := []float64{100, 140, 70, 100, 135, 72, 100, 130, 75, 100}
	for _, c := range []struct {
		name string
		m    metricSpec
		a, b []float64
		want string
	}{
		{"same code", lower, base, shift(1.003), "unchanged"},
		{"worse by more than the bound", lower, base, shift(1.2), "regressed"},
		{"worse but within the bound", lower, base, shift(1.05), "unchanged"},
		{"every pair won, beyond A's quartile distance", lower, base, shift(0.8), "improved"},
		{"higher is better: a drop is a regression", higher, base, shift(0.8), "regressed"},
		{"higher is better: a rise is an improvement", higher, base, shift(1.3), "improved"},
		{"spread wider than the bound, runs interleave", lower, noisy, shift(1.2), "unresolved"},
		{"wide spread, every run of B beats every run of A, medians apart by less than A's quartile distance", lower, noisy, shift(0.5), "unchanged"},
		{"wide spread, every run of B beats every run of A by more than that", lower, noisy, shift(0.3), "improved"},
		{"per-layer metrics carry no verdict", metricSpec{Name: "x", Better: "lower"}, base, shift(2), "-"},
	} {
		if got := verdict(c.m, c.a, c.b).Verdict; got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}

func TestCompareSetsRowsPerWorkloadAndMetric(t *testing.T) {
	mk := func(wl string, v float64) *runResult {
		return &runResult{Workload: wl, Metrics: map[string]metricValue{"setup_s": {v, "s"}, "op_p10_ms": {1000 * v, "ms"}}}
	}
	a := []*runResult{mk(wlTrain, 1), mk(wlTrain, 1.1), mk(wlSuite, 2)}
	b := []*runResult{mk(wlTrain, 1), mk(wlTrain, 1.1), mk(wlServePod, 3)}
	rows := compareSets(a, b)
	if len(rows) != 2 || rows[0].Workload != wlTrain || rows[1].Workload != wlTrain {
		t.Fatalf("rows %+v: want the two metrics of the one workload both sides ran", rows)
	}
	if rows[0].Verdict != "unchanged" || rows[0].NA != 2 {
		t.Errorf("row %+v: want unchanged over 2 runs", rows[0])
	}
}
