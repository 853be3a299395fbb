package main

import (
	"fmt"
	"math"
)

// compareRow is one (metric, workload) row of a comparison of two sets of
// runs, A the parent and B the change.
type compareRow struct {
	Workload, Metric, Unit string
	NA, NB                 int
	A, B                   [3]float64 // Q1, median, Q3
	WinShare               float64    // share of pairs in which B reads better; ties count for neither
	Change                 float64    // (median B - median A) / median A
	Verdict                string
}

// better reports whether b reads better than a for the metric.
func better(m metricSpec, b, a float64) bool {
	if m.Better == "higher" {
		return b > a
	}
	return b < a
}

// verdict applies the guide's rule. improved: B wins at least nine tenths
// of the pairs and the medians differ by more than the distance between
// A's own quartiles. unresolved: a spread is wider than the bound and the
// two sides' runs interleave. regressed: B's median is worse than A's by
// more than the bound. Otherwise unchanged.
func verdict(m metricSpec, a, b []float64) compareRow {
	row := compareRow{Metric: m.Name, Unit: m.Unit, NA: len(a), NB: len(b)}
	row.A[0], row.A[1], row.A[2] = quartiles(a)
	row.B[0], row.B[1], row.B[2] = quartiles(b)
	row.Change = (row.B[1] - row.A[1]) / row.A[1]
	pairs, wins := min(len(a), len(b)), 0
	for i := 0; i < pairs; i++ {
		if better(m, b[i], a[i]) {
			wins++
		}
	}
	if pairs > 0 {
		row.WinShare = float64(wins) / float64(pairs)
	}
	if m.Bound == 0 {
		row.Verdict = "-" // per-layer: no bound, no verdict
		return row
	}
	worse := row.Change
	if m.Better == "higher" {
		worse = -worse
	}
	allBetter, allWorse := true, true
	for _, x := range b {
		for _, y := range a {
			if !better(m, x, y) {
				allBetter = false
			}
			if !better(m, y, x) {
				allWorse = false
			}
		}
	}
	wide := spread(a) > m.Bound || spread(b) > m.Bound
	switch {
	case row.WinShare >= 0.9 && worse < 0 && math.Abs(row.B[1]-row.A[1]) > row.A[2]-row.A[0]:
		row.Verdict = "improved"
	case wide && !allBetter && !allWorse:
		row.Verdict = "unresolved"
	case worse > m.Bound:
		row.Verdict = "regressed"
	default:
		row.Verdict = "unchanged"
	}
	return row
}

// compareSets builds one row per metric and workload present on both sides.
func compareSets(a, b []*runResult) []compareRow {
	if len(a) == 0 {
		return nil
	}
	spec := a[0].spec()
	collect := func(rs []*runResult, wl, metric string) []float64 {
		var vs []float64
		for _, r := range rs {
			if v, ok := r.Metrics[metric]; ok && r.Workload == wl {
				vs = append(vs, v.Value)
			}
		}
		return vs
	}
	var rows []compareRow
	for _, wl := range workloads {
		for _, m := range spec {
			va, vb := collect(a, wl.Name, m.Name), collect(b, wl.Name, m.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			row := verdict(m, va, vb)
			row.Workload = wl.Name
			rows = append(rows, row)
		}
	}
	return rows
}

// reportCompare prints the rows and fails on any regressed one.
func reportCompare(rows []compareRow) error {
	if len(rows) == 0 {
		return fmt.Errorf("no metric and workload appears on both sides")
	}
	fmt.Printf("%-20s %-30s %-5s %3s %36s %36s %8s %5s  %s\n",
		"workload", "metric", "unit", "n", "A: Q1 / median / Q3", "B: Q1 / median / Q3", "change", "wins", "verdict")
	for _, r := range rows {
		fmt.Printf("%-20s %-30s %-5s %3d %11.5g /%11.5g /%11.5g %11.5g /%11.5g /%11.5g %+7.2f%% %5.2f  %s\n",
			r.Workload, r.Metric, r.Unit, min(r.NA, r.NB), r.A[0], r.A[1], r.A[2], r.B[0], r.B[1], r.B[2],
			r.Change*100, r.WinShare, r.Verdict)
	}
	for _, r := range rows {
		if r.Verdict == "regressed" {
			return fmt.Errorf("%s@%s regressed", r.Metric, r.Workload)
		}
	}
	return nil
}

// cmdCompare compares two result files written by `run -out`.
func cmdCompare(args []string) error {
	if len(args) != 2 {
		return fmt.Errorf("usage: benchmark compare A.json B.json")
	}
	a, err := readResults(args[0])
	if err != nil {
		return err
	}
	b, err := readResults(args[1])
	if err != nil {
		return err
	}
	return reportCompare(compareSets(a, b))
}
