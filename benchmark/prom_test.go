package main

import (
	"os"
	"strings"
	"testing"
)

func loadPage(t *testing.T, name string) promPage {
	t.Helper()
	f, err := os.Open("testdata/" + name)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	page, err := parseProm(f)
	if err != nil {
		t.Fatal(err)
	}
	return page
}

// The fixtures are a real /metrics page of served and the same page with
// 1000 wire decisions' worth of counts added.
func TestPromDeltaOfSumAndCount(t *testing.T) {
	before, after := loadPage(t, "metrics_before.txt"), loadPage(t, "metrics_after.txt")
	if got := before[promKey("figret_serve_snapshots_total", "topology", "pod-db")]; got != 15 {
		t.Errorf("snapshots_total = %v, want 15", got)
	}
	// Labels in either order name the same series.
	a := promKey("figret_serve_stage_duration_seconds_sum", "stage", "predict", "topology", "pod-db")
	b := promKey("figret_serve_stage_duration_seconds_sum", "topology", "pod-db", "stage", "predict")
	if a != b {
		t.Errorf("label order changes the key: %q vs %q", a, b)
	}
	mean, n := after.meanDelta(before, "figret_serve_stage_duration_seconds", "stage", "predict", "topology", "pod-db")
	if n != 1000 || !near(mean, 50e-6) {
		t.Errorf("predict stage over the interval: mean %v n %v, want 50us over 1000", mean, n)
	}
	mean, n = after.meanDelta(before, "figret_serve_transport_duration_seconds", "transport", "wire")
	if n != 1000 || !near(mean, 90e-6) {
		t.Errorf("wire transport over the interval: mean %v n %v, want 90us over 1000", mean, n)
	}
	if mean, n := after.meanDelta(before, "figret_serve_transport_duration_seconds", "transport", "json"); mean != 0 || n != 0 {
		t.Errorf("a family that did not move: mean %v n %v, want 0 0", mean, n)
	}
	if d := after.delta(before, promKey("figret_serve_decisions_total", "topology", "pod-db")); d != 1000 {
		t.Errorf("decisions delta = %v, want 1000", d)
	}
	for k := range before {
		if strings.Contains(k, "_bucket") {
			t.Fatalf("bucket series %q was kept", k)
		}
	}
}

func TestPromParserEdges(t *testing.T) {
	page, err := parseProm(strings.NewReader(`# HELP x help text
# TYPE x counter
x{path="a,b\"c",topology="t"} 3
y 1.5e-05
z_bucket{le="+Inf"} 9
`))
	if err != nil {
		t.Fatal(err)
	}
	if got := page[promKey("x", "path", `a,b"c`, "topology", "t")]; got != 3 {
		t.Errorf(`a label value with a comma and an escaped quote: got %v, want 3 (page %v)`, got, page)
	}
	if page["y"] != 1.5e-05 || len(page) != 2 {
		t.Errorf("page %v: want y=1.5e-05 and the bucket dropped", page)
	}
	for _, bad := range []string{"x{a=\"1\" 3\n", "x{a=1} 3\n", "x notanumber\n", "lonely\n"} {
		if _, err := parseProm(strings.NewReader(bad)); err == nil {
			t.Errorf("parseProm(%q) did not fail", bad)
		}
	}
}
