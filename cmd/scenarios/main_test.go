package main

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"

	"figret/internal/scenario"
)

func testMetrics(name string) *scenario.Metrics {
	m := &scenario.Metrics{
		Scenario: name, Mode: scenario.ModeOffline, From: 48, To: 64,
		Schemes: []scenario.SchemeMetrics{
			{Scheme: "figret", AvgMLU: 1.2, P50MLU: 1.18, P95MLU: 1.4, MaxMLU: 1.55},
			{Scheme: "deste", AvgMLU: 1.3, P50MLU: 1.29, P95MLU: 1.45, MaxMLU: 1.6},
		},
	}
	m.Seal()
	return m
}

// TestDiff drives `scenarios diff` over hand-built metrics: identical
// goldens end on the all-clean line the benchmark's scenario-suite
// workload requires, and a one-ulp move, an orphaned golden and a
// missing golden each fail and say why, in text and in -json.
func TestDiff(t *testing.T) {
	dir := t.TempDir()
	st, err := scenario.NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Save(testMetrics("a")); err != nil {
		t.Fatal(err)
	}
	run := func(metrics []*scenario.Metrics, asJSON bool) (string, error) {
		var out bytes.Buffer
		err := diff(&out, metrics, dir, asJSON)
		return out.String(), err
	}

	out, err := run([]*scenario.Metrics{testMetrics("a")}, false)
	if err != nil || out != "1/1 scenario(s) clean\n" {
		t.Fatalf("identical golden: %v\n%s", err, out)
	}

	moved := testMetrics("a")
	moved.Schemes[1].P95MLU = math.Nextafter(1.45, 2)
	moved.Seal()
	out, err = run([]*scenario.Metrics{moved}, false)
	if err == nil || !strings.Contains(out, "MOVED a: deste p95MLU 1.45 -> 1.4500000000000002 (") ||
		!strings.HasSuffix(out, "0/1 scenario(s) clean\n") {
		t.Fatalf("one-ulp move: %v\n%s", err, out)
	}

	out, err = run([]*scenario.Metrics{moved}, true)
	var reports []diffReport
	if jerr := json.Unmarshal([]byte(out), &reports); jerr != nil || err == nil || len(reports) != 1 ||
		reports[0].OK || len(reports[0].Moves) != 1 || !strings.HasPrefix(reports[0].Moves[0], "deste p95MLU ") {
		t.Fatalf("-json one-ulp move: %v, %v\n%s", err, jerr, out)
	}

	// "a" is blessed but not in the run; "b" runs without a golden.
	out, err = run([]*scenario.Metrics{testMetrics("b")}, false)
	if err == nil || !strings.Contains(out, "FAILED a: golden a has no spec") ||
		!strings.Contains(out, "FAILED b: no golden for b") || !strings.HasSuffix(out, "0/2 scenario(s) clean\n") {
		t.Fatalf("orphaned and missing goldens: %v\n%s", err, out)
	}
}
