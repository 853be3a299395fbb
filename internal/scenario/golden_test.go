package scenario

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func sampleMetrics() *Metrics {
	m := &Metrics{
		Scenario: "sample",
		Mode:     ModeOffline,
		From:     48, To: 64,
		Schemes: []SchemeMetrics{
			{Scheme: "figret", AvgMLU: 1.20, P50MLU: 1.18, P95MLU: 1.40, MaxMLU: 1.55, SevereCongestion: 0.0},
			{Scheme: "deste", AvgMLU: 1.30, P50MLU: 1.29, P95MLU: 1.45, MaxMLU: 1.60, MeanLoss: 0.01, P95Delay: 12},
		},
	}
	m.Seal()
	return m
}

func TestGoldenRoundTrip(t *testing.T) {
	st, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	m := sampleMetrics()
	if err := st.Save(m); err != nil {
		t.Fatal(err)
	}
	got, err := st.Load("sample")
	if err != nil {
		t.Fatal(err)
	}
	if got.Checksum != m.Checksum || len(got.Schemes) != 2 || got.Schemes[1] != m.Schemes[1] {
		t.Fatalf("round trip mismatch: %+v vs %+v", got, m)
	}
	names, err := st.List()
	if err != nil || len(names) != 1 || names[0] != "sample" {
		t.Fatalf("List = %v, %v", names, err)
	}
	if _, err := st.Load("absent"); !os.IsNotExist(err) {
		t.Fatalf("missing golden: want os.ErrNotExist, got %v", err)
	}
}

// TestGoldenTamperDetected: a hand-edited golden (metric nudged without
// resealing) must read as corrupt — the gate cannot be weakened by
// editing numbers in place.
func TestGoldenTamperDetected(t *testing.T) {
	dir := t.TempDir()
	st, _ := NewStore(dir)
	if err := st.Save(sampleMetrics()); err != nil {
		t.Fatal(err)
	}
	p := filepath.Join(dir, "sample.json")
	data, _ := os.ReadFile(p)
	tampered := strings.Replace(string(data), "1.2", "1.1", 1)
	if tampered == string(data) {
		t.Fatal("tamper substitution found nothing to replace")
	}
	if err := os.WriteFile(p, []byte(tampered), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Load("sample"); err == nil || !strings.Contains(err.Error(), "checksum") {
		t.Fatalf("tampered golden not rejected: %v", err)
	}
}

// exactCheck returns a check of fresh against golden: Compare's OK()
// must hold exactly when the canonical payloads are byte-equal, an
// empty want must pass, and any other want must be the one move
// reported.
func exactCheck(t *testing.T, golden *Metrics) func(name string, fresh *Metrics, want string) {
	return func(name string, fresh *Metrics, want string) {
		t.Helper()
		fresh.Seal()
		d := Compare(golden, fresh, 0)
		if equal := bytes.Equal(golden.payload(), fresh.payload()); d.OK() != equal {
			t.Errorf("%s: OK() = %v, payloads byte-equal = %v (moves %q)", name, d.OK(), equal, d.Moves)
		}
		if want == "" {
			if !d.OK() {
				t.Errorf("%s: identical metrics failed the gate: %q", name, d.Moves)
			}
			return
		}
		if len(d.Moves) != 1 || !strings.HasPrefix(d.Moves[0], want) {
			t.Errorf("%s: moves %q, want one starting %q", name, d.Moves, want)
		}
	}
}

// TestCompareIsExact: the gate passes exactly when the canonical
// payloads are byte-equal, so identical metrics pass and +0 against −0
// fails it either way round.
func TestCompareIsExact(t *testing.T) {
	check := exactCheck(t, sampleMetrics())
	check("identical", sampleMetrics(), "")
	fresh := sampleMetrics()
	fresh.Schemes[0].SevereCongestion = math.Copysign(0, -1)
	check("+0 -> -0", fresh, "figret severeCongestion 0 -> -0")

	// -0 -> +0, with the golden holding the negative zero.
	golden := sampleMetrics()
	golden.Schemes[0].SevereCongestion = math.Copysign(0, -1)
	golden.Seal()
	exactCheck(t, golden)("-0 -> +0", sampleMetrics(), "figret severeCongestion -0 -> 0")
}

// TestCompareRegressionGate: there is no tolerance. A one-ulp move of
// any of the nine metrics of any scheme, a regression or an
// improvement, fails the gate, and the report names the scheme, the
// metric and old -> new.
func TestCompareRegressionGate(t *testing.T) {
	golden := sampleMetrics()
	check := exactCheck(t, golden)
	rt := reflect.TypeOf(SchemeMetrics{})
	floats := 0
	for f := 0; f < rt.NumField(); f++ {
		if rt.Field(f).Type.Kind() != reflect.Float64 {
			continue
		}
		floats++
		metric := rt.Field(f).Tag.Get("json")
		for s, sch := range golden.Schemes {
			for _, dir := range []float64{math.Inf(1), math.Inf(-1)} {
				fresh := sampleMetrics()
				v := reflect.ValueOf(&fresh.Schemes[s]).Elem().Field(f)
				old := v.Float()
				v.SetFloat(math.Nextafter(old, dir))
				check(fmt.Sprintf("%s %s one ulp toward %v", sch.Scheme, metric, dir), fresh,
					fmt.Sprintf("%s %s %v -> %v", sch.Scheme, metric, old, v.Float()))
			}
		}
	}
	if floats != 9 {
		t.Errorf("SchemeMetrics has %d metrics; the ulp sweep expects 9", floats)
	}
}

// TestCompareStructuralMismatches: a changed window or mode, and a
// scheme added, removed or reordered, each fail the gate with a report
// of what changed.
func TestCompareStructuralMismatches(t *testing.T) {
	check := exactCheck(t, sampleMetrics())
	for _, c := range []struct {
		name, want string
		edit       func(m *Metrics)
	}{
		{"from", "window [48,64) -> [47,64)", func(m *Metrics) { m.From-- }},
		{"to", "window [48,64) -> [48,65)", func(m *Metrics) { m.To++ }},
		{"mode", "mode offline -> fluid", func(m *Metrics) { m.Mode = ModeFluid }},
		{"scheme removed", "schemes [figret deste] -> [figret]", func(m *Metrics) { m.Schemes = m.Schemes[:1] }},
		{"scheme added", "schemes [figret deste] -> [figret deste new]", func(m *Metrics) {
			m.Schemes = append(m.Schemes, SchemeMetrics{Scheme: "new"})
		}},
		{"schemes reordered", "schemes [figret deste] -> [deste figret]", func(m *Metrics) {
			m.Schemes[0], m.Schemes[1] = m.Schemes[1], m.Schemes[0]
		}},
	} {
		fresh := sampleMetrics()
		c.edit(fresh)
		check(c.name, fresh, c.want)
	}
}
