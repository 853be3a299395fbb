package scenario

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"figret/internal/eval"
)

func podSpec(name string) *Spec {
	return &Spec{
		Name:    name,
		Topo:    "pod-db",
		Mode:    ModeOffline,
		Schemes: []string{SchemeFIGRET, SchemeDesTE, SchemePredTE, SchemeUniform},
	}
}

func TestSpecValidate(t *testing.T) {
	bad := []*Spec{
		{},
		{Name: "x"},
		{Name: "has space", Topo: "geant", Mode: ModeOffline, Schemes: []string{SchemeUniform}},
		{Name: "x", Topo: "geant"},
		{Name: "x", Topo: "geant", Mode: "nope", Schemes: []string{SchemeUniform}},
		{Name: "x", Topo: "geant", Mode: ModeOffline},
		{Name: "x", Topo: "geant", Mode: ModeOffline, Schemes: []string{"wat"}},
		{Name: "x", Topo: "geant", Mode: ModeOffline, Schemes: []string{SchemeUniform, SchemeUniform}},
		{Name: "x", Topo: "geant", Mode: ModeClosedLoop, Schemes: []string{SchemeUniform}},
		{Name: "x", Topo: "geant", Mode: ModeClosedLoop, Schemes: []string{SchemeFIGRET, SchemeDOTE}},
		{Name: "x", Topo: "geant", Mode: ModeClosedLoop, Schemes: []string{SchemeFIGRET}, Failures: &FailureSpec{Count: 1}},
		{Name: "x", Topo: "geant", Mode: ModeOffline, Schemes: []string{SchemeUniform}, Failures: &FailureSpec{Count: 0}},
		{Name: "x", Topo: "geant", Mode: ModeOffline, Schemes: []string{SchemeUniform}, Perturb: &PerturbSpec{}},
		{Name: "x", Topo: "geant", Mode: ModeOffline, Schemes: []string{SchemeUniform}, Window: &WindowSpec{From: 4, To: 2}},
		{Name: "x", Topo: "geant", Mode: ModeOffline, Schemes: []string{SchemeUniform}, Delay: -1},
		{Name: "x", Topo: "geant", Scale: "medium", Mode: ModeOffline, Schemes: []string{SchemeUniform}},
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("spec %d unexpectedly valid: %+v", i, s)
		}
	}
	if err := podSpec("ok").Validate(); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}

	// Sizes a spec file can carry that would panic in nn.NewDense (h,
	// hidden), produce a +Inf metric JSON cannot encode (solverIters) or
	// silently run another configuration (epochs, batchSize): each is
	// rejected by field name, and the runner never starts on one.
	hostile := []struct{ field, body string }{
		{"train.h", `"train":{"h":-1}`},
		{"train.hidden", `"train":{"hidden":[0]}`},
		{"solverIters", `"solverIters":-3`},
		{"train.epochs", `"train":{"epochs":-1}`},
		{"train.batchSize", `"train":{"batchSize":-4}`},
	}
	for _, h := range hostile {
		data := []byte(`{"name":"x","topo":"pod-db","mode":"offline","schemes":["figret"],` + h.body + `}`)
		if _, err := ParseSpec(data); err == nil || !strings.Contains(err.Error(), h.field) {
			t.Errorf("ParseSpec(%s) = %v, want an error naming %s", h.body, err, h.field)
		}
		var sp Spec
		if err := json.Unmarshal(data, &sp); err != nil {
			t.Fatal(err)
		}
		if m, err := NewRunner(Options{}).RunOne(&sp); err == nil || m != nil {
			t.Errorf("RunOne(%s) = %v, %v, want an error and no metrics", h.body, m, err)
		}
	}
}

func TestParseSpecUnknownField(t *testing.T) {
	_, err := ParseSpec([]byte(`{"name":"x","topo":"geant","mode":"offline","schemes":["uniform"],"topology":"oops"}`))
	if err == nil || !strings.Contains(err.Error(), "topology") {
		t.Fatalf("unknown field not rejected: %v", err)
	}
}

func TestLoadSuite(t *testing.T) {
	dir := t.TempDir()
	write := func(file, name string) {
		spec := podSpec(name)
		data, _ := json.Marshal(spec)
		if err := os.WriteFile(filepath.Join(dir, file), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("b.json", "bbb")
	write("a.json", "aaa")
	specs, err := LoadSuite(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 2 || specs[0].Name != "aaa" || specs[1].Name != "bbb" {
		t.Fatalf("suite not name-sorted: %v, %v", specs[0].Name, specs[1].Name)
	}
	write("c.json", "aaa") // duplicate name
	if _, err := LoadSuite(dir); err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Fatalf("duplicate name not rejected: %v", err)
	}
}

// sealed is the byte-level identity the determinism tests compare: the
// Metrics JSON, which carries the checksum.
func sealed(t *testing.T, m *Metrics) string {
	t.Helper()
	data, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// runEach runs specs one after another on a fresh runner and returns the
// sealed metrics by spec name.
func runEach(t *testing.T, specs ...*Spec) map[string]string {
	t.Helper()
	r := NewRunner(Options{})
	got := make(map[string]string, len(specs))
	for _, s := range specs {
		m, err := r.RunOne(s)
		if err != nil {
			t.Fatal(err)
		}
		got[s.Name] = sealed(t, m)
	}
	return got
}

// TestRunDeterminism is the scheduling contract: Run's substrate-major
// schedule returns, for any Workers (and TrainWorkers), byte for byte
// what RunOne returns spec after spec in name order on a fresh runner.
// The mini-suite puts three specs on one substrate — one with its own
// window, one perturbed — and two on another, so groups run beside each
// other and specs inside a group share a substrate.
func TestRunDeterminism(t *testing.T) {
	fail := podSpec("a-fail")
	fail.Failures = &FailureSpec{Count: 1, At: 4}
	win := podSpec("c-window")
	win.Window = &WindowSpec{From: 5}
	pert := podSpec("e-perturb")
	pert.Perturb = &PerturbSpec{Alpha: 0.5}
	web := podSpec("b-web")
	web.Topo = "pod-web"
	webFluid := podSpec("d-web-fluid")
	webFluid.Topo = "pod-web"
	webFluid.Mode = ModeFluid
	webFluid.Delay = 1
	specs := []*Spec{fail, web, win, webFluid, pert}

	want := runEach(t, specs...)
	for _, opt := range []Options{
		{Workers: 1, TrainWorkers: 1},
		{Workers: 2},
		{Workers: 4, TrainWorkers: 3},
		{Workers: 16},
	} {
		r := NewRunner(opt)
		ms, err := r.Run(specs)
		if err != nil {
			t.Fatal(err)
		}
		if r.Substrates() != 2 {
			t.Fatalf("Workers=%d: %d substrates, want 2", opt.Workers, r.Substrates())
		}
		for i, m := range ms {
			if m.Scenario != specs[i].Name {
				t.Fatalf("Workers=%d: result %d is %s, want %s (input order)", opt.Workers, i, m.Scenario, specs[i].Name)
			}
			if got := sealed(t, m); got != want[m.Scenario] {
				t.Errorf("Workers=%d: %s differs from name-order RunOne:\n%s\n%s", opt.Workers, m.Scenario, got, want[m.Scenario])
			}
		}
	}
}

// TestRunOneConcurrent: RunOne may be called from several goroutines;
// calls that meet on one substrate take turns and agree.
func TestRunOneConcurrent(t *testing.T) {
	spec := podSpec("conc")
	want := runEach(t, spec)["conc"]
	r := NewRunner(Options{})
	got := make([]*Metrics, 4)
	err := eval.Parallel(len(got), len(got), func(i int) (err error) {
		got[i], err = r.RunOne(spec)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, m := range got {
		if s := sealed(t, m); s != want {
			t.Errorf("call %d differs from a lone RunOne:\n%s\n%s", i, s, want)
		}
	}
}

// TestRunErrorIsSmallestSpecIndex: Run reports the failing spec with the
// smallest index at every Workers, even when that spec sits in a group
// scheduled after the group of a later failing spec.
func TestRunErrorIsSmallestSpecIndex(t *testing.T) {
	late := func(name, topo string) *Spec {
		s := podSpec(name)
		s.Topo = topo
		s.Failures = &FailureSpec{Count: 1, At: 999} // valid spec, fails once the window is known
		return s
	}
	web := podSpec("web-ok")
	web.Topo = "pod-web"
	// Groups in order of first appearance: pod-db {0, 3}, pod-web {1, 2}.
	specs := []*Spec{podSpec("db-ok"), web, late("web-bad", "pod-web"), late("db-bad", "pod-db")}
	for _, w := range []int{1, 2, 4, 16} {
		_, err := NewRunner(Options{Workers: w}).Run(specs)
		if err == nil || !strings.HasPrefix(err.Error(), "scenario web-bad:") {
			t.Errorf("Workers=%d: error %v, want scenario web-bad's", w, err)
		}
	}
}

// TestMetricsIndependentOfSuiteOrder: a spec's metrics do not depend on
// which specs ran before it on its substrate. Each pair shares a
// substrate but not a (trace, window start) — or, in the last pair, not
// a mode — and b must come out byte-identical run after a, before a, and
// alone.
func TestMetricsIndependentOfSuiteOrder(t *testing.T) {
	spec := func(name string, schemes ...string) *Spec {
		s := podSpec(name)
		s.Schemes = schemes
		return s
	}
	type pair struct {
		name string
		a, b *Spec
	}
	var pairs []pair

	b := spec("b", SchemePredTE, SchemeUniform)
	b.Window = &WindowSpec{From: 5}
	pairs = append(pairs, pair{"window", spec("a", SchemePredTE, SchemeUniform), b})

	a := spec("a", SchemePredTE, SchemeUniform)
	a.Perturb = &PerturbSpec{Alpha: 0.5}
	b = spec("b", SchemePredTE, SchemeUniform)
	b.Perturb = &PerturbSpec{Alpha: 0.5}
	b.Window = &WindowSpec{From: 5}
	pairs = append(pairs, pair{"perturb", a, b})

	b = spec("b", SchemeDesTE, SchemePredTE)
	b.Window = &WindowSpec{From: 5}
	pairs = append(pairs, pair{"deste", spec("a", SchemeDesTE, SchemePredTE), b})

	a = spec("a", SchemePredTE, SchemeUniform)
	a.Mode = ModeFluid
	pairs = append(pairs, pair{"fluid-then-offline", a, spec("b", SchemePredTE, SchemeUniform)})

	for _, p := range pairs {
		ab, ba, alone := runEach(t, p.a, p.b), runEach(t, p.b, p.a), runEach(t, p.b)
		if ab["b"] != alone["b"] || ba["b"] != alone["b"] {
			t.Errorf("%s: b depends on suite order:\nalone   %s\nafter a %s\nfirst   %s", p.name, alone["b"], ab["b"], ba["b"])
		}
		if ab["a"] != ba["a"] {
			t.Errorf("%s: a depends on suite order:\nfirst   %s\nafter b %s", p.name, ab["a"], ba["a"])
		}
	}
}

// TestTrainWorkerGoldenByteIdentity pins the golden contract for the
// data-parallel trainer: a substrate model whose minibatch spans several
// gradient shards (BatchSize 48 = 3 shards) trains to bitwise-identical
// weights under any TrainWorkers, so the sealed Metrics payload — and any
// golden blessed from it — is byte-identical across worker counts.
func TestTrainWorkerGoldenByteIdentity(t *testing.T) {
	run := func(workers int) *Metrics {
		spec := podSpec("golden-tw")
		spec.Schemes = []string{SchemeFIGRET}
		spec.Train = &TrainSpec{BatchSize: 48}
		m, err := NewRunner(Options{TrainWorkers: workers}).RunOne(spec)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	a, b := run(1), run(3)
	aj, _ := json.Marshal(a)
	bj, _ := json.Marshal(b)
	if string(aj) != string(bj) {
		t.Fatalf("metrics differ across training worker counts:\n%s\n%s", aj, bj)
	}
	if a.Checksum != b.Checksum {
		t.Fatal("checksums differ across training worker counts")
	}
}

// TestFailureSeedReplay: the failure sequence is pinned by the spec's
// failure seed — same seed, same metrics; a different seed draws a
// different failure set (and on this substrate, different metrics).
func TestFailureSeedReplay(t *testing.T) {
	r := NewRunner(Options{})
	run := func(seed int64) *Metrics {
		s := podSpec("fail")
		s.Failures = &FailureSpec{Count: 2, Seed: seed}
		m, err := r.RunOne(s)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	a, b, c := run(5), run(5), run(6)
	if a.Checksum != b.Checksum {
		t.Fatal("same failure seed produced different metrics")
	}
	if a.Checksum == c.Checksum {
		t.Fatal("different failure seeds produced identical metrics (sampler ignoring seed?)")
	}
}

// TestClosedLoopMatchesFluid cross-validates the serving path against
// the offline control loop: streaming the trace through the HTTP API
// (sync ingest, delayed installation) must reproduce, interval for
// interval, the fluid control-loop metrics of the same model — the
// serving layer adds transport, not behavior.
func TestClosedLoopMatchesFluid(t *testing.T) {
	r := NewRunner(Options{})
	fluid := podSpec("cl-fluid")
	fluid.Mode = ModeFluid
	fluid.Schemes = []string{SchemeFIGRET}
	fluid.Delay = 1
	served := podSpec("cl-served")
	served.Mode = ModeClosedLoop
	served.Schemes = []string{SchemeFIGRET}
	served.Delay = 1
	mf, err := r.RunOne(fluid)
	if err != nil {
		t.Fatal(err)
	}
	ms, err := r.RunOne(served)
	if err != nil {
		t.Fatal(err)
	}
	f, s := mf.Schemes[0], ms.Schemes[0]
	f.Scheme, s.Scheme = "", ""
	if f != s {
		t.Fatalf("closed-loop diverges from fluid control loop:\nfluid:  %+v\nserved: %+v", f, s)
	}
}

// TestFailureBeyondWindowRejected: a failure onset at or past the end
// of the evaluation window would silently disable injection — it must
// be an error, not a failure-free run blessed as a failure scenario.
func TestFailureBeyondWindowRejected(t *testing.T) {
	s := podSpec("late-fail")
	s.Failures = &FailureSpec{Count: 1, At: 999}
	if _, err := NewRunner(Options{}).RunOne(s); err == nil ||
		!strings.Contains(err.Error(), "beyond the evaluation window") {
		t.Fatalf("out-of-window failure onset not rejected: %v", err)
	}
}

func TestRunOneWindowAndPerturb(t *testing.T) {
	r := NewRunner(Options{})
	s := podSpec("win")
	s.Window = &WindowSpec{From: 2, To: 10}
	s.Perturb = &PerturbSpec{Alpha: 0.5}
	m, err := r.RunOne(s)
	if err != nil {
		t.Fatal(err)
	}
	if m.To-m.From != 8 {
		t.Fatalf("window [%d,%d), want 8 snapshots", m.From, m.To)
	}
	base, err := r.RunOne(podSpec("win-base"))
	if err != nil {
		t.Fatal(err)
	}
	if m.Schemes[0].AvgMLU == base.Schemes[0].AvgMLU {
		t.Fatal("perturbation had no effect on metrics")
	}
}
