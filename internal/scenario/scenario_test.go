package scenario

import (
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
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
		{Name: "x", Topo: "geant", Mode: ModeOffline, Schemes: []string{SchemeUniform}, Delay: -1},
		{Name: "x", Topo: "geant", Mode: ModeOffline, Schemes: []string{SchemeUniform}, Delay: 1},
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("spec %d unexpectedly valid: %+v", i, s)
		}
	}
	if err := podSpec("ok").Validate(); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
}

// TestParseSpecUnknownField: a typo, and every value a spec no longer
// declares (the package constants), fails loudly by name instead of
// silently running the default.
func TestParseSpecUnknownField(t *testing.T) {
	for _, c := range []struct{ field, body string }{
		{"topology", `"topology":"oops"`},
		{"scale", `"scale":"full"`},
		{"k", `"k":4`},
		{"seed", `"seed":2`},
		{"solverIters", `"solverIters":300`},
		{"train", `"train":{"h":12}`},
		{"train", `"train":{"gamma":0}`},
		{"train", `"train":{"epochs":8}`},
		{"train", `"train":{"hidden":[64]}`},
		{"train", `"train":{"batchSize":48}`},
		{"window", `"window":{"from":5}`},
		{"window", `"window":{"to":10}`},
		{"seed", `"perturb":{"alpha":0.5,"seed":7}`},
		{"seed", `"failures":{"count":1,"seed":7}`},
	} {
		data := []byte(`{"name":"x","topo":"geant","mode":"offline","schemes":["uniform"],` + c.body + `}`)
		_, err := ParseSpec(data)
		if err == nil || !strings.Contains(err.Error(), `unknown field "`+c.field+`"`) {
			t.Errorf("ParseSpec(%s) = %v, want unknown field %q", c.body, err, c.field)
		}
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

// atProcs runs fn with GOMAXPROCS set to n (0 leaves it as it is): every
// fan-out Options does not size — substrate training, path precompute —
// reads it.
func atProcs(n int, fn func()) {
	if n > 0 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(n))
	}
	fn()
}

// TestRunDeterminism is the scheduling contract: Run's substrate-major
// schedule returns, for any Workers and any GOMAXPROCS, byte for byte
// what RunOne returns spec after spec in name order on a fresh runner.
// The mini-suite puts three specs on one substrate — one fluid, one
// perturbed — and two on another, so groups run beside each other and
// specs inside a group share a substrate.
func TestRunDeterminism(t *testing.T) {
	fail := podSpec("a-fail")
	fail.Failures = &FailureSpec{Count: 1, At: 4}
	fluid := podSpec("c-fluid")
	fluid.Mode = ModeFluid
	fluid.Delay = 2
	pert := podSpec("e-perturb")
	pert.Perturb = &PerturbSpec{Alpha: 0.5}
	web := podSpec("b-web")
	web.Topo = "pod-web"
	webFluid := podSpec("d-web-fluid")
	webFluid.Topo = "pod-web"
	webFluid.Mode = ModeFluid
	webFluid.Delay = 1
	specs := []*Spec{fail, web, fluid, webFluid, pert}

	want := runEach(t, specs...)
	for _, c := range []struct{ workers, procs int }{{1, 1}, {2, 0}, {4, 3}, {16, 0}} {
		r := NewRunner(Options{Workers: c.workers})
		var ms []*Metrics
		var err error
		atProcs(c.procs, func() { ms, err = r.Run(specs) })
		if err != nil {
			t.Fatal(err)
		}
		if r.Substrates() != 2 {
			t.Fatalf("Workers=%d: %d substrates, want 2", c.workers, r.Substrates())
		}
		for i, m := range ms {
			if m.Scenario != specs[i].Name {
				t.Fatalf("Workers=%d: result %d is %s, want %s (input order)", c.workers, i, m.Scenario, specs[i].Name)
			}
			if got := sealed(t, m); got != want[m.Scenario] {
				t.Errorf("Workers=%d GOMAXPROCS=%d: %s differs from name-order RunOne:\n%s\n%s", c.workers, c.procs, m.Scenario, got, want[m.Scenario])
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
// substrate but not an evaluated trace, a failure set or a mode, and b
// must come out byte-identical run after a, before a, and alone.
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
	b.Perturb = &PerturbSpec{Alpha: 0.5}
	pairs = append(pairs, pair{"perturb", spec("a", SchemePredTE, SchemeUniform), b})

	b = spec("b", SchemeDesTE, SchemePredTE)
	b.Failures = &FailureSpec{Count: 1, At: 4}
	pairs = append(pairs, pair{"deste-failure", spec("a", SchemeDesTE, SchemePredTE), b})

	a := spec("a", SchemePredTE, SchemeUniform)
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
// data-parallel trainer end to end: a substrate model trained at the
// scenarios' batch of 16 is bitwise identical at any GOMAXPROCS, so the
// sealed Metrics payload — and any golden blessed from it — is
// byte-identical across worker counts. Batches spanning several kernel
// tiles are figret's TestTrainWorkerCountInvariance.
func TestTrainWorkerGoldenByteIdentity(t *testing.T) {
	run := func(procs int) (m *Metrics) {
		spec := podSpec("golden-tw")
		spec.Schemes = []string{SchemeFIGRET}
		var err error
		atProcs(procs, func() { m, err = NewRunner(Options{}).RunOne(spec) })
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

// TestFailureSeedReplay: the failure sequence is pinned by the fixed
// failure seed — the same spec replays the same metrics; another count
// draws another failure set (and on this substrate, other metrics).
func TestFailureSeedReplay(t *testing.T) {
	r := NewRunner(Options{})
	run := func(count int) *Metrics {
		s := podSpec("fail")
		s.Failures = &FailureSpec{Count: count}
		m, err := r.RunOne(s)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	a, b, c := run(2), run(2), run(1)
	if a.Checksum != b.Checksum {
		t.Fatal("same failure spec produced different metrics")
	}
	if a.Checksum == c.Checksum {
		t.Fatal("different failure counts produced identical metrics (sampler ignoring count?)")
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

// TestDelayBeyondWindowRejected: at a delay as long as the evaluation
// window no advised configuration is ever installed inside it, so every
// scheme would score the bootstrap uniform split. That is an error in
// both delayed modes; one interval less still runs.
func TestDelayBeyondWindowRejected(t *testing.T) {
	r := NewRunner(Options{})
	for _, mode := range []string{ModeFluid, ModeClosedLoop} {
		s := podSpec("delay-" + mode)
		s.Mode = mode
		s.Schemes = []string{SchemeFIGRET}
		s.Delay = 16 // pod-db's window is [48,64)
		if _, err := r.RunOne(s); err == nil || !strings.Contains(err.Error(), "delay 16") {
			t.Errorf("%s: delay 16 not rejected: %v", mode, err)
		}
		s.Delay = 15
		if _, err := r.RunOne(s); err != nil {
			t.Errorf("%s: delay 15 rejected: %v", mode, err)
		}
	}
}

func TestRunOnePerturb(t *testing.T) {
	r := NewRunner(Options{})
	s := podSpec("perturb")
	s.Perturb = &PerturbSpec{Alpha: 0.5}
	m, err := r.RunOne(s)
	if err != nil {
		t.Fatal(err)
	}
	base, err := r.RunOne(podSpec("base"))
	if err != nil {
		t.Fatal(err)
	}
	if m.From != base.From || m.To != base.To {
		t.Fatalf("perturbed window [%d,%d), unperturbed [%d,%d)", m.From, m.To, base.From, base.To)
	}
	if m.Schemes[0].AvgMLU == base.Schemes[0].AvgMLU {
		t.Fatal("perturbation had no effect on metrics")
	}
}
