package scenario

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
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
}

func TestParseSpecUnknownField(t *testing.T) {
	_, err := ParseSpec([]byte(`{"name":"x","topo":"geant","mode":"offline","schemes":["uniform"],"topology":"oops"}`))
	if err == nil || !strings.Contains(err.Error(), "topology") {
		t.Fatalf("unknown field not rejected: %v", err)
	}
}

func TestParseShard(t *testing.T) {
	for _, bad := range []string{"0/3", "4/3", "x", "1/0", "-1/2"} {
		if _, err := ParseShard(bad); err == nil {
			t.Errorf("shard %q unexpectedly parsed", bad)
		}
	}
	sh, err := ParseShard("2/3")
	if err != nil || sh != (Shard{2, 3}) {
		t.Fatalf("ParseShard(2/3) = %v, %v", sh, err)
	}
	if sh, _ := ParseShard(""); sh != (Shard{1, 1}) {
		t.Fatalf("empty shard = %v", sh)
	}
}

// TestShardSelectUnion proves the shard invariant: shards are disjoint
// and their union (in canonical order) is exactly the suite.
func TestShardSelectUnion(t *testing.T) {
	specs := []*Spec{podSpec("a"), podSpec("b"), podSpec("c"), podSpec("d"), podSpec("e")}
	const n = 3
	seen := map[string]int{}
	for i := 1; i <= n; i++ {
		for _, s := range (Shard{i, n}).Select(specs) {
			seen[s.Name]++
		}
	}
	if len(seen) != len(specs) {
		t.Fatalf("union has %d of %d specs", len(seen), len(specs))
	}
	for _, s := range specs {
		if c := seen[s.Name]; c != 1 {
			t.Fatalf("spec %s selected %d times", s.Name, c)
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

// TestRunDeterminism is the core contract: metrics are a pure function
// of the spec — identical for any evaluation worker count, scenario
// concurrency, training worker count, and across runner instances
// (fresh caches).
func TestRunDeterminism(t *testing.T) {
	spec := podSpec("det")
	spec.Failures = &FailureSpec{Count: 1, At: 4}
	var got []*Metrics
	for _, opt := range []Options{
		{Workers: 1, ScenarioWorkers: 1, TrainWorkers: 1},
		{Workers: 4, ScenarioWorkers: 2, TrainWorkers: 3},
	} {
		ms, err := NewRunner(opt).Run([]*Spec{spec, podSpec("det2")})
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, ms...)
	}
	a, _ := json.Marshal(got[0])
	b, _ := json.Marshal(got[2])
	if string(a) != string(b) {
		t.Fatalf("metrics differ across worker counts:\n%s\n%s", a, b)
	}
	if got[0].Checksum != got[2].Checksum || got[1].Checksum != got[3].Checksum {
		t.Fatal("checksums differ across runner instances")
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
