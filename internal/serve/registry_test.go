package serve

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"figret/internal/figret"
	"figret/internal/graph"
	"figret/internal/te"
	"figret/internal/traffic"
)

// fixture builds a tiny served topology: the 4-PoD full mesh with a
// briefly trained model.
func fixture(tb testing.TB, T int, seed int64) (*te.PathSet, *traffic.Trace, *figret.Model) {
	tb.Helper()
	ps, err := te.NewPathSet(graph.PoDDB(), 3, nil)
	if err != nil {
		tb.Fatal(err)
	}
	tr, err := traffic.DC(traffic.PoDDB, 4, T, seed)
	if err != nil {
		tb.Fatal(err)
	}
	m := figret.New(ps, figret.Config{H: 4, Gamma: 1, Epochs: 2, Seed: seed, BatchSize: 8})
	if _, err := m.Train(tr); err != nil {
		tb.Fatal(err)
	}
	return ps, tr, m
}

func TestRegistryInstallRollback(t *testing.T) {
	ps, _, m1 := fixture(t, 40, 1)
	_, _, m2 := fixture(t, 40, 2)
	reg := NewRegistry()
	if err := reg.AddTopology("pod", ps); err != nil {
		t.Fatal(err)
	}
	if ck := reg.Active("pod"); ck != nil {
		t.Fatalf("active before any install: %+v", ck)
	}

	ck1, err := reg.Install("pod", m1, "bootstrap")
	if err != nil {
		t.Fatal(err)
	}
	if ck1.Version != 1 || reg.Active("pod") != ck1 {
		t.Fatalf("v1 not active: %+v", ck1)
	}
	ck2, err := reg.Install("pod", m2, "retrain")
	if err != nil {
		t.Fatal(err)
	}
	if ck2.Version != 2 || reg.Active("pod") != ck2 {
		t.Fatalf("v2 not active: %+v", ck2)
	}

	list := reg.List("pod")
	if len(list) != 2 || !list[1].Active || list[0].Active {
		t.Fatalf("list = %+v", list)
	}

	back, err := reg.Rollback("pod")
	if err != nil {
		t.Fatal(err)
	}
	if back != ck1 || reg.Active("pod") != ck1 {
		t.Fatalf("rollback did not restore v1: %+v", back)
	}
	if len(reg.List("pod")) != 1 {
		t.Fatalf("rolled-back version still listed: %+v", reg.List("pod"))
	}
	if _, err := reg.Rollback("pod"); err == nil {
		t.Fatal("rollback below the first version succeeded")
	}
}

func TestRegistryUploadValidation(t *testing.T) {
	ps, _, _ := fixture(t, 40, 1)
	reg := NewRegistry()
	if err := reg.AddTopology("pod", ps); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Upload("pod", []byte("{not json"), "upload"); err == nil {
		t.Fatal("garbage checkpoint accepted")
	}
	// A model trained for a different topology (different path count) must
	// be rejected.
	other, err := te.NewPathSet(graph.PoDWEB(), 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	wrong := figret.New(other, figret.Config{H: 4, Epochs: 1, Seed: 1})
	data, err := wrong.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Upload("pod", data, "upload"); err == nil {
		t.Fatal("wrong-topology checkpoint accepted")
	}
	if _, err := reg.Upload("nope", nil, "upload"); err == nil {
		t.Fatal("unknown topology accepted")
	}
}

// TestCheckpointPredictMatchesModel pins the serving hot path to offline
// inference: concurrent Predict calls on an installed checkpoint's model
// are bitwise identical to the source model's serial ones, which the
// closed-loop test then extends across the HTTP API.
func TestCheckpointPredictMatchesModel(t *testing.T) {
	ps, tr, m := fixture(t, 60, 3)
	reg := NewRegistry()
	if err := reg.AddTopology("pod", ps); err != nil {
		t.Fatal(err)
	}
	ck, err := reg.Install("pod", m, "bootstrap")
	if err != nil {
		t.Fatal(err)
	}
	h := m.Cfg.H
	// Reference outputs first, serially.
	want := make(map[int]*te.Config)
	for ti := h; ti <= tr.Len(); ti++ {
		cfg, err := m.Predict(tr.Window(ti, h))
		if err != nil {
			t.Fatal(err)
		}
		want[ti] = cfg
	}
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for ti := h + w; ti <= tr.Len(); ti += 8 {
				got, err := ck.Model.Predict(tr.Window(ti, h))
				if err != nil {
					errs <- err
					return
				}
				for p := range want[ti].R {
					if got.R[p] != want[ti].R[p] {
						errs <- fmt.Errorf("t=%d path %d: checkpoint %v, model %v", ti, p, got.R[p], want[ti].R[p])
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestInstallServesWhatUploadServes: an in-process Install serves the
// model an Upload of the same model's MarshalJSON serves — the snapshot is
// the round trip without the text. Twin servers, one fed each way, must
// hold deep-equal models (Cfg included, TrainWorkers 0 on both as the
// json:"-" round trip leaves it) and answer a replay with bitwise-equal
// decisions over every transport.
func TestInstallServesWhatUploadServes(t *testing.T) {
	ps, tr, m := fixture(t, 60, 1)
	m.Cfg.TrainWorkers = 3
	data, err := m.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	for _, transport := range transports {
		installed, _, regI := startServer(t, "pod", ps, ControllerOptions{HistoryCap: 16})
		uploaded, _, regU := startServer(t, "pod", ps, ControllerOptions{HistoryCap: 16})
		ckI, err := regI.Install("pod", m, "bootstrap")
		if err != nil {
			t.Fatal(err)
		}
		ckU, err := regU.Upload("pod", data, "bootstrap")
		if err != nil {
			t.Fatal(err)
		}
		if ckI.Model == m || ckI.Model.Net == m.Net {
			t.Fatal("Install serves the caller's own model")
		}
		if ckI.Model.Cfg.TrainWorkers != 0 {
			t.Fatalf("installed Cfg.TrainWorkers = %d, want 0", ckI.Model.Cfg.TrainWorkers)
		}
		if !reflect.DeepEqual(ckI.Model, ckU.Model) {
			t.Fatalf("installed model differs from uploaded model:\ncfg %+v\nvs  %+v", ckI.Model.Cfg, ckU.Model.Cfg)
		}
		if ckI.Bytes != 8*m.Net.NumParams() || ckU.Bytes != len(data) {
			t.Fatalf("Bytes = %d (install) / %d (upload), want %d / %d", ckI.Bytes, ckU.Bytes, 8*m.Net.NumParams(), len(data))
		}
		a, err := Replay(postOver(t, transport, installed, "pod", ps), ps, tr, ReplayOptions{To: 30})
		if err != nil {
			t.Fatal(err)
		}
		b, err := Replay(postOver(t, transport, uploaded, "pod", ps), ps, tr, ReplayOptions{To: 30})
		if err != nil {
			t.Fatal(err)
		}
		if len(a.Decisions) != 30 || len(b.Decisions) != 30 {
			t.Fatalf("%s: %d / %d decisions, want 30", transport, len(a.Decisions), len(b.Decisions))
		}
		for i := range a.Decisions {
			sameDecisionAt(t, transport, a.Decisions[i], b.Decisions[i], false)
		}
	}
}

// TestInstallSnapshotIsIndependent: the caller keeps its model. Training
// it further and then scribbling over every weight while the daemon
// serves (run under -race) changes no decision — each stays bitwise the
// offline inference of the model as it was at Install — and an edit of
// the caller's Cfg.Hidden does not reach the checkpoint.
func TestInstallSnapshotIsIndependent(t *testing.T) {
	ps, tr, m := fixture(t, 60, 2)
	m.Cfg.Hidden = []int{128, 128, 128, 128, 128} // what withDefaults chose, owned here
	data, err := m.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	frozen, err := figret.LoadModel(ps, data)
	if err != nil {
		t.Fatal(err)
	}
	client, _, reg := startServer(t, "pod", ps, ControllerOptions{HistoryCap: 16})
	ck, err := reg.Install("pod", m, "bootstrap")
	if err != nil {
		t.Fatal(err)
	}

	done := make(chan error, 1)
	go func() {
		_, err := m.Train(tr)
		m.Net.VisitParams(func(params, _ []float64) {
			for i := range params {
				params[i] = math.NaN()
			}
		})
		for i := range m.VarWeights {
			m.VarWeights[i] = -1
		}
		m.Cfg.Hidden[0] = 7
		m.Scale = 0
		done <- err
	}()
	h := frozen.Cfg.H
	check := func(from, to int) {
		t.Helper()
		for i := from; i < to; i++ {
			rr, err := client.PostSnapshot("pod", tr.At(i))
			if err != nil {
				t.Fatal(err)
			}
			if i < h-1 {
				continue
			}
			want, err := frozen.Predict(tr.Window(i+1, h))
			if err != nil {
				t.Fatal(err)
			}
			if rr.Warming || rr.Version != 1 || len(rr.Ratios) != len(want.R) {
				t.Fatalf("t=%d: warming %v version %d, %d ratios", i, rr.Warming, rr.Version, len(rr.Ratios))
			}
			for p := range want.R {
				if math.Float64bits(rr.Ratios[p]) != math.Float64bits(want.R[p]) {
					t.Fatalf("t=%d path %d: served %v, model at install %v", i, p, rr.Ratios[p], want.R[p])
				}
			}
		}
	}
	check(0, 30) // while m trains and is overwritten
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	check(30, tr.Len()) // and after
	if got := ck.Model.Cfg.Hidden[0]; got != 128 {
		t.Fatalf("checkpoint Cfg.Hidden[0] = %d after the caller's edit, want 128", got)
	}
}

// TestInstallRejectsWhatUploadRejects: the snapshot route runs every
// check the serialize-and-reparse route ran. Each broken model must fail
// Install, and must equally fail the JSON route — either MarshalJSON
// refuses to encode it (NaN/±Inf; that error used to be Install's) or
// Upload rejects the bytes — and after each the active version and the
// next decision are what they were.
func TestInstallRejectsWhatUploadRejects(t *testing.T) {
	ps, tr, m := fixture(t, 40, 5)
	good, err := m.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	other, err := te.NewPathSet(graph.PoDWEB(), 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	client, _, reg := startServer(t, "pod", ps, ControllerOptions{HistoryCap: 16})
	if _, err := reg.Install("pod", m, "bootstrap"); err != nil {
		t.Fatal(err)
	}
	h := m.Cfg.H
	for i := 0; i < h; i++ {
		if _, err := client.PostSnapshot("pod", tr.At(i)); err != nil {
			t.Fatal(err)
		}
	}
	next := h

	cases := []struct {
		name  string
		build func(m *figret.Model) *figret.Model
	}{
		{"NaN weight", func(m *figret.Model) *figret.Model { m.Net.Layers[0].W[3] = math.NaN(); return m }},
		{"Inf bias", func(m *figret.Model) *figret.Model { m.Net.Layers[1].B[0] = math.Inf(1); return m }},
		{"-Inf output weight", func(m *figret.Model) *figret.Model {
			l := m.Net.Layers[len(m.Net.Layers)-1]
			l.W[len(l.W)-1] = math.Inf(-1)
			return m
		}},
		{"NaN variance weight", func(m *figret.Model) *figret.Model { m.VarWeights[1] = math.NaN(); return m }},
		{"scale 0", func(m *figret.Model) *figret.Model { m.Scale = 0; return m }},
		{"scale negative", func(m *figret.Model) *figret.Model { m.Scale = -2; return m }},
		{"scale NaN", func(m *figret.Model) *figret.Model { m.Scale = math.NaN(); return m }},
		{"scale +Inf", func(m *figret.Model) *figret.Model { m.Scale = math.Inf(1); return m }},
		{"loss scale NaN", func(m *figret.Model) *figret.Model { m.LossScale = math.NaN(); return m }},
		{"gamma NaN", func(m *figret.Model) *figret.Model { m.Cfg.Gamma = math.NaN(); return m }},
		{"built for another path set", func(*figret.Model) *figret.Model {
			return figret.New(other, figret.Config{H: 4, Epochs: 1, Seed: 1})
		}},
		{"H x pairs != first layer inputs", func(m *figret.Model) *figret.Model { m.Cfg.H--; return m }},
		{"H zero", func(m *figret.Model) *figret.Model { m.Cfg.H = 0; return m }},
		{"variance weights of another size", func(m *figret.Model) *figret.Model {
			m.VarWeights = m.VarWeights[1:]
			return m
		}},
		{"layers that do not chain", func(m *figret.Model) *figret.Model { m.Net.Layers[0].Out++; return m }},
		{"truncated weight tensor", func(m *figret.Model) *figret.Model {
			l := m.Net.Layers[2]
			l.W = l.W[1:]
			return m
		}},
		{"unknown activation", func(m *figret.Model) *figret.Model { m.Net.Layers[0].Act = 99; return m }},
		{"no layers", func(m *figret.Model) *figret.Model { m.Net.Layers = nil; return m }},
		{"no network", func(m *figret.Model) *figret.Model { m.Net = nil; return m }},
	}
	for _, c := range cases {
		fresh, err := figret.LoadModel(ps, good)
		if err != nil {
			t.Fatal(err)
		}
		bad := c.build(fresh)
		if _, err := reg.Install("pod", bad, "retrain"); err == nil {
			t.Errorf("%s: Install accepted it", c.name)
		}
		if data, err := bad.MarshalJSON(); err == nil {
			if _, err := reg.Upload("pod", data, "upload"); err == nil {
				t.Errorf("%s: Upload accepted it", c.name)
			}
		}
		if ck := reg.Active("pod"); ck.Version != 1 || len(reg.List("pod")) != 1 {
			t.Fatalf("%s: active version %d of %d listed, want the one bootstrap", c.name, ck.Version, len(reg.List("pod")))
		}
		rr, err := client.PostSnapshot("pod", tr.At(next))
		if err != nil {
			t.Fatalf("%s: next snapshot: %v", c.name, err)
		}
		next++
		want, err := m.Predict(tr.Window(next, h))
		if err != nil {
			t.Fatal(err)
		}
		if rr.Warming || rr.Version != 1 || len(rr.Ratios) != len(want.R) {
			t.Fatalf("%s: next decision = warming %v version %d, want a version-1 decision", c.name, rr.Warming, rr.Version)
		}
		for p := range want.R {
			if math.Float64bits(rr.Ratios[p]) != math.Float64bits(want.R[p]) {
				t.Fatalf("%s: next decision path %d: served %v, want %v", c.name, p, rr.Ratios[p], want.R[p])
			}
		}
	}
	// The table's fixture itself passes both routes.
	fresh, err := figret.LoadModel(ps, good)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Install("pod", fresh, "retrain"); err != nil {
		t.Fatalf("unbroken model rejected by Install: %v", err)
	}
	if _, err := reg.Upload("pod", good, "upload"); err != nil {
		t.Fatalf("unbroken model rejected by Upload: %v", err)
	}
}

// TestInstallIfSuperseded: a retrain whose incumbent was replaced while
// it trained gets ErrSuperseded before its model is copied or validated
// (a model that could never validate still reports "superseded", not
// "rejected"); against the live incumbent the same model is rejected on
// its merits; and of many InstallIf racing on one incumbent exactly one
// wins — the check under the lock still decides.
func TestInstallIfSuperseded(t *testing.T) {
	ps, _, m := fixture(t, 40, 1)
	reg := NewRegistry()
	if err := reg.AddTopology("pod", ps); err != nil {
		t.Fatal(err)
	}
	ck1, err := reg.Install("pod", m, "bootstrap")
	if err != nil {
		t.Fatal(err)
	}
	ck2, err := reg.Install("pod", m, "upload")
	if err != nil {
		t.Fatal(err)
	}
	data, err := m.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	broken, err := figret.LoadModel(ps, data)
	if err != nil {
		t.Fatal(err)
	}
	broken.Net.Layers[0].W[0] = math.NaN()
	if _, err := reg.InstallIf("pod", broken, "retrain", ck1); !errors.Is(err, ErrSuperseded) {
		t.Fatalf("InstallIf against a replaced incumbent: %v, want ErrSuperseded", err)
	}
	if _, err := reg.InstallIf("pod", broken, "retrain", ck2); err == nil || errors.Is(err, ErrSuperseded) {
		t.Fatalf("InstallIf of a NaN model against the live incumbent: %v, want a rejection", err)
	}
	if reg.Active("pod") != ck2 {
		t.Fatal("a failed InstallIf changed the active checkpoint")
	}

	const racers = 8
	var wg sync.WaitGroup
	results := make(chan error, racers)
	for i := 0; i < racers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := reg.InstallIf("pod", m, "retrain", ck2)
			results <- err
		}()
	}
	wg.Wait()
	close(results)
	won := 0
	for err := range results {
		switch {
		case err == nil:
			won++
		case !errors.Is(err, ErrSuperseded):
			t.Fatalf("racing InstallIf: %v", err)
		}
	}
	if won != 1 || reg.Active("pod").Version != 3 {
		t.Fatalf("%d of %d racing InstallIf won, active version %d; want 1 and 3", won, racers, reg.Active("pod").Version)
	}
}

// TestAllocContracts gates the serving path's steady-state allocations
// with absolute bounds. AllocsPerRun counts every malloc in the process,
// so the controller-goroutine hop and the in-process wire server are
// included — and so are the race detector's own, hence the -short skip.
func TestAllocContracts(t *testing.T) {
	if testing.Short() {
		t.Skip("the race job runs -short; its instrumentation allocates")
	}
	c, _, fx := startController(t, ControllerOptions{HistoryCap: 16})
	next := 0
	demand := func(int) []float64 { next++; return fx.tr.At(next % fx.tr.Len()) }
	for i := 0; i < 8; i++ { // past the model's window: every run decides
		c.Ingest(demand(i), true)
	}
	var err error // of the last measured call: a failing path allocates little
	ingest := testing.AllocsPerRun(50, func() { _, err = c.Ingest(demand(0), true) })
	if err != nil {
		t.Fatal(err)
	}

	client, _ := wireFixture(t)
	bin := dialPod(t, client, fx.ps)
	const n = 100 // one Stream call's set-up is spread over n decisions
	stream := testing.AllocsPerRun(1, func() { _, err = bin.Stream(n, demand, nil) }) / n
	if err != nil {
		t.Fatal(err)
	}

	// The paper's network on GEANT (~1M parameters): a snapshot allocates
	// the weights once more plus their gradient buffers, 16 B a parameter;
	// a serialisation back on this path would be an order of magnitude.
	// Four runs: the registry retains every version, 16 MB each.
	ps, err := te.NewPathSet(graph.GEANT(), 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	m, reg := figret.New(ps, figret.Config{Seed: 7}), NewRegistry()
	if err := reg.AddTopology("geant", ps); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	install := testing.AllocsPerRun(4, func() { _, err = reg.Install("geant", m, "contract") })
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	perParam := float64(after.TotalAlloc-before.TotalAlloc) / 5 / float64(m.Net.NumParams())

	for _, c := range []struct {
		what     string
		got, max float64
	}{
		{"Controller.Ingest allocs/op", ingest, 7},
		{"BinClient.Stream allocs/decision", stream, 8},
		{"Registry.Install allocs/op", install, 57},
		{"Registry.Install bytes/parameter", perParam, 17},
	} {
		if c.got > c.max {
			t.Errorf("%s = %.4g, want <= %v", c.what, c.got, c.max)
		}
	}
}
