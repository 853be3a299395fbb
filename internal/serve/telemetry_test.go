package serve

import (
	"context"
	"errors"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"figret/internal/obs"
	"figret/internal/te"
	"figret/internal/traffic"
)

// replayDecisions runs a sync replay and strips the wall-clock stamps so
// two runs are comparable bitwise.
func replayDecisions(t *testing.T, tel *Telemetry, transport string, ps *te.PathSet, tr *traffic.Trace, data []byte) []RoutingResponse {
	t.Helper()
	reg := NewRegistry()
	if err := reg.AddTopology("pod", ps); err != nil {
		t.Fatal(err)
	}
	srv := NewServer(reg)
	srv.UseTelemetry(tel)
	if _, err := srv.Add("pod", ControllerOptions{HistoryCap: 64, MaxChurn: 0.4}); err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	defer func() {
		hs.Close()
		srv.Close()
	}()
	client := NewClient(hs.URL)
	if _, err := client.UploadCheckpoint("pod", data); err != nil {
		t.Fatal(err)
	}
	res, err := Replay(postOver(t, transport, client, "pod", ps), ps, tr, ReplayOptions{})
	if err != nil {
		t.Fatal(err)
	}
	out := make([]RoutingResponse, len(res.Decisions))
	for i, d := range res.Decisions {
		out[i] = *d
		out[i].At = time.Time{}
	}
	return out
}

// TestNilTelemetryIsInert is obs.TestNilInstrumentsAreInert's twin: every
// exported method of a nil *Telemetry, found by reflection and called with
// zero-valued arguments, returns zero values without panicking, and so do
// the unexported hooks the controller and the transports call.
func TestNilTelemetryIsInert(t *testing.T) {
	var tel *Telemetry
	v := reflect.ValueOf(tel)
	if v.NumMethod() == 0 {
		t.Fatal("*Telemetry has no exported methods")
	}
	for i := 0; i < v.NumMethod(); i++ {
		m := v.Method(i)
		args := make([]reflect.Value, m.Type().NumIn())
		for j := range args {
			args[j] = reflect.Zero(m.Type().In(j))
		}
		for _, out := range m.Call(args) {
			if !out.IsZero() {
				t.Errorf("(*Telemetry)(nil).%s returned %v, want the zero value", v.Type().Method(i).Name, out)
			}
		}
	}
	tel.wireConnOpen()
	tel.wireDecision(true)
	tel.wireResync()
	tel.wireConnClose()
	tel.transport("json").observe(time.Second)
	if tel.topo("pod") != nil {
		t.Error("a nil Telemetry handed out a topology instrument set")
	}
}

// TestTelemetryZeroImpact is the tentpole's no-perturbation guarantee:
// the same trace replayed with full telemetry attached and with none
// must produce bitwise-identical decision sequences, on all three
// transports.
func TestTelemetryZeroImpact(t *testing.T) {
	ps, tr, m := fixture(t, 40, 5)
	data, err := m.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	for _, transport := range transports {
		t.Run(transport, func(t *testing.T) {
			bare := replayDecisions(t, nil, transport, ps, tr, data)
			tel := NewTelemetry(obs.NewRegistry())
			observed := replayDecisions(t, tel, transport, ps, tr, data)
			if !reflect.DeepEqual(bare, observed) {
				t.Fatal("decisions with telemetry differ from decisions without")
			}
		})
	}
}

// TestTelemetryCountersDuringReplay checks the wiring end to end: after
// replays over all three transports, the scraped Prometheus page must carry
// non-zero decision, stage, transport and wire-stream series.
func TestTelemetryCountersDuringReplay(t *testing.T) {
	ps, tr, m := fixture(t, 30, 6)
	data, err := m.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	tel := NewTelemetry(reg)
	for _, transport := range transports {
		replayDecisions(t, tel, transport, ps, tr, data)
	}

	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	page := sb.String()
	for _, want := range []string{
		`figret_serve_snapshots_total{topology="pod"}`,
		`figret_serve_decisions_total{topology="pod"}`,
		`figret_serve_decision_duration_seconds_count{topology="pod"}`,
		`figret_serve_stage_duration_seconds_count{stage="predict",topology="pod"}`,
		`figret_serve_transport_requests_total{transport="json"}`,
		`figret_serve_transport_requests_total{transport="binhttp"}`,
		`figret_serve_transport_requests_total{transport="wire"}`,
		`figret_serve_checkpoint_installs_total{source="upload",topology="pod"}`,
		`figret_wire_connections_total`,
	} {
		idx := strings.Index(page, want)
		if idx < 0 {
			t.Fatalf("scrape missing %s\n%s", want, page)
		}
		rest := page[idx+len(want):]
		if nl := strings.IndexByte(rest, '\n'); nl >= 0 {
			rest = rest[:nl]
		}
		if v := strings.TrimSpace(rest); v == "0" {
			t.Errorf("%s stayed zero after replay", want)
		}
	}
}

// TestServerShutdownDrains is the graceful-exit regression test: with
// sync ingests in flight, Shutdown must complete within its deadline and
// every pending caller must get an answer — a decision or ErrClosed,
// never a hang — and the server must refuse work afterwards.
func TestServerShutdownDrains(t *testing.T) {
	ps, tr, m := fixture(t, 20, 7)
	reg := NewRegistry()
	if err := reg.AddTopology("pod", ps); err != nil {
		t.Fatal(err)
	}
	srv := NewServer(reg)
	c, err := srv.Add("pod", ControllerOptions{HistoryCap: 64})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Install("pod", m, "bootstrap"); err != nil {
		t.Fatal(err)
	}

	const ingesters = 8
	var wg sync.WaitGroup
	errs := make([]error, ingesters)
	started := make(chan struct{}, ingesters)
	for i := 0; i < ingesters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var once sync.Once
			for s := 0; ; s = (s + 1) % tr.Len() {
				_, err := c.Ingest(tr.At(s), true)
				once.Do(func() { started <- struct{}{} })
				if err != nil {
					errs[i] = err
					return
				}
			}
		}(i)
	}
	for i := 0; i < ingesters; i++ {
		<-started
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown did not drain within deadline: %v", err)
	}
	wg.Wait()
	for i, err := range errs {
		if !errors.Is(err, ErrClosed) {
			t.Errorf("ingester %d exited with %v, want ErrClosed", i, err)
		}
	}
	if _, err := c.Ingest(tr.At(0), true); !errors.Is(err, ErrClosed) {
		t.Fatalf("ingest after shutdown: %v, want ErrClosed", err)
	}
	// Shutdown is idempotent.
	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatalf("second shutdown: %v", err)
	}
}

// TestServerReady pins the readiness contract: not ready before any real
// decision, ready once every expected topology has served one, and
// unknown expected topologies stay not-ready.
func TestServerReady(t *testing.T) {
	ps, tr, m := fixture(t, 20, 8)
	reg := NewRegistry()
	if err := reg.AddTopology("pod", ps); err != nil {
		t.Fatal(err)
	}
	srv := NewServer(reg)
	defer srv.Close()
	if err := srv.Ready(); err == nil {
		t.Fatal("empty server reported ready")
	}
	if err := srv.Ready("pod"); err == nil {
		t.Fatal("ready before the topology was added")
	}
	c, err := srv.Add("pod", ControllerOptions{HistoryCap: 64})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Ready(); err == nil {
		t.Fatal("ready before any decision (bootstrap fallback must not count)")
	}
	if _, err := reg.Install("pod", m, "bootstrap"); err != nil {
		t.Fatal(err)
	}
	// Warm the window past H and force one sync decision.
	for s := 0; s < 5; s++ {
		if _, err := c.Ingest(tr.At(s), true); err != nil {
			t.Fatal(err)
		}
	}
	if err := srv.Ready(); err != nil {
		t.Fatalf("not ready after serving a decision: %v", err)
	}
	if err := srv.Ready("pod", "ghost"); err == nil {
		t.Fatal("ready with an unknown expected topology")
	}
}
