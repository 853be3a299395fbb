package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"figret/internal/baselines"
	"figret/internal/eval"
	"figret/internal/figret"
	"figret/internal/graph"
	"figret/internal/netsim"
	"figret/internal/obs"
	"figret/internal/te"
	"figret/internal/tracestore"
	"figret/internal/traffic"
	"figret/internal/wire"
)

// startServer wires a registry + server around one topology and returns
// an HTTP client against it.
func startServer(t *testing.T, topo string, ps *te.PathSet, opt ControllerOptions) (*Client, *Server, *Registry) {
	t.Helper()
	reg := NewRegistry()
	if err := reg.AddTopology(topo, ps); err != nil {
		t.Fatal(err)
	}
	srv := NewServer(reg)
	if _, err := srv.Add(topo, opt); err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		hs.Close()
		srv.Close()
	})
	return NewClient(hs.URL), srv, reg
}

// The three transports a snapshot can be ingested over.
var transports = []string{transportJSON, transportBinHTTP, transportWire}

// postOver returns the synchronous-ingest function of one transport
// against client's server, bound to topo — what Replay is handed. The
// wire stream is closed with the test.
func postOver(t *testing.T, transport string, client *Client, topo string, ps *te.PathSet) func([]float64) (*RoutingResponse, error) {
	t.Helper()
	if transport == transportWire {
		bin, err := DialBin(client.BaseURL, topo, ps, BinClientOptions{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { bin.Close() })
		return bin.PostSnapshot
	}
	c := &Client{BaseURL: client.BaseURL, HTTP: client.HTTP, Binary: transport == transportBinHTTP}
	return func(demand []float64) (*RoutingResponse, error) { return c.PostSnapshot(topo, demand) }
}

// TestClosedLoopReplayMatchesOffline is the acceptance check of the
// serving subsystem: a WAN trace replayed through the HTTP API must
// yield, snapshot for snapshot, routing configs bitwise identical to
// offline Predictor inference on the same windows — and the closed-loop
// (delayed-installation) MLU series must equal an offline control loop
// over the same decisions.
func TestClosedLoopReplayMatchesOffline(t *testing.T) {
	const h = 4
	g := graph.GEANT()
	ps, err := te.NewPathSet(g, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := traffic.WAN(g.NumVertices(), 120, 7)
	if err != nil {
		t.Fatal(err)
	}
	train, test := tr.Split(0.75)
	m := figret.New(ps, figret.Config{H: h, Gamma: 1, Hidden: []int{64, 64}, Epochs: 2, Seed: 7, BatchSize: 16})
	if _, err := m.Train(train); err != nil {
		t.Fatal(err)
	}

	client, _, _ := startServer(t, "geant", ps, ControllerOptions{HistoryCap: 64})

	// Install the offline-trained model through the upload path.
	data, err := m.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	ck, err := client.UploadCheckpoint("geant", data)
	if err != nil {
		t.Fatal(err)
	}
	if ck.Version != 1 {
		t.Fatalf("uploaded version = %d", ck.Version)
	}

	const delay = 2
	res, err := Replay(postOver(t, transportJSON, client, "geant", ps), ps, test, ReplayOptions{To: 30, Delay: delay})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Decisions) != 30 {
		t.Fatalf("replayed %d decisions, want 30", len(res.Decisions))
	}

	// (1) Bitwise equality with offline inference on the same windows.
	for i, dec := range res.Decisions {
		if i < h-1 {
			if !dec.Warming {
				t.Fatalf("t=%d: decision before warmup", i)
			}
			continue
		}
		if dec.Warming {
			t.Fatalf("t=%d: still warming", i)
		}
		want, err := m.Predict(test.Window(i+1, h))
		if err != nil {
			t.Fatal(err)
		}
		if err := checkDecision(ps, dec.Ratios, nil, want.R); err != nil {
			t.Fatalf("t=%d: %v", i, err)
		}
	}
	if len(res.Versions) != 1 || res.Versions[0] != 1 {
		t.Fatalf("served versions %v, want [1]", res.Versions)
	}

	// (2) The closed loop equals an offline delayed-installation loop over
	// the same decisions.
	installed := te.UniformConfig(ps)
	var pending []*te.Config
	for i := 0; i < 30; i++ {
		if len(pending) > delay {
			installed = pending[0]
			pending = pending[1:]
		}
		sim, err := netsim.Simulate(installed, test.At(i))
		if err != nil {
			t.Fatal(err)
		}
		if got := res.PerInterval[i].MLU; got != sim.MLU {
			t.Fatalf("interval %d: closed-loop MLU %v, offline loop %v", i, got, sim.MLU)
		}
		if i >= h-1 {
			cfg, err := m.Predict(test.Window(i+1, h))
			if err != nil {
				t.Fatal(err)
			}
			pending = append(pending, cfg)
		}
	}
	if res.MeanMLU <= 0 || res.PeakMLU < res.MeanMLU {
		t.Fatalf("degenerate loop summary: %+v", res)
	}
}

// TestHotSwapMidStream drives the drift-triggered retrain lifecycle
// end-to-end under load: a hair-trigger detector fires mid-stream, the
// background retrainer shadow-evaluates against the shared oracle and
// swaps a new checkpoint in, and every request before, during and after
// the swap is answered with a valid configuration of the version it
// reports (no drops, no misrouting). Run it with -race: the swap is
// exactly the concurrency hazard the registry's atomic pointer protects.
func TestHotSwapMidStream(t *testing.T) {
	ps, tr, m := fixture(t, 200, 11)
	oracle := eval.NewOracle(ps, baselines.AutoSolve(ps), nil)
	client, srv, reg := startServer(t, "pod", ps, ControllerOptions{
		HistoryCap:  32,
		DriftOracle: oracle,
		policy:      hairTrigger,
	})
	if _, err := reg.Install("pod", m, "bootstrap"); err != nil {
		t.Fatal(err)
	}

	// Concurrent readers: routing must stay valid through the swap.
	stopReads := make(chan struct{})
	var readers sync.WaitGroup
	readErr := make(chan error, 1)
	for w := 0; w < 2; w++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stopReads:
					return
				default:
				}
				rr, err := client.Routing("pod")
				if err != nil {
					select {
					case readErr <- err:
					default:
					}
					return
				}
				if err := checkDecision(ps, rr.Ratios, nil, nil); err != nil {
					select {
					case readErr <- err:
					default:
					}
					return
				}
			}
		}()
	}

	var log []served
	deadline := time.Now().Add(60 * time.Second)
	swapped := false
	for i := 0; !swapped; i++ {
		if time.Now().After(deadline) {
			t.Fatal("no hot swap within deadline")
		}
		d := tr.At(i % tr.Len())
		rr, err := client.PostSnapshot("pod", d)
		if err != nil {
			t.Fatalf("request %d dropped: %v", i, err)
		}
		if rr.Warming {
			if i >= 4 {
				t.Fatalf("request %d: warming after warmup", i)
			}
			continue
		}
		log = append(log, served{snapshot: rr.Snapshot, version: rr.Version, ratios: append([]float64(nil), rr.Ratios...)})
		if rr.Version > 1 {
			swapped = true
		}
	}
	close(stopReads)
	readers.Wait()
	select {
	case err := <-readErr:
		t.Fatalf("concurrent routing read failed: %v", err)
	default:
	}

	auditServed(t, reg, ps, tr, log)

	// The swap is visible in the registry and the metrics.
	if v := reg.Active("pod").Version; v < 2 {
		t.Fatalf("active version %d after swap", v)
	}
	if got := srv.Controller("pod").Metrics(); got.Retrains == 0 {
		t.Fatalf("metrics recorded no retrain: %+v", got)
	}
	// The oracle actually backed the shadow evaluation.
	if hits, misses := oracle.Stats(); hits+misses == 0 {
		t.Fatal("shadow evaluation never consulted the oracle")
	}
}

// served is one decision a drift test received.
type served struct {
	snapshot int64
	version  int
	ratios   []float64
}

// auditServed is the post-hoc misrouting audit: every decision must be
// exactly what the checkpoint version it reports computes on the window
// it saw. The served demand stream cycled tr, so it is rebuilt to recover
// the windows.
func auditServed(t *testing.T, reg *Registry, ps *te.PathSet, tr *traffic.Trace, log []served) {
	t.Helper()
	replayed := traffic.NewTrace(ps.Pairs.N())
	for i := int64(0); i <= log[len(log)-1].snapshot; i++ {
		replayed.Append(tr.At(int(i) % tr.Len()))
	}
	for _, s := range log {
		ck := reg.Get("pod", s.version)
		if ck == nil {
			t.Fatalf("snapshot %d served retired version %d", s.snapshot, s.version)
		}
		h := ck.Model.Cfg.H
		want, err := ck.Model.Predict(replayed.Window(int(s.snapshot)+1, h))
		if err != nil {
			t.Fatal(err)
		}
		if err := checkDecision(ps, s.ratios, nil, want.R); err != nil {
			t.Fatalf("snapshot %d (version %d) misrouted: %v", s.snapshot, s.version, err)
		}
	}
}

// TestRetrainRejectedKeepsIncumbent drives a retrain whose candidate
// cannot pass shadow evaluation (tolerance −1 accepts only a candidate
// scoring ≤ 0) and pins what a rejection leaves behind: the incumbent
// stays active, no version is added, every decision before, during and
// after the retrain is the incumbent's offline inference bit for bit,
// and the rejection is counted. The detector then recalibrates at the
// level being served, so the next retrain waits for a fresh calibration
// window plus the patience run — it does not launch on the next snapshot.
func TestRetrainRejectedKeepsIncumbent(t *testing.T) {
	ps, tr, m := fixture(t, 200, 11)
	oracle := eval.NewOracle(ps, baselines.AutoSolve(ps), nil)
	pol := hairTrigger
	pol.tolerance = -1
	page := obs.NewRegistry()
	client, srv, reg := startServer(t, "pod", ps, ControllerOptions{
		HistoryCap:  32,
		DriftOracle: oracle,
		Telemetry:   NewTelemetry(page),
		policy:      pol,
	})
	if _, err := reg.Install("pod", m, "bootstrap"); err != nil {
		t.Fatal(err)
	}
	ctl := srv.Controller("pod")
	var log []served
	next := 0
	post := func() {
		t.Helper()
		rr, err := client.PostSnapshot("pod", tr.At(next%tr.Len()))
		if err != nil {
			t.Fatalf("request %d dropped: %v", next, err)
		}
		next++
		if rr.Warming {
			return
		}
		if rr.Version != 1 {
			t.Fatalf("snapshot %d served version %d; the incumbent is 1", rr.Snapshot, rr.Version)
		}
		log = append(log, served{snapshot: rr.Snapshot, version: rr.Version, ratios: append([]float64(nil), rr.Ratios...)})
	}

	// Stream until the first retrain has been rejected.
	start := time.Now()
	for ctl.Metrics().RetrainsRejected == 0 {
		if time.Since(start) > 60*time.Second {
			t.Fatal("no rejected retrain within deadline")
		}
		post()
	}
	firstRetrain := time.Since(start)
	// The retrain goroutine hands the controller its completion right
	// after counting the rejection; with no snapshot queued, the
	// controller takes it at once and drops the detector. The snapshot
	// in flight when the count moved may have been its replacement's
	// first observation, so the next launch is one or two posts short of
	// a full calibration window plus the patience run.
	time.Sleep(100 * time.Millisecond)
	for i := 0; i < pol.calibration+pol.patience-2; i++ {
		post()
	}
	time.Sleep(2*firstRetrain + 200*time.Millisecond)
	if got := ctl.Metrics().RetrainsRejected; got != 1 {
		t.Fatalf("%d rejected retrains before the recalibrated detector could fire; want 1", got)
	}
	post()
	post()
	for deadline := time.Now().Add(60 * time.Second); ctl.Metrics().RetrainsRejected < 2; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("the recalibrated detector never fired again: %+v", ctl.Metrics())
		}
	}
	for i := 0; i < 3; i++ {
		post()
	}

	auditServed(t, reg, ps, tr, log)
	if v := reg.Active("pod").Version; v != 1 {
		t.Fatalf("active version %d after rejected retrains", v)
	}
	if ck := reg.Get("pod", 2); ck != nil {
		t.Fatalf("a rejected candidate was installed as version 2 (source %q)", ck.Source)
	}
	got := ctl.Metrics()
	if got.Retrains != 0 || got.RetrainsFailed != 0 {
		t.Fatalf("rejected retrains counted as accepted or failed: %+v", got)
	}
	var sb strings.Builder
	if err := page.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if n := promValue(t, sb.String(), `figret_serve_retrains_total{outcome="rejected",topology="pod"}`); n < 1 {
		t.Fatalf("figret_serve_retrains_total{outcome=\"rejected\"} = %d, want >= 1", n)
	}
}

func TestServerEndpoints(t *testing.T) {
	ps, tr, m := fixture(t, 60, 21)
	client, srv, reg := startServer(t, "pod", ps, ControllerOptions{})

	// Both listings are sorted, whatever order the topologies arrived in.
	for _, name := range []string{"zeta", "alpha"} {
		if err := reg.AddTopology(name, ps); err != nil {
			t.Fatal(err)
		}
		if _, err := srv.Add(name, ControllerOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	want := []string{"alpha", "pod", "zeta"}
	topos, err := client.Topologies()
	if err != nil || !reflect.DeepEqual(topos, want) {
		t.Fatalf("GET /v1/topologies = %v, %v; want %v", topos, err, want)
	}
	if got := reg.Topologies(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Registry.Topologies() = %v, want %v", got, want)
	}

	// Routing before any checkpoint: the bootstrap uniform fallback.
	rr, err := client.Routing("pod")
	if err != nil {
		t.Fatal(err)
	}
	if rr.Version != 0 || rr.Seq != 0 {
		t.Fatalf("bootstrap decision = %+v", rr)
	}
	if err := checkDecision(ps, rr.Ratios, nil, te.UniformConfig(ps).R); err != nil {
		t.Fatalf("bootstrap decision: %v", err)
	}

	// Upload two checkpoints, then roll back.
	data1, err := m.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := client.UploadCheckpoint("pod", data1); err != nil {
		t.Fatal(err)
	}
	m2 := figret.New(ps, figret.Config{H: 4, Epochs: 1, Seed: 99})
	if _, err := m2.Train(tr); err != nil {
		t.Fatal(err)
	}
	data2, err := m2.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	ck2, err := client.UploadCheckpoint("pod", data2)
	if err != nil {
		t.Fatal(err)
	}
	if ck2.Version != 2 {
		t.Fatalf("second upload version = %d", ck2.Version)
	}
	cks, err := client.Checkpoints("pod")
	if err != nil || len(cks) != 2 {
		t.Fatalf("checkpoints = %+v, %v", cks, err)
	}
	back, err := client.Rollback("pod")
	if err != nil {
		t.Fatal(err)
	}
	if back.Version != 1 {
		t.Fatalf("rollback to version %d, want 1", back.Version)
	}

	// Async ingest path + metrics.
	for i := 0; i < 6; i++ {
		if err := client.postSnapshotAsync("pod", tr.At(i)); err != nil {
			t.Fatal(err)
		}
	}
	// A sync snapshot serializes behind the async burst.
	rr, err = client.PostSnapshot("pod", tr.At(6))
	if err != nil {
		t.Fatal(err)
	}
	if rr.Warming || rr.Version != 1 {
		t.Fatalf("post-burst decision = %+v", rr)
	}
	ms, err := client.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	if ms["pod"].Snapshots != 7 || ms["pod"].Decisions == 0 {
		t.Fatalf("metrics = %+v", ms["pod"])
	}
	if ms["pod"].P50Micros <= 0 || ms["pod"].P99Micros < ms["pod"].P50Micros {
		t.Fatalf("latency quantiles = %+v", ms["pod"])
	}

	// Failure report over HTTP.
	e := ps.G.Edge(0)
	rr, err = client.ReportFailures("pod", [][2]int{{e.From, e.To}})
	if err != nil {
		t.Fatal(err)
	}
	if !rr.Rerouted {
		t.Fatalf("failure report not rerouted: %+v", rr)
	}
	if _, err = client.ReportFailures("pod", nil); err != nil {
		t.Fatal(err)
	}

	// Unknown topology and malformed demand errors.
	if _, err := client.Routing("nope"); err == nil {
		t.Fatal("unknown topology served")
	}
	if _, err := client.PostSnapshot("pod", []float64{1}); err == nil {
		t.Fatal("short demand vector accepted")
	}
}

// TestIngestRejectsHostileDemand: a negative or non-finite demand entry is
// the caller's fault on every transport (the binary ones carry raw float
// bits, so they can deliver all four; JSON can spell the negative one,
// and ±1e400, which encoding/json refuses with its own text). Each answers
// 400 and moves nothing — not the published decision, not the ingest
// counter, not the durable spool — and the same connection serves the
// next clean snapshot bitwise as offline inference does. A JSON body
// pretty-printed, key-reordered or with "Demand" cased, spelling numbers
// as 1.5E+02 and -0E+00, decides what the canonical body decides.
func TestIngestRejectsHostileDemand(t *testing.T) {
	ps, tr, m := fixture(t, 40, 5)
	dir := t.TempDir()
	client, srv, reg := startServer(t, "pod", ps, ControllerOptions{HistoryCap: 16, Spool: dir})
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
	ctl := srv.Controller("pod")
	spoolLen := func() int64 {
		t.Helper()
		r, err := tracestore.Open(filepath.Join(dir, "pod.fgt"))
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		return r.Len()
	}
	for _, transport := range transports {
		post := postOver(t, transport, client, "pod", ps)
		for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), -1e9} {
			if transport == transportJSON && bad != -1e9 {
				continue
			}
			decided, snapshots, spooled := ctl.Decision(), ctl.Metrics().Snapshots, spoolLen()
			demand := append([]float64(nil), tr.At(next)...)
			demand[3] = bad
			if _, err := post(demand); err == nil || !strings.Contains(err.Error(), "status 400") {
				t.Fatalf("%s: demand entry %v answered %v, want a 400", transport, bad, err)
			}
			if ctl.Decision() != decided || ctl.Metrics().Snapshots != snapshots || spoolLen() != spooled {
				t.Fatalf("%s: rejected entry %v moved state: decision seq %d -> %d, snapshots %d -> %d, spool %d -> %d",
					transport, bad, decided.Seq, ctl.Decision().Seq, snapshots, ctl.Metrics().Snapshots, spooled, spoolLen())
			}
		}
		rr, err := post(tr.At(next))
		if err != nil {
			t.Fatalf("%s: clean snapshot after the rejected ones: %v", transport, err)
		}
		next++
		want, err := m.Predict(tr.Window(next, h))
		if err != nil {
			t.Fatal(err)
		}
		if rr.Snapshot != int64(next-1) || !slices.Equal(rr.Ratios, want.R) {
			t.Fatalf("%s: decision for snapshot %d after the rejected ones differs from offline inference", transport, rr.Snapshot)
		}
	}

	// Raw JSON bodies, which the one-pass decoder declines and
	// encoding/json answers for.
	postRaw := func(body string) (int, []byte) {
		t.Helper()
		resp, err := http.Post(client.BaseURL+"/v1/topologies/pod/snapshots", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, b
	}
	spelled := func(d []float64, format byte) []string {
		s := make([]string, len(d))
		for i, v := range d {
			s[i] = strconv.FormatFloat(v, format, -1, 64)
		}
		return s
	}
	// A number past float64's range: 400 with encoding/json's own text, and
	// nothing moves.
	for _, huge := range []string{"1e400", "-1e400"} {
		s := spelled(tr.At(next), 'g')
		s[3] = huge
		body := `{"demand":[` + strings.Join(s, ",") + `]}`
		want := json.Unmarshal([]byte(body), new(SnapshotRequest))
		decided, snapshots, spooled := ctl.Decision(), ctl.Metrics().Snapshots, spoolLen()
		code, resp := postRaw(body)
		var e struct {
			Error string `json:"error"`
		}
		if want == nil || code != http.StatusBadRequest || json.Unmarshal(resp, &e) != nil || e.Error != want.Error() {
			t.Fatalf("demand entry %s answered %d %s, want 400 with %v", huge, code, resp, want)
		}
		if ctl.Decision() != decided || ctl.Metrics().Snapshots != snapshots || spoolLen() != spooled {
			t.Fatalf("rejected entry %s moved state", huge)
		}
	}
	// The same demand spelled any way JSON allows decides the same bits. H
	// canonical posts fill the window with it, so every later post of it
	// decides on an identical window.
	d := append([]float64(nil), tr.At(next)...)
	d[0] = math.Copysign(0, -1)
	canonical, err := json.Marshal(SnapshotRequest{Demand: d})
	if err != nil {
		t.Fatal(err)
	}
	decide := func(body string) RoutingResponse {
		t.Helper()
		code, resp := postRaw(body)
		var rr RoutingResponse
		if code != http.StatusOK || json.Unmarshal(resp, &rr) != nil || rr.Warming {
			t.Fatalf("%s answered %d %s", body, code, resp)
		}
		return rr
	}
	var ref RoutingResponse
	for i := 0; i < h; i++ {
		ref = decide(string(canonical))
	}
	upper := strings.Join(spelled(d, 'E'), ",") // -0E+00, 1.5E+02
	for _, body := range []string{
		"{\n  \"demand\": [\n    " + strings.Join(spelled(d, 'E'), ",\n    ") + "\n  ]\n}\n",
		`{"async":false,"demand":[` + upper + `]}`,
		`{"Demand":[` + upper + `]}`,
	} {
		if rr := decide(body); rr.Version != ref.Version || !sameBits(rr.Ratios, ref.Ratios) {
			t.Fatalf("%s decided other bits than the canonical body %s", body, canonical)
		}
	}
}

// TestUploadRejectsCheckpointThatCannotPredict: a checkpoint whose window
// (cfg.H × pairs) disagrees with its network's input width, or whose layer
// sizes are malformed, used to be activated by the upload and to panic the
// controller goroutine on the next snapshot. The upload must answer 4xx,
// the active version must stay, and the next decision must still be served
// by it.
func TestUploadRejectsCheckpointThatCannotPredict(t *testing.T) {
	ps, tr, m := fixture(t, 40, 5)
	client, _, reg := startServer(t, "pod", ps, ControllerOptions{})
	good, err := m.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := client.UploadCheckpoint("pod", good); err != nil {
		t.Fatal(err)
	}
	h := m.Cfg.H
	for i := 0; i < h; i++ {
		if _, err := client.PostSnapshot("pod", tr.At(i)); err != nil {
			t.Fatal(err)
		}
	}

	var fields map[string]json.RawMessage
	if err := json.Unmarshal(good, &fields); err != nil {
		t.Fatal(err)
	}
	withField := func(key, value string) []byte {
		t.Helper()
		edited := map[string]json.RawMessage{}
		for k, v := range fields {
			edited[k] = v
		}
		edited[key] = json.RawMessage(value)
		data, err := json.Marshal(edited)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	cfg := m.Cfg
	cfg.H = h - 1
	shortWindow, err := json.Marshal(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for name, body := range map[string][]byte{
		"window shorter than the network input": withField("cfg", string(shortWindow)),
		"negative layer sizes":                  withField("net", `{"sizes":[-1,-1],"acts":[1],"w":[[1]],"b":[[]]}`),
	} {
		resp, err := http.Post(client.BaseURL+"/v1/topologies/pod/checkpoints", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode < 400 || resp.StatusCode >= 500 {
			t.Errorf("%s: upload answered %d, want 4xx", name, resp.StatusCode)
		}
		if v := reg.Active("pod").Version; v != 1 {
			t.Fatalf("%s: active checkpoint is version %d, want 1", name, v)
		}
		rr, err := client.PostSnapshot("pod", tr.At(h))
		if err != nil {
			t.Fatalf("%s: next snapshot: %v", name, err)
		}
		if rr.Warming || rr.Version != 1 {
			t.Fatalf("%s: next decision = warming %v version %d, want a version-1 decision", name, rr.Warming, rr.Version)
		}
	}
}

// TestUploadBodyReadFailures: on every route that reads a body, only a
// body past the size bound is "too large". A client that hangs up
// mid-body is a 400, and neither failure touches the registry.
func TestUploadBodyReadFailures(t *testing.T) {
	ps, _, _ := fixture(t, 40, 1)
	client, srv, reg := startServer(t, "pod", ps, ControllerOptions{})
	for _, route := range [][2]string{
		{"checkpoints", "application/json"},
		{"snapshots", "application/json"},
		{"snapshots", wire.MediaType},
		{"failures", "application/json"},
	} {
		path, ctype := "/v1/topologies/pod/"+route[0], route[1]

		// A body that trips a byte bound (here an inner, 8-byte one: filling
		// maxCheckpointBytes would take half a gigabyte) surfaces as the
		// *http.MaxBytesError the handler's own reader produces.
		req := httptest.NewRequest(http.MethodPost, path, nil)
		req.Header.Set("Content-Type", ctype)
		req.Body = http.MaxBytesReader(nil, io.NopCloser(strings.NewReader(`{"cfg":{},"net":null}`)), 8)
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, req)
		if rec.Code != http.StatusRequestEntityTooLarge {
			t.Errorf("%s (%s): oversized body: status %d, want 413", path, ctype, rec.Code)
		}

		// Promise 1000 bytes, send 10, half-close: the server's read fails
		// with an unexpected EOF and the answer is still readable.
		conn, err := net.Dial("tcp", strings.TrimPrefix(client.BaseURL, "http://"))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := io.WriteString(conn, "POST "+path+" HTTP/1.1\r\nHost: x\r\nContent-Type: "+ctype+"\r\nContent-Length: 1000\r\n\r\n{\"cfg\":{}"); err != nil {
			t.Fatal(err)
		}
		if err := conn.(*net.TCPConn).CloseWrite(); err != nil {
			t.Fatal(err)
		}
		resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		conn.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s (%s): client hung up mid-body: status %d, want 400", path, ctype, resp.StatusCode)
		}
	}
	if reg.Active("pod") != nil || len(reg.List("pod")) != 0 {
		t.Fatal("a failed body read installed a checkpoint")
	}
}

// TestReportFailuresRejectsUnknownLink: a failure report naming a pair that
// is not a link of the topology used to be answered as rerouted while
// nothing moved, leaving traffic on the link the operator meant to fail.
// It is rejected whole, naming the first offending entry, over the
// Controller and as a 400 over JSON; the failure set, the published
// decision and the counters stay as they were.
func TestReportFailuresRejectsUnknownLink(t *testing.T) {
	g, err := graph.RingWithChords(6, 6, 10, 1) // a bare ring: most pairs are not links
	if err != nil {
		t.Fatal(err)
	}
	ps, err := te.NewPathSet(g, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := traffic.WAN(g.NumVertices(), 12, 3)
	if err != nil {
		t.Fatal(err)
	}
	const h = 2
	m := figret.New(ps, figret.Config{H: h, Hidden: []int{8}, Seed: 1})
	client, srv, reg := startServer(t, "ring", ps, ControllerOptions{})
	if _, err := reg.Install("ring", m, "bootstrap"); err != nil {
		t.Fatal(err)
	}
	ctl := srv.Controller("ring")
	for i := 0; i < h; i++ {
		if _, err := ctl.Ingest(tr.At(i), true); err != nil {
			t.Fatal(err)
		}
	}
	e := g.Edge(0)
	valid := [2]int{e.From, e.To}
	if err := ctl.ReportFailures([][2]int{valid}); err != nil {
		t.Fatal(err)
	}
	stranger := [2]int{-1, -1}
	for a := 0; a < g.NumVertices() && stranger[0] < 0; a++ {
		for b := a + 1; b < g.NumVertices(); b++ {
			_, fwd := g.EdgeID(a, b)
			_, rev := g.EdgeID(b, a)
			if !fwd && !rev {
				stranger = [2]int{a, b}
				break
			}
		}
	}
	if stranger[0] < 0 {
		t.Fatal("the ring has no non-adjacent pair")
	}
	n := g.NumVertices()
	for _, c := range []struct {
		name      string
		links     [][2]int
		offending [2]int
	}{
		{"vertex past the topology", [][2]int{{0, n}}, [2]int{0, n}},
		{"negative vertex", [][2]int{{-1, 0}}, [2]int{-1, 0}},
		{"non-adjacent pair", [][2]int{stranger}, stranger},
		{"valid link then an unknown one", [][2]int{valid, stranger}, stranger},
	} {
		want := strconv.Itoa(c.offending[0]) + " " + strconv.Itoa(c.offending[1])
		decided, before := ctl.Decision(), ctl.Metrics()
		err := ctl.ReportFailures(c.links)
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("%s: Controller answered %v, want an error naming [%s]", c.name, err, want)
		}
		_, err = client.ReportFailures("ring", c.links)
		if err == nil || !strings.Contains(err.Error(), "status 400") || !strings.Contains(err.Error(), want) {
			t.Fatalf("%s: JSON client answered %v, want a 400 naming [%s]", c.name, err, want)
		}
		after := ctl.Metrics()
		if ctl.Decision() != decided || after.Snapshots != before.Snapshots || after.Decisions != before.Decisions {
			t.Fatalf("%s: rejected report moved state: seq %d -> %d, decisions %d -> %d",
				c.name, decided.Seq, ctl.Decision().Seq, before.Decisions, after.Decisions)
		}
	}
	// The next decision is still rerouted around the valid link alone.
	res, err := ctl.Ingest(tr.At(h), true)
	if err != nil {
		t.Fatal(err)
	}
	base, err := m.Predict(tr.Window(h+1, h))
	if err != nil {
		t.Fatal(err)
	}
	want := te.Reroute(base, te.NewFailureSet(g, [][2]int{valid}))
	if !res.Decision.Rerouted || !sameBits(res.Decision.Config.R, want.R) {
		t.Fatal("decision after the rejected reports is not the reroute around the one valid link")
	}
}

// postSnapshotAsync ingests one demand snapshot without waiting for the
// decision.
func (c *Client) postSnapshotAsync(topo string, demand []float64) error {
	if c.Binary {
		_, err := c.doWire(http.MethodPost, "/v1/topologies/"+topo+"/snapshots", topo,
			func(e *wire.Encoder) []byte { return e.Snapshot(&wire.Snapshot{Demand: demand, Async: true}) })
		return err
	}
	return c.do(http.MethodPost, "/v1/topologies/"+topo+"/snapshots", SnapshotRequest{Demand: demand, Async: true}, nil)
}
