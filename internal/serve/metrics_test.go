package serve

import (
	"bytes"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"testing"

	"figret/internal/experiments"
	"figret/internal/figret"
	"figret/internal/obs"
)

// promValue returns the value of one exact series line on a rendered
// Prometheus page.
func promValue(t *testing.T, page, series string) uint64 {
	t.Helper()
	for _, line := range strings.Split(page, "\n") {
		if rest, ok := strings.CutPrefix(line, series+" "); ok {
			v, err := strconv.ParseUint(rest, 10, 64)
			if err != nil {
				t.Fatalf("series %s: %v", series, err)
			}
			return v
		}
	}
	t.Fatalf("scrape missing %s\n%s", series, page)
	return 0
}

// TestMetricsOneSourceOfTruth replays one trace over JSON, binary HTTP
// and the wire stream against a single server, adds an async burst and a
// failure report, and requires every counter of GET /v1/metrics to equal
// the same topology's series on the Prometheus page: both endpoints
// render one instrument set.
func TestMetricsOneSourceOfTruth(t *testing.T) {
	ps, tr, m := fixture(t, 30, 9)
	data, err := m.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	page := obs.NewRegistry()
	client, _, _ := startServer(t, "pod", ps, ControllerOptions{HistoryCap: 64, Telemetry: NewTelemetry(page)})
	if _, err := client.UploadCheckpoint("pod", data); err != nil {
		t.Fatal(err)
	}
	for _, transport := range transports {
		if _, err := Replay(postOver(t, transport, client, "pod", ps), ps, tr, ReplayOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 6; i++ {
		if err := client.postSnapshotAsync("pod", tr.At(i)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := client.PostSnapshot("pod", tr.At(6)); err != nil {
		t.Fatal(err)
	}
	e := ps.G.Edge(0)
	if _, err := client.ReportFailures("pod", [][2]int{{e.From, e.To}}); err != nil {
		t.Fatal(err)
	}

	ms, err := client.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	got := ms["pod"]
	var sb strings.Builder
	if err := page.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		field  string
		json   uint64
		series string
	}{
		{"snapshots", got.Snapshots, `figret_serve_snapshots_total{topology="pod"}`},
		{"decisions", got.Decisions, `figret_serve_decisions_total{topology="pod"}`},
		{"decisions", got.Decisions, `figret_serve_decision_duration_seconds_count{topology="pod"}`},
		{"coalesced", got.Coalesced, `figret_serve_snapshots_coalesced_total{topology="pod"}`},
		{"retrains", got.Retrains, `figret_serve_retrains_total{outcome="accepted",topology="pod"}`},
		{"retrains_rejected", got.RetrainsRejected, `figret_serve_retrains_total{outcome="rejected",topology="pod"}`},
		{"retrains_failed", got.RetrainsFailed, `figret_serve_retrains_total{outcome="failed",topology="pod"}`},
	} {
		if want := promValue(t, sb.String(), c.series); c.json != want {
			t.Errorf("/v1/metrics %s = %d, %s = %d", c.field, c.json, c.series, want)
		}
	}
	if want := uint64(len(transports)*tr.Len() + 7); got.Snapshots != want {
		t.Errorf("snapshots = %d, want %d", got.Snapshots, want)
	}
	if got.P50Micros <= 0 || got.P99Micros < got.P50Micros {
		t.Errorf("latency quantiles p50=%v p99=%v malformed", got.P50Micros, got.P99Micros)
	}
}

// TestControllerReadyWithoutTelemetry pins what a nil Telemetry means: the
// controller still counts (on a private registry), so readiness flips on
// its first real decision — not on the bootstrap fallback, a checkpoint
// install or a warming ack.
func TestControllerReadyWithoutTelemetry(t *testing.T) {
	c, _, fx := startController(t, ControllerOptions{})
	h := fx.m.Cfg.H
	for s := 0; s < h; s++ {
		if c.Ready() {
			t.Fatalf("ready after %d snapshots, before any decision (H=%d)", s, h)
		}
		res, err := c.Ingest(fx.tr.At(s), true)
		if err != nil {
			t.Fatal(err)
		}
		if res.Warming != (s < h-1) {
			t.Fatalf("snapshot %d: warming = %v", s, res.Warming)
		}
	}
	if !c.Ready() {
		t.Fatal("not ready after the first real decision")
	}
	if got := c.Metrics(); got.Decisions != 1 || got.Snapshots != uint64(h) {
		t.Fatalf("metrics after first decision = %+v", got)
	}
}

// TestControllerMetricsConcurrentScrape scrapes Metrics from several
// goroutines while sync ingests land (run under -race): a scrape reads
// atomics only, never a torn or decreasing count, and the final counts
// are exact.
func TestControllerMetricsConcurrentScrape(t *testing.T) {
	c, _, fx := startController(t, ControllerOptions{})
	stop := make(chan struct{})
	var scrapers sync.WaitGroup
	for r := 0; r < 3; r++ {
		scrapers.Add(1)
		go func() {
			defer scrapers.Done()
			var last Metrics
			for {
				select {
				case <-stop:
					return
				default:
				}
				got := c.Metrics()
				if got.Decisions < last.Decisions || got.Snapshots < last.Snapshots {
					t.Errorf("counters went backwards: %+v after %+v", got, last)
					return
				}
				last = got
			}
		}()
	}
	const n = 400
	for i := 0; i < n; i++ {
		if _, err := c.Ingest(fx.tr.At(i%fx.tr.Len()), true); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	scrapers.Wait()
	got := c.Metrics()
	if want := uint64(n - (fx.m.Cfg.H - 1)); got.Snapshots != n || got.Decisions != want {
		t.Fatalf("snapshots/decisions = %d/%d, want %d/%d", got.Snapshots, got.Decisions, n, want)
	}
	// Quantiles are ordered only at rest: p50 and p99 are two passes over
	// a histogram that ingests keep filling, booked after the counters.
	if got.P50Micros <= 0 || got.P99Micros < got.P50Micros {
		t.Errorf("quantiles p50=%v p99=%v malformed", got.P50Micros, got.P99Micros)
	}
}

// TestUploadLargeCheckpoint uploads the checkpoint the daemon itself
// bootstraps for large-wan at fast scale — JSON weights well past the
// 64 MiB bound the other request bodies keep.
func TestUploadLargeCheckpoint(t *testing.T) {
	if testing.Short() {
		t.Skip("marshals and uploads a ~79 MB checkpoint")
	}
	env, err := experiments.NewEnv("large-wan", experiments.ScaleFast, experiments.EnvOptions{T: 20})
	if err != nil {
		t.Fatal(err)
	}
	data, err := figret.New(env.PS, figret.Config{H: 12, Seed: 1}).MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	if len(data) <= maxBodyBytes {
		t.Fatalf("large-wan checkpoint is %d bytes: no longer exercises the upload bound", len(data))
	}
	client, _, reg := startServer(t, "large-wan", env.PS, ControllerOptions{})
	resp, err := http.Post(client.BaseURL+"/v1/topologies/large-wan/checkpoints", "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("upload of %d-byte checkpoint: status %d, want 201", len(data), resp.StatusCode)
	}
	if ck := reg.Active("large-wan"); ck == nil || ck.Version != 1 {
		t.Fatalf("uploaded checkpoint not active: %+v", ck)
	}
}
