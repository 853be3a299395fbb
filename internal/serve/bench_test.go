package serve

import (
	"net/http/httptest"
	"testing"
	"time"

	"figret/internal/figret"
	"figret/internal/graph"
	"figret/internal/obs"
	"figret/internal/te"
	"figret/internal/traffic"
)

// BenchmarkServeDecision measures the serving decision path on the PoD
// fixture: "controller" is the in-process cost of one synchronous ingest
// (window update + pooled inference + publish) — the per-snapshot budget
// of the control loop — and "http" adds the full API round trip the
// closed-loop harness pays.
func BenchmarkServeDecision(b *testing.B) {
	ps, tr, m := fixture(b, 60, 1)

	b.Run("controller", func(b *testing.B) {
		reg := NewRegistry()
		if err := reg.AddTopology("pod", ps); err != nil {
			b.Fatal(err)
		}
		if _, err := reg.Install("pod", m, "bootstrap"); err != nil {
			b.Fatal(err)
		}
		c, err := NewController("pod", reg, ControllerOptions{HistoryCap: 16})
		if err != nil {
			b.Fatal(err)
		}
		defer c.Close()
		for i := 0; i < 8; i++ {
			if _, err := c.Ingest(tr.At(i), true); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res, err := c.Ingest(tr.At(i%tr.Len()), true)
			if err != nil {
				b.Fatal(err)
			}
			if res.Decision == nil {
				b.Fatal("warming mid-benchmark")
			}
		}
	})

	b.Run("http", func(b *testing.B) {
		reg := NewRegistry()
		if err := reg.AddTopology("pod", ps); err != nil {
			b.Fatal(err)
		}
		if _, err := reg.Install("pod", m, "bootstrap"); err != nil {
			b.Fatal(err)
		}
		srv := NewServer(reg)
		if _, err := srv.Add("pod", ControllerOptions{HistoryCap: 16}); err != nil {
			b.Fatal(err)
		}
		hs := httptest.NewServer(srv.Handler())
		defer func() {
			hs.Close()
			srv.Close()
		}()
		client := NewClient(hs.URL)
		for i := 0; i < 8; i++ {
			if _, err := client.PostSnapshot("pod", tr.At(i)); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			rr, err := client.PostSnapshot("pod", tr.At(i%tr.Len()))
			if err != nil {
				b.Fatal(err)
			}
			if rr.Warming {
				b.Fatal("warming mid-benchmark")
			}
		}
	})
}

// BenchmarkRegistryInstall measures one in-process install — what boot,
// every accepted drift retrain and the scenario runner's served cells pay
// — of the paper's network on GEANT (H 12, five hidden layers of 128,
// ~1M parameters). Its B/op is the gated number: a snapshot allocates
// the weights once more plus their gradient buffers (~2 × 8 B per
// parameter), whereas a serialise-and-reparse install allocated the JSON
// text, its growth buffers, a retained copy and the parsed weights on
// top — an order of magnitude that trips the B/op band should a
// serialisation creep back onto this path.
func BenchmarkRegistryInstall(b *testing.B) {
	ps, err := te.NewPathSet(graph.GEANT(), 3, nil)
	if err != nil {
		b.Fatal(err)
	}
	m := figret.New(ps, figret.Config{Seed: 7})
	reg := NewRegistry()
	if err := reg.AddTopology("geant", ps); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := reg.Install("geant", m, "bench"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkServeThroughput measures the serving data plane's sustained
// decision throughput on a GEANT WAN replay workload, one sub-benchmark
// per transport:
//
//   - json: the baseline — sequential JSON round trips over HTTP.
//   - binhttp: the content-negotiated binary codec on the same HTTP
//     request/response shape (codec win without pipelining).
//   - wire: the upgraded persistent stream — pipelined, delta-encoded
//     decisions under the adaptive window (the full data plane).
//
// Each reports decisions/s; cmd/benchjson carries the metric into
// BENCH_scenarios.json. The model is deliberately small so transport
// cost, not inference, dominates — the quantity under test.
//
// The "-telemetry" variants run the identical workload with the full
// obs instrument set attached (counters, histograms, stage tracer),
// so the observability overhead is a recorded delta per commit — the
// tentpole's <=5% budget is checkable from the artifact.
func BenchmarkServeThroughput(b *testing.B) {
	const h = 4
	g := graph.GEANT()
	ps, err := te.NewPathSet(g, 3, nil)
	if err != nil {
		b.Fatal(err)
	}
	tr, err := traffic.WAN(g.NumVertices(), 60, 7)
	if err != nil {
		b.Fatal(err)
	}
	m := figret.New(ps, figret.Config{H: h, Gamma: 1, Hidden: []int{16}, Epochs: 1, Seed: 7, BatchSize: 16})
	if _, err := m.Train(tr); err != nil {
		b.Fatal(err)
	}

	// startSrv builds a fresh server (optionally instrumented) and warms
	// it past the model's history window so every measured request yields
	// a real decision.
	startSrv := func(b *testing.B, tel *Telemetry) *httptest.Server {
		b.Helper()
		reg := NewRegistry()
		if err := reg.AddTopology("geant", ps); err != nil {
			b.Fatal(err)
		}
		if _, err := reg.Install("geant", m, "bench"); err != nil {
			b.Fatal(err)
		}
		srv := NewServer(reg)
		srv.UseTelemetry(tel)
		if _, err := srv.Add("geant", ControllerOptions{HistoryCap: 16}); err != nil {
			b.Fatal(err)
		}
		hs := httptest.NewServer(srv.Handler())
		b.Cleanup(func() {
			hs.Close()
			srv.Close()
		})
		warmup := NewClient(hs.URL)
		for i := 0; i < 2*h; i++ {
			if _, err := warmup.PostSnapshot("geant", tr.At(i)); err != nil {
				b.Fatal(err)
			}
		}
		return hs
	}

	runHTTP := func(b *testing.B, client *Client) {
		b.ReportAllocs()
		b.ResetTimer()
		start := time.Now()
		for i := 0; i < b.N; i++ {
			rr, err := client.PostSnapshot("geant", tr.At(i%tr.Len()))
			if err != nil {
				b.Fatal(err)
			}
			if rr.Warming {
				b.Fatal("warming mid-benchmark")
			}
		}
		b.ReportMetric(float64(b.N)/time.Since(start).Seconds(), "decisions/s")
	}
	runWire := func(b *testing.B, hs *httptest.Server, bin BinClientOptions) {
		client, err := DialBin(hs.URL, "geant", ps, bin)
		if err != nil {
			b.Fatal(err)
		}
		defer client.Close()
		b.ReportAllocs()
		b.ResetTimer()
		stats, err := client.Stream(b.N, func(i int) []float64 { return tr.At(i % tr.Len()) }, nil)
		if err != nil {
			b.Fatal(err)
		}
		if stats.Decisions != b.N {
			b.Fatalf("streamed %d decisions, want %d", stats.Decisions, b.N)
		}
		b.ReportMetric(float64(stats.Decisions)/stats.Elapsed.Seconds(), "decisions/s")
	}

	b.Run("json", func(b *testing.B) { runHTTP(b, NewClient(startSrv(b, nil).URL)) })
	b.Run("json-telemetry", func(b *testing.B) {
		tel := NewTelemetry(obs.NewRegistry())
		runHTTP(b, NewClient(startSrv(b, tel).URL))
	})
	b.Run("binhttp", func(b *testing.B) {
		c := NewClient(startSrv(b, nil).URL)
		c.Binary = true
		runHTTP(b, c)
	})
	b.Run("wire", func(b *testing.B) { runWire(b, startSrv(b, nil), BinClientOptions{}) })
	b.Run("wire-telemetry", func(b *testing.B) {
		tel := NewTelemetry(obs.NewRegistry())
		runWire(b, startSrv(b, tel), BinClientOptions{Telemetry: tel.Stream("geant")})
	})
}
