// Serving quickstart: run the online TE controller in-process, stream a
// WAN trace through its HTTP API, fail a link mid-stream, hot-swap a
// better checkpoint, and read the serving metrics — the full lifecycle
// of the online subsystem in one self-contained program.
//
//	go run ./examples/serving
package main

import (
	"fmt"
	"log"
	"net"
	"net/http"

	"figret/internal/figret"
	"figret/internal/graph"
	"figret/internal/serve"
	"figret/internal/te"
	"figret/internal/traffic"
)

func main() {
	// 1. Offline stack, unchanged: topology, paths, traffic, one briefly
	// trained bootstrap model and one properly trained replacement.
	// (NewPathSet precomputes on all CPUs; a restarting daemon can skip
	// the solve entirely by passing a te.PathStore via te.NewPathSetOpt —
	// the served CLI exposes that as -pathcache/-pathworkers.)
	g := graph.GEANT()
	ps, err := te.NewPathSet(g, 3, nil)
	if err != nil {
		log.Fatal(err)
	}
	trace, err := traffic.WAN(g.NumVertices(), 160, 42)
	if err != nil {
		log.Fatal(err)
	}
	// Scale utilization into a realistic band: uniform split on the first
	// snapshot ~ 50% on the busiest link.
	if m, _ := ps.MLU(trace.At(0), te.UniformConfig(ps).R); m > 0 {
		trace.Scale(0.5 / m)
	}
	train, test := trace.Split(0.75)
	weak := figret.New(ps, figret.Config{H: 6, Gamma: 1, Hidden: []int{32}, Epochs: 1, Seed: 42, BatchSize: 16})
	if _, err := weak.Train(train); err != nil {
		log.Fatal(err)
	}
	strong := figret.New(ps, figret.Config{H: 6, Gamma: 1, Epochs: 8, Seed: 42, BatchSize: 16})
	if _, err := strong.Train(train); err != nil {
		log.Fatal(err)
	}

	// 2. The serving layer: a registry of hot-swappable checkpoints and a
	// per-topology controller behind the HTTP API.
	reg := serve.NewRegistry()
	if err := reg.AddTopology("geant", ps); err != nil {
		log.Fatal(err)
	}
	srv := serve.NewServer(reg)
	if _, err := srv.Add("geant", serve.ControllerOptions{HistoryCap: 64}); err != nil {
		log.Fatal(err)
	}
	defer srv.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	defer ln.Close()
	go http.Serve(ln, srv.Handler()) //nolint:errcheck // demo server dies with the process
	client := serve.NewClient("http://" + ln.Addr().String())

	if _, err := reg.Install("geant", weak, "bootstrap"); err != nil {
		log.Fatal(err)
	}
	fmt.Println("serving GEANT with bootstrap checkpoint v1")

	// 3. Stream the first half of the test trace and close the loop with
	// a 2-interval installation delay (the paper's control-plane latency).
	half := test.Len() / 2
	post := func(demand []float64) (*serve.RoutingResponse, error) {
		return client.PostSnapshot("geant", demand)
	}
	res, err := serve.Replay(post, ps, test, serve.ReplayOptions{To: half, Delay: 2})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("first half: %d decisions, mean MLU %.3f, peak %.3f (served by versions %v)\n",
		len(res.Decisions), res.MeanMLU, res.PeakMLU, res.Versions)

	// 4. A link fails: the controller reroutes the installed decision
	// immediately, before the next snapshot arrives.
	e := g.Edge(0)
	rr, err := client.ReportFailures("geant", [][2]int{{e.From, e.To}})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("link (%d,%d) failed: rerouted decision seq %d published\n", e.From, e.To, rr.Seq)
	if _, err := client.ReportFailures("geant", nil); err != nil {
		log.Fatal(err)
	}

	// 5. Hot-swap the properly trained checkpoint over the API — no
	// restart, no dropped requests — and stream the second half.
	data, err := strong.MarshalJSON()
	if err != nil {
		log.Fatal(err)
	}
	ck, err := client.UploadCheckpoint("geant", data)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("hot-swapped checkpoint v%d\n", ck.Version)
	res2, err := serve.Replay(post, ps, test, serve.ReplayOptions{From: half, Delay: 2})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("second half: mean MLU %.3f, peak %.3f (served by versions %v)\n",
		res2.MeanMLU, res2.PeakMLU, res2.Versions)

	// 6. Serving metrics: throughput and decision-latency quantiles.
	ms, err := client.Metrics()
	if err != nil {
		log.Fatal(err)
	}
	m := ms["geant"]
	fmt.Printf("metrics: %d snapshots, %d decisions, p50 %.0fµs, p99 %.0fµs\n",
		m.Snapshots, m.Decisions, m.P50Micros, m.P99Micros)
}
