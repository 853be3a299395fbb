package serve

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"
	"net/http"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"figret/internal/te"
	"figret/internal/wire"
)

// wireFixture boots a served PoD topology with an installed checkpoint
// and returns the JSON client (the server URL rides on it).
func wireFixture(t *testing.T) (*Client, *Server) {
	t.Helper()
	ps, tr, m := fixture(t, 60, 1)
	client, srv, reg := startServer(t, "pod", ps, ControllerOptions{HistoryCap: 16})
	if _, err := reg.Install("pod", m, "test"); err != nil {
		t.Fatal(err)
	}
	// Warm the controller past the model's history window.
	for i := 0; i < 8; i++ {
		if _, err := client.PostSnapshot("pod", tr.At(i)); err != nil {
			t.Fatal(err)
		}
	}
	return client, srv
}

// dialPod opens the binary stream to c's "pod" topology; it is closed
// with the test.
func dialPod(t *testing.T, c *Client, ps *te.PathSet) *BinClient {
	t.Helper()
	bin, err := DialBin(c.BaseURL, "pod", ps, BinClientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { bin.Close() })
	return bin
}

func sameDecision(t *testing.T, name string, a, b *RoutingResponse) {
	t.Helper()
	sameDecisionAt(t, name, a, b, true)
}

func sameDecisionAt(t *testing.T, name string, a, b *RoutingResponse, checkAt bool) {
	t.Helper()
	if a.Seq != b.Seq || a.Snapshot != b.Snapshot || a.Version != b.Version ||
		a.Rerouted != b.Rerouted || a.ChurnLimited != b.ChurnLimited || a.Warming != b.Warming {
		t.Fatalf("%s: headers differ: %+v vs %+v", name, a, b)
	}
	if checkAt && !a.At.Equal(b.At) {
		t.Fatalf("%s: At %v vs %v", name, a.At, b.At)
	}
	if len(a.Ratios) != len(b.Ratios) {
		t.Fatalf("%s: %d vs %d ratios", name, len(a.Ratios), len(b.Ratios))
	}
	for i := range a.Ratios {
		if math.Float64bits(a.Ratios[i]) != math.Float64bits(b.Ratios[i]) {
			t.Fatalf("%s: ratio %d differs bitwise: %v vs %v", name, i, a.Ratios[i], b.Ratios[i])
		}
	}
}

// TestWireHTTPNegotiation: the content-negotiated binary codec on the
// plain HTTP endpoints returns responses bitwise identical to the JSON
// surface.
func TestWireHTTPNegotiation(t *testing.T) {
	jsonClient, _ := wireFixture(t)
	binClient := NewClient(jsonClient.BaseURL)
	binClient.Binary = true

	j, err := jsonClient.Routing("pod")
	if err != nil {
		t.Fatal(err)
	}
	b, err := binClient.Routing("pod")
	if err != nil {
		t.Fatal(err)
	}
	sameDecision(t, "routing", j, b)

	ps, tr, _ := fixture(t, 60, 1)
	// Sync ingest over the binary codec: the served decision advances and
	// comes back in wire form.
	d, err := binClient.PostSnapshot("pod", tr.At(9))
	if err != nil {
		t.Fatal(err)
	}
	if d.Warming || d.Seq <= j.Seq {
		t.Fatalf("binary ingest decision %+v", d)
	}
	if err := checkDecision(ps, d.Ratios, nil, nil); err != nil {
		t.Fatalf("binary ingest decision: %v", err)
	}
	// And the JSON surface sees exactly what the binary one produced.
	j2, err := jsonClient.Routing("pod")
	if err != nil {
		t.Fatal(err)
	}
	sameDecision(t, "after-binary-ingest", j2, d)

	if err := binClient.postSnapshotAsync("pod", tr.At(10)); err != nil {
		t.Fatal(err)
	}

	// Unknown topology errors stay JSON (and typed) on the binary path.
	if _, err := binClient.Routing("nope"); err == nil || !strings.Contains(err.Error(), "404") {
		t.Fatalf("unknown topo over binary: %v", err)
	}
}

// TestWireStream exercises the upgraded persistent stream end to end:
// hello validation, sync decisions, full frames even on stable demand,
// async acks, typed error frames, and the three retired type numbers.
func TestWireStream(t *testing.T) {
	client, _ := wireFixture(t)
	ps, tr, _ := fixture(t, 60, 1)

	// Unknown topology: the server answers the hello with a 404 error
	// frame and the dial fails.
	if _, err := DialBin(client.BaseURL, "nope", ps, BinClientOptions{}); err == nil ||
		!strings.Contains(err.Error(), "404") {
		t.Fatalf("dial to unknown topology: %v", err)
	}

	bin := dialPod(t, client, ps)

	d1, err := bin.PostSnapshot(tr.At(10))
	if err != nil {
		t.Fatal(err)
	}
	if d1.Warming {
		t.Fatalf("stream decision %+v", d1)
	}
	if err := checkDecision(ps, d1.Ratios, nil, nil); err != nil {
		t.Fatalf("stream decision: %v", err)
	}
	if s := bin.Stats(); s.Fulls != 1 {
		t.Fatalf("first decision not counted full: %+v", s)
	}

	// Stable demand saturates the window with identical snapshots, so
	// consecutive decisions converge; every reply is still a full frame.
	var last *RoutingResponse
	for i := 0; i < 12; i++ {
		if last, err = bin.PostSnapshot(tr.At(10)); err != nil {
			t.Fatal(err)
		}
	}
	if s := bin.Stats(); s.Deltas != 0 || s.Fulls != 13 {
		t.Fatalf("13 decisions on stable demand counted %+v, want 13 full frames", s)
	}

	// The stream's decision equals the JSON surface's routing view.
	j, err := client.Routing("pod")
	if err != nil {
		t.Fatal(err)
	}
	sameDecision(t, "stream-vs-json", j, last)

	// Async ingest acks without a decision.
	st, err := bin.StreamAsync(1, func(int) []float64 { return tr.At(11) })
	if err != nil {
		t.Fatal(err)
	}
	if st.Acks != 1 || st.Decisions != 0 {
		t.Fatalf("async ingest answered %+v, want one ack", st)
	}

	// An application error (malformed demand) comes back as a typed
	// error frame and the stream stays usable.
	if _, err := bin.PostSnapshot([]float64{1, 2, 3}); err == nil ||
		!strings.Contains(err.Error(), "status 400") {
		t.Fatalf("short demand: %v", err)
	}
	if s := bin.Stats(); s.Redials != 0 {
		t.Fatalf("application error forced a redial: %+v", s)
	}
	if _, err := bin.PostSnapshot(tr.At(12)); err != nil {
		t.Fatalf("stream unusable after application error: %v", err)
	}

	// Type numbers 6 and 7 were the stream's failure report and routing
	// query, 8 its delta resync request. A frame carrying one is any
	// unknown frame: a 400 error frame, then the server closes the
	// connection (and the client redials on its next request).
	for _, retired := range []byte{6, 7, 8} {
		frame := append([]byte(nil), bin.enc.Ack()...)
		frame[5] = retired // u32 length, version, type
		binary.LittleEndian.PutUint32(frame[len(frame)-4:], crc32.ChecksumIEEE(frame[4:len(frame)-4]))
		if _, err := bin.conn.Write(frame); err != nil {
			t.Fatal(err)
		}
		var we *wireError
		if _, err := bin.readReply(time.Now().Add(5 * time.Second)); !errors.As(err, &we) || we.Code != 400 {
			t.Fatalf("retired type %d answered %v, want a 400 error frame", retired, err)
		}
		if _, err := bin.readReply(time.Now().Add(5 * time.Second)); err == nil {
			t.Fatalf("connection still open after retired type %d", retired)
		}
		if _, err := bin.PostSnapshot(tr.At(12)); err != nil {
			t.Fatalf("no redial after retired type %d: %v", retired, err)
		}
	}
}

// TestDialAddr: DialBin takes the JSON client's base URL or a bare
// host:port, IPv6 literals included, and dials port 80 when a URL names
// none.
func TestDialAddr(t *testing.T) {
	for _, tc := range []struct{ in, want string }{
		{"http://127.0.0.1:8080", "127.0.0.1:8080"},
		{"127.0.0.1:8080", "127.0.0.1:8080"},
		{"localhost:8080", "localhost:8080"},
		{"http://[::1]", "[::1]:80"},
		{"[::1]:8080", "[::1]:8080"},
		{"http://example.com", "example.com:80"},
	} {
		if got, err := dialAddr(tc.in); err != nil || got != tc.want {
			t.Errorf("dialAddr(%q) = %q, %v; want %q", tc.in, got, err, tc.want)
		}
	}
	if got, err := dialAddr("example.com"); err == nil {
		t.Errorf("dialAddr(%q) = %q, want an error (no scheme, no port)", "example.com", got)
	}
}

// TestWireStreamPipelined streams three pipelines' worth of snapshots
// and checks ordering, counts and RTT bookkeeping, that the requests in
// flight fill the pipeline and never exceed it (the first streamDepth
// requests fit the write buffer, so the run deadlocks unless the sender
// flushes before it waits for a slot), and that pipelining changes no
// decision: a twin server fed the same snapshots one synchronous
// PostSnapshot at a time answers bitwise the same.
func TestWireStreamPipelined(t *testing.T) {
	client, _ := wireFixture(t)
	twin, _ := wireFixture(t)
	ps, tr, _ := fixture(t, 60, 1)
	bin, oneByOne := dialPod(t, client, ps), dialPod(t, twin, ps)
	demand := func(i int) []float64 { return tr.At(i % tr.Len()) }

	const n = 3 * streamDepth
	want := make([]*RoutingResponse, n)
	for i := range want {
		d, err := oneByOne.PostSnapshot(demand(i))
		if err != nil {
			t.Fatal(err)
		}
		want[i] = d
	}

	// Stream calls demand(i) as it sends request i and onDecision(i) as it
	// takes response i, so sent−received bounds the requests in flight.
	var received atomic.Int64
	maxInFlight := 0
	got := make([]*RoutingResponse, 0, n)
	stats, err := bin.Stream(n,
		func(i int) []float64 {
			if f := i + 1 - int(received.Load()); f > maxInFlight {
				maxInFlight = f
			}
			return demand(i)
		},
		func(i int, d *wire.Decision) {
			if i != len(got) {
				t.Errorf("decision %d arrived in position %d", i, len(got))
			}
			got = append(got, wireToRouting("pod", d))
			received.Add(1)
		})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Requests != n || stats.Decisions != n || stats.Acks != 0 || len(got) != n {
		t.Fatalf("stream stats %+v, observed %d decisions", stats, len(got))
	}
	for i := range want {
		sameDecisionAt(t, "stream-vs-sync", want[i], got[i], false)
		if err := checkDecision(ps, got[i].Ratios, nil, nil); err != nil {
			t.Fatalf("streamed decision %d: %v", i, err)
		}
	}
	if maxInFlight != streamDepth {
		t.Fatalf("at most %d requests in flight, want the pipeline depth %d", maxInFlight, streamDepth)
	}
	if stats.MeanRTTMicros <= 0 || stats.P99RTTMicros < stats.P50RTTMicros {
		t.Fatalf("rtt stats %+v", stats)
	}
	if stats.BytesSent == 0 || stats.BytesReceived == 0 {
		t.Fatalf("byte counts %+v", stats)
	}

	// Async streaming acks everything.
	astats, err := bin.StreamAsync(16, demand)
	if err != nil {
		t.Fatal(err)
	}
	if astats.Acks != 16 || astats.Decisions != 0 {
		t.Fatalf("async stream stats %+v", astats)
	}
}

// TestWireServerClose: Server.Close reaches hijacked stream connections
// (they are outside the HTTP server's connection tracking), so clients
// fail fast instead of hanging.
func TestWireServerClose(t *testing.T) {
	client, srv := wireFixture(t)
	ps, tr, _ := fixture(t, 60, 1)
	bin := dialPod(t, client, ps)
	if _, err := bin.PostSnapshot(tr.At(10)); err != nil {
		t.Fatal(err)
	}

	srv.Close()
	start := time.Now()
	if _, err := bin.PostSnapshot(tr.At(11)); err == nil {
		t.Fatal("stream op succeeded after server close")
	}
	// The redial backoff is a constant 350 ms in all; nothing else waits.
	if took := time.Since(start); took > 5*time.Second {
		t.Fatalf("stream op took %v to fail after server close", took)
	}
}

// TestWireReplayBitwise is the tentpole identity contract: a closed-loop
// replay over the binary transports — the content-negotiated HTTP codec
// and the upgraded stream — must produce decisions and
// simulated per-interval results bitwise identical to the JSON replay of
// the same trace against the same checkpoint. Only publication
// timestamps (wall clock) may differ across runs.
func TestWireReplayBitwise(t *testing.T) {
	ps, tr, m := fixture(t, 60, 1)
	run := func(mode string) *ReplayResult {
		t.Helper()
		client, _, reg := startServer(t, "pod", ps, ControllerOptions{HistoryCap: 16})
		if _, err := reg.Install("pod", m, "test"); err != nil {
			t.Fatal(err)
		}
		rr, err := Replay(postOver(t, mode, client, "pod", ps), ps, tr, ReplayOptions{To: 30, Delay: 1})
		if err != nil {
			t.Fatalf("%s replay: %v", mode, err)
		}
		return rr
	}

	base := run(transportJSON)
	if len(base.Decisions) != 30 {
		t.Fatalf("json replay produced %d decisions", len(base.Decisions))
	}
	for s, d := range base.Decisions {
		if s < m.Cfg.H-1 {
			continue // warming
		}
		want, err := m.PredictAt(tr, s+1)
		if err != nil {
			t.Fatal(err)
		}
		if err := checkDecision(ps, d.Ratios, nil, want.R); err != nil {
			t.Fatalf("json replay snapshot %d: %v", s, err)
		}
	}
	for _, mode := range []string{transportBinHTTP, transportWire} {
		rr := run(mode)
		if len(rr.Decisions) != len(base.Decisions) {
			t.Fatalf("%s: %d decisions, json %d", mode, len(rr.Decisions), len(base.Decisions))
		}
		for i := range base.Decisions {
			sameDecisionAt(t, mode, base.Decisions[i], rr.Decisions[i], false)
		}
		if len(rr.PerInterval) != len(base.PerInterval) {
			t.Fatalf("%s: %d intervals, json %d", mode, len(rr.PerInterval), len(base.PerInterval))
		}
		for i := range base.PerInterval {
			if math.Float64bits(rr.PerInterval[i].MLU) != math.Float64bits(base.PerInterval[i].MLU) ||
				math.Float64bits(rr.PerInterval[i].LossRate) != math.Float64bits(base.PerInterval[i].LossRate) {
				t.Fatalf("%s interval %d: MLU %v/%v loss %v/%v", mode, i,
					rr.PerInterval[i].MLU, base.PerInterval[i].MLU,
					rr.PerInterval[i].LossRate, base.PerInterval[i].LossRate)
			}
		}
		if math.Float64bits(rr.MeanMLU) != math.Float64bits(base.MeanMLU) ||
			math.Float64bits(rr.PeakMLU) != math.Float64bits(base.PeakMLU) ||
			math.Float64bits(rr.MeanLoss) != math.Float64bits(base.MeanLoss) {
			t.Fatalf("%s summary (%v %v %v) != json (%v %v %v)", mode,
				rr.MeanMLU, rr.PeakMLU, rr.MeanLoss, base.MeanMLU, base.PeakMLU, base.MeanLoss)
		}
		if len(rr.Versions) != len(base.Versions) || rr.Versions[0] != base.Versions[0] {
			t.Fatalf("%s versions %v != %v", mode, rr.Versions, base.Versions)
		}
	}
}

// TestLoadGen drives the load generator end to end against a served
// topology and sanity-checks its throughput report.
func TestLoadGen(t *testing.T) {
	client, _ := wireFixture(t)
	ps, tr, _ := fixture(t, 60, 1)
	res, err := LoadGen(client.BaseURL, "pod", ps, tr, LoadOptions{Requests: 50})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stream.Decisions != 50 || res.DecisionsPerSec <= 0 {
		t.Fatalf("load result %+v", res)
	}
	if res.Bin.Fulls != 50 || res.Bin.Deltas != 0 {
		t.Fatalf("50 decisions counted %+v, want 50 full frames", res.Bin)
	}

	ares, err := LoadGen(client.BaseURL, "pod", ps, tr, LoadOptions{Requests: 20, Async: true})
	if err != nil {
		t.Fatal(err)
	}
	if ares.Stream.Acks != 20 || ares.RequestsPerSec <= 0 {
		t.Fatalf("async load result %+v", ares)
	}
}

// TestClientTransportDefaults: a Client without an explicit http.Client
// gets the shared tuned transport (timeouts + keep-alive pool), not
// http.DefaultClient.
func TestClientTransportDefaults(t *testing.T) {
	c := NewClient("http://127.0.0.1:1")
	hc := c.http()
	if hc == http.DefaultClient {
		t.Fatal("fell back to http.DefaultClient")
	}
	if hc.Timeout <= 0 {
		t.Fatal("no overall request timeout")
	}
	tr, ok := hc.Transport.(*http.Transport)
	if !ok {
		t.Fatalf("transport is %T", hc.Transport)
	}
	if tr.MaxIdleConnsPerHost < 2 || tr.ResponseHeaderTimeout <= 0 || tr.IdleConnTimeout <= 0 {
		t.Fatalf("transport not tuned: %+v", tr)
	}
	override := &http.Client{}
	c.HTTP = override
	if c.http() != override {
		t.Fatal("explicit client not honored")
	}
}
