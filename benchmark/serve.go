package main

import (
	"fmt"
	"math"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"figret/internal/experiments"
	"figret/internal/figret"
	"figret/internal/serve"
	"figret/internal/te"
	"figret/internal/traffic"
)

// The measured phase of a serve workload is spread over the workload's
// daemons (workloadSpec.Daemons complete set-ups, one after another): on
// each a warm-up and an equal share of serveSegments segments, which
// together last --seconds. The gated latency is a low quantile of every
// round trip of the phase pooled (see README.md, "Steadiness"): the
// machine's noise only ever slows a request, so the fast decile repeats
// from run to run where the median does not; and one daemon process differs
// from the next by more than ten seconds on one of them can average away.
const (
	serveSegments   = 10   // per run, rounded to a whole number per daemon (at least 2)
	verifyEvery     = 16   // every 16th decision is verified bitwise...
	verifyFirstSeg  = 512  // ...and the first this-many decisions of segment 0
	setupRepeats    = 3    // set-ups per run of train and suite; setup_s is their median
	tailWant        = 0.99 // the percentile serve.rtt_p99_us asks for
	fastQuantile    = 0.10 // the quantile op_p10_ms is
	maxSegmentRetry = 1    // segments (repetitions, passes) a run discards for a slow canary before it keeps and flags them

	// The warm-up runs in rounds of warmRound until the daemon has finished
	// a garbage collection since the warm-up began, and for at most warmMax.
	// Until its first collection under load the daemon's heap is still
	// growing into memory the hypervisor has never backed, and every
	// decision pays for the page faults: a large-wan daemon answers in
	// 3.5 ms instead of 2.2 ms for its first ~2000 decisions (7-8 s). The
	// warm-up is not part of --seconds.
	warmRound = time.Second
	warmMax   = 20 * time.Second
)

// reference is the in-process twin of the daemon's state: the same
// environment and the same bootstrap model, built by the same calls with
// the same seed (bitwise deterministic by the repository's contract), plus
// the γ=0 checkpoint the mixed workload uploads.
type reference struct {
	env       *experiments.Env
	ext       *traffic.Trace // env.Trace twice over: every cyclic window is contiguous
	boot      *figret.Predictor
	dote      *figret.Predictor // nil unless the workload uploads
	doteJSON  []byte
	fail      *te.FailureSet // the one failure set the mixed workload reports
	failLinks [][2]int
}

// buildReference mirrors cmd/served's addTopology. The daemon serves its
// model after a MarshalJSON/LoadModel round trip (Registry.Install); the
// reference predicts with the model as trained, so a round trip that lost
// a bit would show as a wrong decision.
func buildReference(topo string, seed int64, withDOTE bool) (*reference, error) {
	env, err := experiments.NewEnv(topo, experiments.ScaleFast, experiments.EnvOptions{T: serveT, Seed: seed})
	if err != nil {
		return nil, err
	}
	cfg := figret.Config{H: serveH, Gamma: 1, Epochs: serveEpochs, Seed: seed, BatchSize: serveBatch}
	r := &reference{env: env}
	r.ext = &traffic.Trace{Pairs: env.Trace.Pairs,
		Snapshots: append(append([][]float64(nil), env.Trace.Snapshots...), env.Trace.Snapshots...)}
	boot := figret.New(env.PS, cfg)
	if _, err := boot.Train(env.Train); err != nil {
		return nil, err
	}
	r.boot = boot.NewPredictor()
	if withDOTE {
		cfg.Gamma = 0
		dote := figret.New(env.PS, cfg)
		if _, err := dote.Train(env.Train); err != nil {
			return nil, err
		}
		if r.doteJSON, err = dote.MarshalJSON(); err != nil {
			return nil, err
		}
		r.dote = dote.NewPredictor()
		e := env.G.Edge(0)
		r.failLinks = [][2]int{{e.From, e.To}}
		r.fail = te.NewFailureSet(env.G, r.failLinks)
	}
	return r, nil
}

// demand returns the i-th snapshot of the feed: the seed-derived trace,
// cycled.
func (r *reference) demand(i int64) []float64 {
	return r.env.Trace.At(int(i % int64(r.env.Trace.Len())))
}

// expect computes what the daemon must answer for the window ending at
// feed position i, under the checkpoint version and reroute flag the
// response names. Version 1 is the bootstrap; every later version is an
// upload of the γ=0 checkpoint (Rollback deletes the version it retires).
func (r *reference) expect(i int64, version int, rerouted bool) ([]float64, error) {
	p := r.boot
	if version != 1 {
		if r.dote == nil {
			return nil, fmt.Errorf("decision names version %d but only the bootstrap was ever installed", version)
		}
		p = r.dote
	}
	T := int64(r.env.Trace.Len())
	cfg, err := p.PredictAt(r.ext, int(i%T+T)+1)
	if err != nil {
		return nil, err
	}
	if rerouted {
		if r.fail == nil {
			return nil, fmt.Errorf("decision is rerouted but no failure was ever reported")
		}
		cfg = te.Reroute(cfg, r.fail)
	}
	return cfg.R, nil
}

func bitwiseEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// opCounts are the attempted/failed totals of a run, across goroutines.
type opCounts struct {
	attempted, failed atomic.Int64
	mu                sync.Mutex
	firstErr          error
}

func (c *opCounts) fail(err error) {
	c.failed.Add(1)
	c.mu.Lock()
	if c.firstErr == nil {
		c.firstErr = err
	}
	c.mu.Unlock()
}

// serveRig is one complete set-up of a serve workload: reference, daemon,
// the connection(s), and the feed position.
type serveRig struct {
	wl    *workloadSpec
	ref   *reference
	d     *daemon
	bin   *serve.BinClient // wire workloads
	jsonA *serve.Client    // mixed: connection A
	binB  *serve.Client    // mixed: connection B
	next  int64            // feed position of the next post
	ops   *opCounts
	tr    *tracer // nil when this segment is untraced

	pending  []pendingCheck
	verified int
	b        bLoop
}

type pendingCheck struct {
	idx  int64
	resp *serve.RoutingResponse
}

func ownHTTPClient() *http.Client {
	return &http.Client{Timeout: 2 * time.Minute, Transport: &http.Transport{MaxIdleConnsPerHost: 1}}
}

// setUp performs one complete set-up: reference in process, daemon boot,
// connect, H warming posts and the first real decision, verified.
func setUpServe(h *harness, served string, wl *workloadSpec, seed int64, ops *opCounts) (*serveRig, time.Duration, error) {
	t0 := time.Now()
	mixed := wl.Name == wlServeMixed
	ref, err := buildReference(wl.Topo, seed, mixed || wl == &probeSpec)
	if err != nil {
		return nil, 0, err
	}
	d, err := h.startDaemon(served, wl.Topo, seed)
	if err != nil {
		return nil, 0, err
	}
	rig := &serveRig{wl: wl, ref: ref, d: d, ops: ops}
	if mixed {
		rig.jsonA = &serve.Client{BaseURL: d.api, HTTP: ownHTTPClient()}
		rig.binB = &serve.Client{BaseURL: d.api, HTTP: ownHTTPClient(), Binary: true}
	} else if rig.bin, err = serve.DialBin(d.api, wl.Topo, ref.env.PS, serve.BinClientOptions{}); err != nil {
		d.kill()
		return nil, 0, err
	}
	for i := 0; i < serveH; i++ {
		resp, err := rig.post()
		if err != nil {
			rig.close()
			return nil, 0, fmt.Errorf("warming post %d: %w", i, err)
		}
		if warming := i < serveH-1; resp.Warming != warming {
			rig.close()
			return nil, 0, fmt.Errorf("post %d: warming=%v, want %v", i, resp.Warming, warming)
		}
		if !resp.Warming {
			rig.pending = append(rig.pending, pendingCheck{rig.next - 1, resp})
		}
	}
	rig.verifyPending()
	if n := ops.failed.Load(); n > 0 {
		rig.close()
		return nil, 0, fmt.Errorf("first decision after boot is wrong: %v", ops.firstErr)
	}
	return rig, time.Since(t0), nil
}

// post sends the next snapshot of the feed on connection A and counts it.
func (r *serveRig) post() (*serve.RoutingResponse, error) {
	if r.bin != nil {
		return r.postVia(r.bin.PostSnapshot)
	}
	return r.postVia(func(d []float64) (*serve.RoutingResponse, error) { return r.jsonA.PostSnapshot(r.wl.Topo, d) })
}

// postVia sends the next snapshot of the feed through send. Every snapshot
// this daemon ever receives goes through here, so the feed position always
// names the daemon's window.
func (r *serveRig) postVia(send func([]float64) (*serve.RoutingResponse, error)) (*serve.RoutingResponse, error) {
	demand := r.ref.demand(r.next)
	r.next++
	r.ops.attempted.Add(1)
	resp, err := send(demand)
	if err != nil {
		r.ops.fail(err)
	}
	return resp, err
}

// verifyPending compares every queued decision bitwise with offline
// inference. It runs between phases, never inside a timed segment.
func (r *serveRig) verifyPending() {
	for _, pc := range r.pending {
		want, err := r.ref.expect(pc.idx, pc.resp.Version, pc.resp.Rerouted)
		if err == nil && !bitwiseEqual(want, pc.resp.Ratios) {
			err = fmt.Errorf("decision for feed position %d (version %d, rerouted %v) is not bitwise the offline inference",
				pc.idx, pc.resp.Version, pc.resp.Rerouted)
		}
		if err != nil {
			r.ops.fail(err)
		}
	}
	r.verified += len(r.pending)
	r.pending = r.pending[:0]
}

func (r *serveRig) close() {
	if r.bin != nil {
		r.bin.Close()
	}
	if r.jsonA != nil {
		r.jsonA.HTTP.CloseIdleConnections()
		r.binB.HTTP.CloseIdleConnections()
	}
	r.d.kill()
}

// segment runs connection A's closed loop (one request in flight) for d
// and returns the round trips in µs and the loop's wall-clock. In the
// mixed workload connection B loops beside it for the same interval.
func (r *serveRig) segment(d time.Duration, verifyAll bool) (rtts []float64, wall time.Duration, reads int64, err error) {
	var stopB chan struct{}
	var doneB chan struct{}
	if r.binB != nil {
		stopB, doneB = make(chan struct{}), make(chan struct{})
		go func() {
			defer close(doneB)
			r.b.run(r, stopB)
		}()
	}
	readsBefore := r.b.reads
	t0 := time.Now()
	deadline := t0.Add(d)
	consecutive := 0
	for n := 0; time.Now().Before(deadline); n++ {
		sp := r.tr.start("serve.client.post_snapshot", 0, r.next)
		s := time.Now()
		resp, perr := r.post()
		rtt := time.Since(s)
		r.tr.end(sp)
		if perr != nil {
			if consecutive++; consecutive >= 20 {
				err = fmt.Errorf("20 consecutive failed posts, last: %w", perr)
				break
			}
			continue
		}
		consecutive = 0
		if resp.Warming {
			r.ops.fail(fmt.Errorf("warming answer at feed position %d, after the window filled", r.next-1))
			continue
		}
		rtts = append(rtts, float64(rtt)/float64(time.Microsecond))
		if n%verifyEvery == 0 || (verifyAll && n < verifyFirstSeg) {
			r.pending = append(r.pending, pendingCheck{r.next - 1, resp})
		}
	}
	wall = time.Since(t0)
	if stopB != nil {
		close(stopB)
		<-doneB
		reads = r.b.reads - readsBefore
	}
	return rtts, wall, reads, err
}

// bLoop is connection B of the mixed workload: reads and control-plane
// writes beside A's snapshot writes. Its position in the cycle survives
// from segment to segment.
type bLoop struct {
	step    int // position within one cycle
	cycle   int
	uploads int
	reads   int64
	lastSeq int64
	known   map[int]bool // versions B has seen installed
	active  int          // version B believes is serving
}

const bReadsPerHalf = 200

// run loops { 200 x Routing GET; ReportFailures([e0]); 200 x Routing GET;
// ReportFailures(nil) } and, on every 5th cycle, alternately uploads the
// γ=0 checkpoint and rolls it back, until stop closes.
func (b *bLoop) run(r *serveRig, stop <-chan struct{}) {
	if b.known == nil {
		b.known = map[int]bool{1: true}
		b.active = 1
	}
	topo := r.wl.Topo
	for {
		select {
		case <-stop:
			return
		default:
		}
		r.ops.attempted.Add(1)
		var err error
		switch s := b.step; {
		case s < bReadsPerHalf, s > bReadsPerHalf && s <= 2*bReadsPerHalf:
			sp := r.tr.start("serve.client.routing", 0, 0)
			var resp *serve.RoutingResponse
			if resp, err = r.binB.Routing(topo); err == nil {
				b.reads++
				switch {
				case resp.Seq < b.lastSeq:
					err = fmt.Errorf("routing read Seq went back: %d after %d", resp.Seq, b.lastSeq)
				case !b.known[resp.Version]:
					err = fmt.Errorf("routing read names unknown version %d", resp.Version)
				}
				b.lastSeq = max(b.lastSeq, resp.Seq)
			}
			r.tr.end(sp)
		case s == bReadsPerHalf:
			sp := r.tr.start("serve.client.report_failures", 0, 0)
			_, err = r.binB.ReportFailures(topo, r.ref.failLinks)
			r.tr.end(sp)
		default: // s == 2*bReadsPerHalf+1: clear, and maybe swap
			sp := r.tr.start("serve.client.report_failures", 0, 0)
			_, err = r.binB.ReportFailures(topo, nil)
			r.tr.end(sp)
			if err == nil && b.cycle%5 == 4 {
				r.ops.attempted.Add(1)
				err = b.swap(r)
			}
		}
		if err != nil {
			r.ops.fail(err)
		}
		if b.step++; b.step > 2*bReadsPerHalf+1 {
			b.step = 0
			b.cycle++
		}
	}
}

// finish returns the daemon to its base state (no failure set, bootstrap
// serving) so whatever runs next starts from the same place.
func (b *bLoop) finish(r *serveRig) {
	r.ops.attempted.Add(1)
	if _, err := r.binB.ReportFailures(r.wl.Topo, nil); err != nil {
		r.ops.fail(err)
	}
	if b.active > 1 {
		r.ops.attempted.Add(1)
		if err := b.swap(r); err != nil {
			r.ops.fail(err)
		}
	}
	b.step = 0
}

// swap alternates UploadCheckpoint and Rollback.
func (b *bLoop) swap(r *serveRig) error {
	if b.active == 1 {
		sp := r.tr.start("serve.client.upload_checkpoint", 0, 0)
		resp, err := r.binB.UploadCheckpoint(r.wl.Topo, r.ref.doteJSON)
		r.tr.end(sp)
		if err != nil {
			return err
		}
		b.uploads++
		b.known[resp.Version] = true
		b.active = resp.Version
		return nil
	}
	sp := r.tr.start("serve.client.rollback", 0, 0)
	resp, err := r.binB.Rollback(r.wl.Topo)
	r.tr.end(sp)
	if err != nil {
		return err
	}
	if resp.Version != 1 {
		return fmt.Errorf("rollback activated version %d, want the bootstrap", resp.Version)
	}
	b.active = 1
	return nil
}

// servePhase is the outcome of the measured phase on one daemon.
type servePhase struct {
	segs     []segmentStats // kept segments, in order
	traced   []bool         // which of them recorded spans
	reads    []float64      // connection B reads/s per kept segment (mixed)
	rtts     []float64      // every round trip of the kept segments, µs, sorted
	warm     time.Duration  // how long the warm-up took...
	warmGCs  float64        // ...and the collections the daemon finished in it
	before   promPage       // the daemon's /metrics as the warm-up ended...
	after    promPage       // ...and after the last segment; never read in between
	cpu      time.Duration  // daemon CPU between the first segment's start and the last one's end
	served   int64          // decisions answered in that interval, discarded segments included
	rssMB    float64        // the daemon's VmHWM after the last segment
	samples  int
	verified int
}

// warmUp posts in rounds until the daemon has collected its heap once.
func (r *serveRig) warmUp(ph *servePhase) error {
	const gcCycles = "go_memstats_gc_cycles"
	before, err := scrape(r.d.ops)
	if err != nil {
		return err
	}
	t0 := time.Now()
	for {
		if _, _, _, err := r.segment(warmRound, false); err != nil {
			return err
		}
		page, err := scrape(r.d.ops)
		if err != nil {
			return err
		}
		ph.warm, ph.warmGCs, ph.before = time.Since(t0), page[gcCycles]-before[gcCycles], page
		if ph.warmGCs > 0 || ph.warm >= warmMax {
			return nil
		}
	}
}

// measure runs the warm-up and n segments that together last seconds. In
// a traced run odd segments record spans and even ones do not, so the same
// run yields the tracing overhead. The guard is the run's: its best canary
// and its retries carry over from one daemon to the next.
func (r *serveRig) measure(seconds float64, n int, g *noiseGuard, tr *tracer) (*servePhase, error) {
	segDur := time.Duration(seconds / float64(n) * float64(time.Second))
	ph := &servePhase{}
	if err := r.warmUp(ph); err != nil {
		return nil, err
	}
	ph.segs = make([]segmentStats, n)
	ph.traced = make([]bool, n)
	ph.reads = make([]float64, n)
	kept := make([][]float64, n)
	cpu0, err := procCPU(r.d.pid())
	if err != nil {
		return nil, err
	}
	g.last = 0 // a fresh canary opens this daemon's first segment
	err = g.run(n, func(i int) error {
		r.tr = nil
		if tr != nil && i%2 == 1 {
			r.tr = tr
		}
		rtts, wall, reads, err := r.segment(segDur, i == 0)
		r.tr = nil
		if err != nil {
			return err
		}
		ph.served += int64(len(rtts))
		ph.segs[i] = summarizeSegment(rtts, wall.Seconds(), tailWant)
		kept[i] = rtts // a retry of segment i replaces the discarded attempt
		ph.traced[i] = tr != nil && i%2 == 1
		ph.reads[i] = float64(reads) / wall.Seconds()
		return nil
	})
	if err != nil {
		return nil, err
	}
	cpu1, err := procCPU(r.d.pid())
	if err != nil {
		return nil, err
	}
	ph.cpu = cpu1 - cpu0
	if ph.after, err = scrape(r.d.ops); err != nil {
		return nil, err
	}
	if ph.rssMB, err = procPeakRSSMB(r.d.pid()); err != nil {
		return nil, err
	}
	for _, rtts := range kept {
		ph.rtts = append(ph.rtts, rtts...)
	}
	sort.Float64s(ph.rtts)
	ph.samples = len(ph.rtts)
	if r.binB != nil {
		r.b.finish(r)
	}
	r.verified = 0
	r.verifyPending()
	ph.verified = r.verified
	if r.bin != nil {
		if st := r.bin.Stats(); st.Redials > 0 {
			r.ops.fail(fmt.Errorf("the stream was redialed %d time(s); ingest is at-least-once across a redial", st.Redials))
		}
	}
	return ph, nil
}
