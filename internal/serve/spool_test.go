package serve

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"figret/internal/obs"
	"figret/internal/tracestore"
)

// TestControllerSpoolRestartRecovery is the acceptance bar for the
// bounded-history fix: every ingested snapshot lands durably in the
// spool while the in-RAM window stays capped, and a restarted
// controller recovers the spool — resuming absolute snapshot numbering
// and preloading the window, so its first post-restart decision matches
// offline inference over the uninterrupted trace bitwise.
func TestControllerSpoolRestartRecovery(t *testing.T) {
	ps, tr, m := fixture(t, 60, 1)
	reg := NewRegistry()
	if err := reg.AddTopology("pod", ps); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Install("pod", m, "bootstrap"); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	opt := ControllerOptions{HistoryCap: 8, Spool: dir}

	c1, err := NewController("pod", reg, opt)
	if err != nil {
		t.Fatal(err)
	}
	const firstRun = 10
	for i := 0; i < firstRun; i++ {
		res, err := c1.Ingest(tr.At(i), true)
		if err != nil {
			t.Fatal(err)
		}
		if res.Snapshot != int64(i) {
			t.Fatalf("snapshot index %d, want %d", res.Snapshot, i)
		}
	}
	c1.Close()

	// The spool holds every ingested snapshot bitwise — not just the
	// capped window.
	r, err := tracestore.Open(filepath.Join(dir, "pod.fgt"))
	if err != nil {
		t.Fatal(err)
	}
	if r.Len() != firstRun {
		t.Fatalf("spool holds %d snapshots, want %d", r.Len(), firstRun)
	}
	for i := 0; i < firstRun; i++ {
		s, err := r.At(int64(i))
		if err != nil {
			t.Fatal(err)
		}
		for j, v := range tr.At(i) {
			if math.Float64bits(s[j]) != math.Float64bits(v) {
				t.Fatalf("spooled snapshot %d entry %d: %x vs %x", i, j, math.Float64bits(s[j]), math.Float64bits(v))
			}
		}
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}

	// Restart against the same spool: numbering resumes at firstRun and
	// the preloaded window makes the very first decision equal offline
	// inference on the window ending at the new snapshot — impossible
	// without recovered history, which would leave it warming.
	c2, err := NewController("pod", reg, opt)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c2.Close)
	res, err := c2.Ingest(tr.At(firstRun), true)
	if err != nil {
		t.Fatal(err)
	}
	if res.Snapshot != firstRun {
		t.Fatalf("post-restart snapshot index %d, want %d", res.Snapshot, firstRun)
	}
	if res.Warming || res.Decision == nil {
		t.Fatalf("post-restart controller warming despite preloaded window: %+v", res)
	}
	want, err := m.Predict(tr.Window(firstRun+1, m.Cfg.H))
	if err != nil {
		t.Fatal(err)
	}
	for p := range want.R {
		if res.Decision.Config.R[p] != want.R[p] {
			t.Fatalf("path %d: post-restart %v, offline %v", p, res.Decision.Config.R[p], want.R[p])
		}
	}
}

// TestControllerSpoolTornTailRecovered: a crash mid-append leaves a torn
// tail block; the restarted controller truncates it and carries on from
// the last durable snapshot instead of refusing to start.
func TestControllerSpoolTornTailRecovered(t *testing.T) {
	ps, tr, m := fixture(t, 60, 1)
	reg := NewRegistry()
	if err := reg.AddTopology("pod", ps); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Install("pod", m, "bootstrap"); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	opt := ControllerOptions{HistoryCap: 8, Spool: dir}

	c1, err := NewController("pod", reg, opt)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		if _, err := c1.Ingest(tr.At(i), true); err != nil {
			t.Fatal(err)
		}
	}
	c1.Close()

	// Tear the tail: chop bytes off the end, as a crashed write would.
	path := filepath.Join(dir, "pod.fgt")
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, fi.Size()-40); err != nil {
		t.Fatal(err)
	}

	c2, err := NewController("pod", reg, opt)
	if err != nil {
		t.Fatalf("torn spool tail was fatal: %v", err)
	}
	t.Cleanup(c2.Close)
	if _, err := c2.Ingest(tr.At(6), true); err != nil {
		t.Fatal(err)
	}
}

// TestControllerSpoolShortFileBoots: a spool file shorter than a store
// header — a Create cut off by a crash or a full disk — holds no
// snapshot, so the restarted controller starts the spool afresh and
// numbers from 0 instead of refusing to boot.
func TestControllerSpoolShortFileBoots(t *testing.T) {
	ps, tr, m := fixture(t, 60, 1)
	reg := NewRegistry()
	if err := reg.AddTopology("pod", ps); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Install("pod", m, "bootstrap"); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "pod.fgt"), make([]byte, 10), 0o644); err != nil {
		t.Fatal(err)
	}
	c, err := NewController("pod", reg, ControllerOptions{HistoryCap: 8, Spool: dir})
	if err != nil {
		t.Fatalf("a 10-byte spool file was fatal: %v", err)
	}
	t.Cleanup(c.Close)
	res, err := c.Ingest(tr.At(0), true)
	if err != nil {
		t.Fatal(err)
	}
	if res.Snapshot != 0 {
		t.Fatalf("first snapshot over a fresh spool numbered %d, want 0", res.Snapshot)
	}
}

// TestControllerSpoolMidFileDamage: a damaged record in the middle of
// the spool ends its durable prefix, as a torn tail does. Flushes are not
// fsynced, so after a power cut the pages of unsynced flushes can land in
// any order, and intact records after a bad one do not prove bit rot;
// refusing to boot would keep the daemon down after every such cut. The
// restarted controller's window holds the HistoryCap snapshots before the
// damaged record 6, and it numbers its next snapshot 6.
func TestControllerSpoolMidFileDamage(t *testing.T) {
	ps, tr, m := fixture(t, 60, 1)
	reg := NewRegistry()
	if err := reg.AddTopology("pod", ps); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Install("pod", m, "bootstrap"); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	opt := ControllerOptions{HistoryCap: 4, Spool: dir}
	c1, err := NewController("pod", reg, opt)
	if err != nil {
		t.Fatal(err)
	}
	const spooled, bad = 12, 6
	for i := 0; i < spooled; i++ {
		if _, err := c1.Ingest(tr.At(i), true); err != nil {
			t.Fatal(err)
		}
	}
	c1.Close()

	// Flip a bit inside record 6, counting records back from the end.
	path := filepath.Join(dir, "pod.fgt")
	img, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	rec := 8*ps.Pairs.Count() + 4 // payload and CRC-32
	img[len(img)-(spooled-bad)*rec+9] ^= 0x40
	if err := os.WriteFile(path, img, 0o644); err != nil {
		t.Fatal(err)
	}

	c2, err := NewController("pod", reg, opt)
	if err != nil {
		t.Fatalf("mid-file damage was fatal: %v", err)
	}
	t.Cleanup(c2.Close)
	// NewController filled the window before its goroutine started, and
	// nothing has been ingested since, so reading it here races nothing.
	if c2.history.Len() != opt.HistoryCap {
		t.Fatalf("restarted window holds %d snapshots, want %d", c2.history.Len(), opt.HistoryCap)
	}
	for j := 0; j < opt.HistoryCap; j++ {
		if !sameBits(c2.history.At(j), tr.At(bad-opt.HistoryCap+j)) {
			t.Fatalf("window slot %d is not snapshot %d", j, bad-opt.HistoryCap+j)
		}
	}
	res, err := c2.Ingest(tr.At(bad), true)
	if err != nil {
		t.Fatal(err)
	}
	if res.Snapshot != bad {
		t.Fatalf("first snapshot after the restart numbered %d, want %d", res.Snapshot, bad)
	}
	want, err := m.PredictAt(tr, bad+1)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkDecision(ps, res.Decision.Config.R, nil, want.R); err != nil {
		t.Fatal(err)
	}
}

// TestControllerSpoolAppendFailureDegrades drives the degrade path: a
// restarted controller whose spool append fails serves on from RAM. Its
// decisions stay bitwise equal to offline inference, the failure counts
// once in figret_serve_spool_errors_total, and the spool file keeps
// exactly the durable prefix it had, with no later snapshot in it.
func TestControllerSpoolAppendFailureDegrades(t *testing.T) {
	ps, tr, m := fixture(t, 60, 1)
	reg := NewRegistry()
	if err := reg.AddTopology("pod", ps); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Install("pod", m, "bootstrap"); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	metrics := obs.NewRegistry()
	opt := ControllerOptions{HistoryCap: 8, Spool: dir, Telemetry: NewTelemetry(metrics)}
	c1, err := NewController("pod", reg, opt)
	if err != nil {
		t.Fatal(err)
	}
	const first = 6
	for i := 0; i < first; i++ {
		if _, err := c1.Ingest(tr.At(i), true); err != nil {
			t.Fatal(err)
		}
	}
	c1.Close()
	path := filepath.Join(dir, "pod.fgt")
	durable, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	c2, err := NewController("pod", reg, opt)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c2.Close)
	// Closing the writer makes the controller's next Append fail. The
	// first Ingest's channel send orders this before that Append.
	if err := c2.spool.Close(); err != nil {
		t.Fatal(err)
	}
	for i := first; i < first+5; i++ {
		res, err := c2.Ingest(tr.At(i), true)
		if err != nil {
			t.Fatal(err)
		}
		if res.Snapshot != int64(i) || res.Warming {
			t.Fatalf("snapshot %d answered as %d, warming %v", i, res.Snapshot, res.Warming)
		}
		want, err := m.PredictAt(tr, i+1)
		if err != nil {
			t.Fatal(err)
		}
		if err := checkDecision(ps, res.Decision.Config.R, nil, want.R); err != nil {
			t.Fatalf("snapshot %d: %v", i, err)
		}
	}
	var sb strings.Builder
	if err := metrics.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if got := promValue(t, sb.String(), `figret_serve_spool_errors_total{topology="pod"}`); got != 1 {
		t.Fatalf("figret_serve_spool_errors_total = %d, want 1", got)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, durable) {
		t.Fatalf("the spool went from %d to %d bytes after its append failed", len(durable), len(got))
	}
}

// TestServerAddDuplicateLeavesSpool: a second Add for a served topology
// is refused before a controller is built for it, so the live spool
// never gets a second writer — the first controller's numbering, next
// decision and durable spool carry on as if nothing had happened.
func TestServerAddDuplicateLeavesSpool(t *testing.T) {
	ps, tr, m := fixture(t, 60, 1)
	reg := NewRegistry()
	if err := reg.AddTopology("pod", ps); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Install("pod", m, "bootstrap"); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	opt := ControllerOptions{HistoryCap: 8, Spool: dir}
	srv := NewServer(reg)
	c, err := srv.Add("pod", opt)
	if err != nil {
		t.Fatal(err)
	}
	const before = 7
	for i := 0; i < before; i++ {
		if _, err := c.Ingest(tr.At(i), true); err != nil {
			t.Fatal(err)
		}
	}

	if _, err := srv.Add("pod", opt); err == nil {
		t.Fatal("second Add for a served topology succeeded")
	}
	if srv.Controller("pod") != c {
		t.Fatal("duplicate Add replaced the served controller")
	}

	res, err := c.Ingest(tr.At(before), true)
	if err != nil {
		t.Fatal(err)
	}
	if res.Snapshot != before || res.Warming {
		t.Fatalf("decision after duplicate Add: snapshot %d warming %v, want %d", res.Snapshot, res.Warming, before)
	}
	want, err := m.Predict(tr.Window(before+1, m.Cfg.H))
	if err != nil {
		t.Fatal(err)
	}
	for p := range want.R {
		if res.Decision.Config.R[p] != want.R[p] {
			t.Fatalf("path %d: served %v, offline %v", p, res.Decision.Config.R[p], want.R[p])
		}
	}
	srv.Close()
	r, err := tracestore.Open(filepath.Join(dir, "pod.fgt"))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.Len() != before+1 {
		t.Fatalf("spool holds %d snapshots, want %d", r.Len(), before+1)
	}
}

// TestSpoolTracestoreSeries: the unlabeled figret_tracestore_* series of
// a Telemetry registry are the sum of what its controllers' spool writers
// count — each one's header and records, and the recovery walk of a
// restart, which is the only read: it checks each record once and hands
// the window back, so no reader reloads it. A registry without spools
// shows none.
func TestSpoolTracestoreSeries(t *testing.T) {
	ps, tr, m := fixture(t, 60, 1)
	reg := NewRegistry()
	for _, topo := range []string{"a", "b"} {
		if err := reg.AddTopology(topo, ps); err != nil {
			t.Fatal(err)
		}
		if _, err := reg.Install(topo, m, "bootstrap"); err != nil {
			t.Fatal(err)
		}
	}
	run := func(topo string, opt ControllerOptions, from, to int) *Controller {
		c, err := NewController(topo, reg, opt)
		if err != nil {
			t.Fatal(err)
		}
		for i := from; i < to; i++ {
			if _, err := c.Ingest(tr.At(i), true); err != nil {
				t.Fatal(err)
			}
		}
		c.Close()
		return c
	}
	scrape := func(r *obs.Registry) string {
		var sb strings.Builder
		if err := r.WritePrometheus(&sb); err != nil {
			t.Fatal(err)
		}
		return sb.String()
	}

	quiet := obs.NewRegistry()
	run("a", ControllerOptions{HistoryCap: 8, Telemetry: NewTelemetry(quiet)}, 0, 5)
	if page := scrape(quiet); strings.Contains(page, "figret_tracestore_") {
		t.Errorf("a registry without spools shows trace-store series:\n%s", page)
	}

	metrics := obs.NewRegistry()
	opt := ControllerOptions{HistoryCap: 8, Spool: t.TempDir(), Telemetry: NewTelemetry(metrics)}
	run("a", opt, 0, 10)
	run("b", opt, 0, 5)
	run("a", opt, 10, 13) // the one recovery

	// What each handle counts, read off a probe store over the same
	// vertex count: a header, the flush of one snapshot record, and the
	// read of one record.
	probePath := filepath.Join(t.TempDir(), "probe.fgt")
	probe, err := tracestore.Create(probePath, ps.Pairs.N(), tracestore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	header := probe.Stats().BytesWritten
	if err := probe.Append(tr.At(0)); err != nil {
		t.Fatal(err)
	}
	if err := probe.Close(); err != nil {
		t.Fatal(err)
	}
	flush := probe.Stats().BytesWritten - header
	pr, err := tracestore.Open(probePath)
	if err != nil {
		t.Fatal(err)
	}
	defer pr.Close()
	if _, err := pr.At(0); err != nil {
		t.Fatal(err)
	}
	record := pr.Stats().BytesRead
	// Writers: two new stores, one record flushed per synchronous ingest.
	// Recovery: the walk checks a's 10 records, once each.
	var want tracestore.CounterStats
	want.BlocksWritten = 10 + 5 + 3
	want.BytesWritten = 2*header + want.BlocksWritten*flush
	want.BlocksVerified = 10
	want.BytesRead = want.BlocksVerified * record
	page := scrape(metrics)
	for _, c := range []struct {
		series string
		want   uint64
	}{
		{"figret_tracestore_blocks_written_total", want.BlocksWritten},
		{"figret_tracestore_bytes_written_total", want.BytesWritten},
		{"figret_tracestore_blocks_verified_total", want.BlocksVerified},
		{"figret_tracestore_bytes_read_total", want.BytesRead},
	} {
		if got := promValue(t, page, c.series); got != c.want {
			t.Errorf("%s = %d, want %d", c.series, got, c.want)
		}
	}
	if strings.Contains(page, "figret_tracestore_opens_total") {
		t.Errorf("a restart opened a reader series:\n%s", page)
	}
}
