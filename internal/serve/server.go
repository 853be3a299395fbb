package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"figret/internal/wire"
)

// maxBodyBytes bounds snapshot and failure-report bodies.
const maxBodyBytes = 64 << 20

// maxCheckpointBytes bounds checkpoint uploads: the JSON weights of the
// fast-scale large-wan model are 79 MB, so the daemon's own bootstrap
// checkpoint has to fit with room for full-scale fabrics.
const maxCheckpointBytes = 512 << 20

// Server shards the HTTP/JSON API across per-topology controllers: every
// request is routed by its {topo} path element to that topology's
// controller, so topologies never contend — one topology's retrain or
// ingest burst cannot delay another's decisions.
//
// API surface (JSON; the snapshot and routing endpoints also speak the
// binary wire codec, and /v1/wire is binary only — see below):
//
//	GET  /v1/topologies                           list served topologies
//	POST /v1/topologies/{topo}/snapshots          ingest a demand snapshot
//	GET  /v1/topologies/{topo}/routing            current routing decision
//	POST /v1/topologies/{topo}/failures           report failed links ([] clears)
//	GET  /v1/topologies/{topo}/checkpoints        list model checkpoints
//	POST /v1/topologies/{topo}/checkpoints        upload + activate a checkpoint
//	POST /v1/topologies/{topo}/checkpoints/rollback  roll back to the previous one
//	GET  /v1/metrics                              per-topology serving metrics
//	GET  /v1/wire                                 upgrade to the binary stream
//
// Snapshot ingest is synchronous by default — the response carries the
// decision computed from the window ending at the posted snapshot —
// matching offline inference snapshot for snapshot. With "async": true
// the server acknowledges immediately and bursts coalesce into one
// decision on the newest window.
//
// Next to the JSON surface the server speaks the compact binary wire
// protocol (internal/wire) on the same listener, content-negotiated:
// the snapshot and routing endpoints accept binary request bodies
// (Content-Type wire.MediaType) and answer in kind (Accept
// wire.MediaType), and GET /v1/wire upgrades the connection to the
// persistent pipelined stream with delta-encoded decisions that
// BinClient drives. The JSON API is byte-for-byte untouched — binary is
// a purely additive fast path.
type Server struct {
	reg *Registry
	mux *http.ServeMux
	tel *Telemetry

	mu          sync.RWMutex
	controllers map[string]*Controller
	wireConns   map[net.Conn]struct{}
	wireClosed  bool
}

// NewServer builds a server over reg. Topologies are added with Add.
func NewServer(reg *Registry) *Server {
	s := &Server{
		reg:         reg,
		mux:         http.NewServeMux(),
		controllers: make(map[string]*Controller),
	}
	s.mux.HandleFunc("GET /v1/topologies", s.handleTopologies)
	s.mux.HandleFunc("POST /v1/topologies/{topo}/snapshots", s.handleSnapshot)
	s.mux.HandleFunc("GET /v1/topologies/{topo}/routing", s.handleRouting)
	s.mux.HandleFunc("POST /v1/topologies/{topo}/failures", s.handleFailures)
	s.mux.HandleFunc("GET /v1/topologies/{topo}/checkpoints", s.handleListCheckpoints)
	s.mux.HandleFunc("POST /v1/topologies/{topo}/checkpoints", s.handleUploadCheckpoint)
	s.mux.HandleFunc("POST /v1/topologies/{topo}/checkpoints/rollback", s.handleRollback)
	s.mux.HandleFunc("GET /v1/metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /v1/wire", s.handleWire)
	return s
}

// UseTelemetry attaches the observability instrument set: transport
// request timing on the server, install/rollback counters on the
// registry, and — for controllers added afterwards without their own
// Telemetry option — the registry their decision instruments export
// through. Call before Add. With a nil Telemetry (the default) transports
// and the registry go unobserved and each controller keeps its
// instruments on a private registry, visible only as GET /v1/metrics.
func (s *Server) UseTelemetry(t *Telemetry) {
	s.mu.Lock()
	s.tel = t
	s.mu.Unlock()
	s.reg.SetTelemetry(t)
}

// Add starts a controller for a topology already registered in the
// registry (see Registry.AddTopology) and shards the API to it.
func (s *Server) Add(topo string, opt ControllerOptions) (*Controller, error) {
	// The lock is held across construction: NewController opens the
	// topology's spool for appending and recovers its tail, so a
	// duplicate must be refused before it gets a second writer on the
	// served controller's live spool file.
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.controllers[topo]; ok {
		return nil, fmt.Errorf("serve: topology %q already served", topo)
	}
	if opt.Telemetry == nil {
		opt.Telemetry = s.tel
	}
	c, err := NewController(topo, s.reg, opt)
	if err != nil {
		return nil, err
	}
	s.controllers[topo] = c
	return c, nil
}

// Controller returns the named topology's controller, or nil.
func (s *Server) Controller(topo string) *Controller {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.controllers[topo]
}

// Close stops every controller and drops every upgraded wire stream.
// It is Shutdown without a deadline.
func (s *Server) Close() { _ = s.Shutdown(context.Background()) }

// Shutdown gracefully drains the server: upgraded wire streams are
// closed first (hijacked connections live outside the HTTP server's
// lifecycle, so they must be reached explicitly), then every controller
// is closed concurrently — each finishes the message it is processing
// and answers queued sync requests with ErrClosed so no client hangs.
// The drain is bounded by ctx; on deadline the controllers keep
// draining in the background and ctx.Err() is returned.
func (s *Server) Shutdown(ctx context.Context) error {
	s.closeWireConns()
	s.mu.Lock()
	ctrls := s.controllers
	s.controllers = make(map[string]*Controller)
	s.mu.Unlock()
	done := make(chan struct{})
	go func() {
		defer close(done)
		var wg sync.WaitGroup
		for _, c := range ctrls {
			wg.Add(1)
			go func(c *Controller) {
				defer wg.Done()
				c.Close()
			}(c)
		}
		wg.Wait()
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Ready reports whether the server is ready to serve real decisions:
// every expected topology (every currently served one when none are
// named) must have a controller that has published at least one
// non-bootstrap decision. The returned error names the first unready
// topology — the body of the daemon's 503 /readyz response.
func (s *Server) Ready(expected ...string) error {
	s.mu.RLock()
	if len(expected) == 0 {
		expected = make([]string, 0, len(s.controllers))
		for name := range s.controllers {
			expected = append(expected, name)
		}
		sort.Strings(expected)
	}
	ctrls := make([]*Controller, len(expected))
	for i, name := range expected {
		ctrls[i] = s.controllers[name]
	}
	s.mu.RUnlock()
	if len(expected) == 0 {
		return errors.New("no topologies served")
	}
	for i, c := range ctrls {
		if c == nil {
			return fmt.Errorf("topology %q not serving yet", expected[i])
		}
		if !c.Ready() {
			return fmt.Errorf("topology %q has not served a decision yet", expected[i])
		}
	}
	return nil
}

// Handler returns the HTTP handler (the server itself is not a handler
// so construction stays explicit).
func (s *Server) Handler() http.Handler { return s.mux }

// --- wire types ---------------------------------------------------------

// SnapshotRequest is the ingest body.
type SnapshotRequest struct {
	// Demand is the flat pair-indexed demand vector (te.Pairs layout).
	Demand []float64 `json:"demand"`
	// Async acknowledges without waiting for the decision.
	Async bool `json:"async,omitempty"`
}

// RoutingResponse describes a published decision (and doubles as the
// sync-ingest response).
type RoutingResponse struct {
	Topology     string    `json:"topology"`
	Seq          int64     `json:"seq"`
	Snapshot     int64     `json:"snapshot"`
	Version      int       `json:"version"`
	Ratios       []float64 `json:"ratios,omitempty"`
	Rerouted     bool      `json:"rerouted,omitempty"`
	ChurnLimited bool      `json:"churn_limited,omitempty"`
	Warming      bool      `json:"warming,omitempty"`
	At           time.Time `json:"at"`
}

// FailuresRequest reports failed undirected links by vertex pair.
type FailuresRequest struct {
	Links [][2]int `json:"links"`
}

// CheckpointResponse acknowledges an upload or rollback.
type CheckpointResponse struct {
	Topology string `json:"topology"`
	Version  int    `json:"version"`
	Source   string `json:"source"`
}

func routingResponse(topo string, d *Decision, withRatios bool) RoutingResponse {
	out := RoutingResponse{
		Topology:     topo,
		Seq:          d.Seq,
		Snapshot:     d.Snapshot,
		Version:      d.Version,
		Rerouted:     d.Rerouted,
		ChurnLimited: d.ChurnLimited,
		At:           d.At,
	}
	if withRatios {
		out.Ratios = d.Config.R // immutable by the Decision contract
	}
	return out
}

// --- handlers -----------------------------------------------------------

// telemetry returns the attached instrument set (nil when unobserved).
func (s *Server) telemetry() *Telemetry {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.tel
}

func (s *Server) controllerOr404(w http.ResponseWriter, r *http.Request) *Controller {
	topo := r.PathValue("topo")
	c := s.Controller(topo)
	if c == nil {
		httpError(w, http.StatusNotFound, fmt.Sprintf("unknown topology %q", topo))
	}
	return c
}

func (s *Server) handleTopologies(w http.ResponseWriter, r *http.Request) {
	s.mu.RLock()
	names := make([]string, 0, len(s.controllers))
	for name := range s.controllers {
		names = append(names, name)
	}
	s.mu.RUnlock()
	sort.Strings(names)
	writeJSON(w, http.StatusOK, map[string][]string{"topologies": names})
}

func (s *Server) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	c := s.controllerOr404(w, r)
	if c == nil {
		return
	}
	if tel := s.telemetry(); tel != nil {
		name := transportJSON
		if isWireRequest(r) || wantsWire(r) {
			name = transportBinHTTP
		}
		defer func(start time.Time) {
			tel.transport(name).observe(time.Since(start))
		}(time.Now())
	}
	var req SnapshotRequest
	if isWireRequest(r) {
		if !readWireSnapshot(w, r, &req) {
			return
		}
	} else {
		// Ingest copies the demand, so a JSON body decodes into scratch.
		p := floatsPool.Get().(*[]float64)
		req.Demand = *p
		defer func() { putFloats(p, req.Demand) }()
		buf := readBody(w, r)
		if buf == nil {
			return
		}
		err := decodeSnapshotJSON(buf.Bytes(), &req)
		putBodyBuf(buf)
		if err != nil {
			httpError(w, http.StatusBadRequest, err.Error())
			return
		}
	}
	res, err := c.Ingest(req.Demand, !req.Async)
	if err != nil {
		// Only caller faults (malformed demand) are 4xx; lifecycle and
		// configuration conditions are the server's.
		httpError(w, statusOf(err, http.StatusBadRequest), err.Error())
		return
	}
	if req.Async {
		writeJSON(w, http.StatusAccepted, map[string]bool{"queued": true})
		return
	}
	if res.Decision == nil {
		if wantsWire(r) {
			writeWireDecision(w, http.StatusOK, &wire.Decision{Snapshot: res.Snapshot, Warming: true})
			return
		}
		writeJSON(w, http.StatusOK, RoutingResponse{Topology: c.Topology(), Snapshot: res.Snapshot, Warming: true})
		return
	}
	if wantsWire(r) {
		writeWireDecision(w, http.StatusOK, wireDecision(res.Decision))
		return
	}
	writeJSON(w, http.StatusOK, routingResponse(c.Topology(), res.Decision, true))
}

func (s *Server) handleRouting(w http.ResponseWriter, r *http.Request) {
	c := s.controllerOr404(w, r)
	if c == nil {
		return
	}
	if wantsWire(r) {
		writeWireDecision(w, http.StatusOK, wireDecision(c.Decision()))
		return
	}
	writeJSON(w, http.StatusOK, routingResponse(c.Topology(), c.Decision(), true))
}

func (s *Server) handleFailures(w http.ResponseWriter, r *http.Request) {
	c := s.controllerOr404(w, r)
	if c == nil {
		return
	}
	var req FailuresRequest
	if !readJSON(w, r, &req) {
		return
	}
	if err := c.ReportFailures(req.Links); err != nil {
		// A link the topology lacks is the caller's fault; lifecycle
		// conditions are the server's.
		httpError(w, statusOf(err, http.StatusBadRequest), err.Error())
		return
	}
	writeJSON(w, http.StatusOK, routingResponse(c.Topology(), c.Decision(), true))
}

func (s *Server) handleListCheckpoints(w http.ResponseWriter, r *http.Request) {
	c := s.controllerOr404(w, r)
	if c == nil {
		return
	}
	writeJSON(w, http.StatusOK, map[string][]CheckpointInfo{"checkpoints": s.reg.List(c.Topology())})
}

func (s *Server) handleUploadCheckpoint(w http.ResponseWriter, r *http.Request) {
	c := s.controllerOr404(w, r)
	if c == nil {
		return
	}
	data, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxCheckpointBytes))
	if err != nil {
		bodyReadError(w, err)
		return
	}
	ck, err := s.reg.Upload(c.Topology(), data, "upload")
	if err != nil {
		httpError(w, http.StatusUnprocessableEntity, err.Error())
		return
	}
	writeJSON(w, http.StatusCreated, CheckpointResponse{Topology: c.Topology(), Version: ck.Version, Source: ck.Source})
}

func (s *Server) handleRollback(w http.ResponseWriter, r *http.Request) {
	c := s.controllerOr404(w, r)
	if c == nil {
		return
	}
	ck, err := s.reg.Rollback(c.Topology())
	if err != nil {
		httpError(w, http.StatusConflict, err.Error())
		return
	}
	writeJSON(w, http.StatusOK, CheckpointResponse{Topology: c.Topology(), Version: ck.Version, Source: ck.Source})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.mu.RLock()
	out := make(map[string]Metrics, len(s.controllers))
	for name, c := range s.controllers {
		out[name] = c.Metrics()
	}
	s.mu.RUnlock()
	writeJSON(w, http.StatusOK, out)
}

// --- JSON + wire plumbing -----------------------------------------------

// bodyBufPool recycles request-read and response-encode buffers: a
// burst of large snapshot posts reuses a handful of buffers instead of
// allocating per request. Buffers that ballooned (multi-MB checkpoint
// uploads) are dropped rather than pinned.
var bodyBufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

const maxPooledBuf = 1 << 20

func putBodyBuf(buf *bytes.Buffer) {
	if buf.Cap() <= maxPooledBuf {
		bodyBufPool.Put(buf)
	}
}

// bodyReadError answers a failed body read. MaxBytesReader makes an
// oversized body an explicit error rather than a silent truncation that
// would surface as a baffling parse failure, and only that is 413; any
// other read failure (a client that hung up mid-body) is the client's,
// but not for size.
func bodyReadError(w http.ResponseWriter, err error) {
	status := http.StatusBadRequest
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		status = http.StatusRequestEntityTooLarge
	}
	httpError(w, status, err.Error())
}

// readBody reads a bounded request body into a pooled buffer (callers
// must return it with putBodyBuf). A failed read is answered here and
// returns nil.
func readBody(w http.ResponseWriter, r *http.Request) *bytes.Buffer {
	buf := bodyBufPool.Get().(*bytes.Buffer)
	buf.Reset()
	if _, err := buf.ReadFrom(http.MaxBytesReader(w, r.Body, maxBodyBytes)); err != nil {
		putBodyBuf(buf)
		bodyReadError(w, err)
		return nil
	}
	return buf
}

func readJSON(w http.ResponseWriter, r *http.Request, v any) bool {
	buf := readBody(w, r)
	if buf == nil {
		return false
	}
	err := json.Unmarshal(buf.Bytes(), v)
	putBodyBuf(buf)
	if err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return false
	}
	return true
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	buf := bodyBufPool.Get().(*bytes.Buffer)
	buf.Reset()
	if err := json.NewEncoder(buf).Encode(v); err != nil {
		putBodyBuf(buf)
		httpError(w, http.StatusInternalServerError, err.Error())
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(buf.Bytes())
	putBodyBuf(buf)
}

// isWireRequest reports a binary-framed request body.
func isWireRequest(r *http.Request) bool {
	return strings.HasPrefix(r.Header.Get("Content-Type"), wire.MediaType)
}

// wantsWire reports that the client negotiated a binary response.
func wantsWire(r *http.Request) bool {
	return strings.Contains(r.Header.Get("Accept"), wire.MediaType)
}

// readWireSnapshot decodes a binary snapshot-ingest body into req.
func readWireSnapshot(w http.ResponseWriter, r *http.Request, req *SnapshotRequest) bool {
	buf := readBody(w, r)
	if buf == nil {
		return false
	}
	defer putBodyBuf(buf)
	t, payload, err := wire.DecodeFrame(buf.Bytes())
	if err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return false
	}
	if t != wire.TSnapshot {
		httpError(w, http.StatusBadRequest, fmt.Sprintf("expected %s frame, got %s", wire.TSnapshot, t))
		return false
	}
	var m wire.Snapshot
	if err := wire.DecodeSnapshot(payload, &m); err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return false
	}
	req.Demand = m.Demand
	req.Async = m.Async
	return true
}

func httpError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, map[string]string{"error": msg})
}
