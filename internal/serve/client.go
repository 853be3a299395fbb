package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"time"

	"figret/internal/wire"
)

// defaultHTTPClient is the shared transport for clients without an
// explicit one: dial and response-header timeouts, an overall request
// deadline, and a keep-alive pool sized for replay-rate request streams.
// http.DefaultClient has none of these — a hung server would hang the
// caller forever and every closed-loop request could pay a fresh dial.
var defaultHTTPClient = &http.Client{
	Timeout: 2 * time.Minute,
	Transport: &http.Transport{
		DialContext: (&net.Dialer{
			Timeout:   10 * time.Second,
			KeepAlive: 30 * time.Second,
		}).DialContext,
		MaxIdleConns:          128,
		MaxIdleConnsPerHost:   64,
		IdleConnTimeout:       90 * time.Second,
		ResponseHeaderTimeout: 1 * time.Minute,
		ExpectContinueTimeout: 1 * time.Second,
	},
}

// Client is a thin typed wrapper over the serving API, used by the
// closed-loop replay harness, cmd/served's drive mode and the serving
// example.
type Client struct {
	// BaseURL is the server root, e.g. "http://127.0.0.1:8080".
	BaseURL string
	// HTTP is the transport (a shared client with sane timeouts and a
	// keep-alive pool when nil).
	HTTP *http.Client
	// Binary switches the snapshot and routing hot paths to the
	// content-negotiated wire codec over plain HTTP requests (the same
	// endpoints; bodies and responses are binary frames instead of
	// JSON). Checkpoint, metrics and topology management stay JSON.
	Binary bool
}

// NewClient returns a client for the server at baseURL.
func NewClient(baseURL string) *Client {
	return &Client{BaseURL: baseURL}
}

func (c *Client) http() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return defaultHTTPClient
}

// do issues one request and decodes the JSON response into a zero out
// (skipped when out is nil).
func (c *Client) do(method, path string, body, out any) error {
	var rd io.Reader
	if body != nil {
		data, err := json.Marshal(body)
		if err != nil {
			return err
		}
		rd = bytes.NewReader(data)
	}
	req, err := http.NewRequest(method, c.BaseURL+path, rd)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.http().Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	buf := bodyBufPool.Get().(*bytes.Buffer)
	buf.Reset()
	defer putBodyBuf(buf)
	if _, err := buf.ReadFrom(io.LimitReader(resp.Body, maxBodyBytes)); err != nil {
		return err
	}
	data := buf.Bytes()
	if resp.StatusCode >= 400 {
		return apiError(method, path, resp.StatusCode, data)
	}
	if out == nil {
		return nil
	}
	if rr, ok := out.(*RoutingResponse); ok {
		return decodeRoutingJSON(data, rr)
	}
	return json.Unmarshal(data, out)
}

// apiError decodes the server's JSON error body (errors are JSON on
// every surface, binary included).
func apiError(method, path string, status int, body []byte) error {
	var e struct {
		Error string `json:"error"`
	}
	if json.Unmarshal(body, &e) == nil && e.Error != "" {
		return fmt.Errorf("serve: %s %s: %s (status %d)", method, path, e.Error, status)
	}
	return fmt.Errorf("serve: %s %s: status %d", method, path, status)
}

// doWire issues one content-negotiated binary request: build (when
// non-nil) borrows a pooled encoder for the request frame, and the
// response body is decoded as a full decision frame. A 202 (async ack)
// returns (nil, nil).
func (c *Client) doWire(method, path, topo string, build func(e *wire.Encoder) []byte) (*RoutingResponse, error) {
	e := wireEncPool.Get().(*wire.Encoder)
	var rd io.Reader
	if build != nil {
		rd = bytes.NewReader(build(e))
	}
	req, err := http.NewRequest(method, c.BaseURL+path, rd)
	if err != nil {
		wireEncPool.Put(e)
		return nil, err
	}
	if build != nil {
		req.Header.Set("Content-Type", wire.MediaType)
	}
	req.Header.Set("Accept", wire.MediaType)
	resp, err := c.http().Do(req)
	// Do has fully consumed the request body (a bytes.Reader) by the
	// time it returns, so the encoder's buffer is free again.
	wireEncPool.Put(e)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, maxBodyBytes))
	if err != nil {
		return nil, err
	}
	if resp.StatusCode >= 400 {
		return nil, apiError(method, path, resp.StatusCode, data)
	}
	if resp.StatusCode == http.StatusAccepted {
		return nil, nil
	}
	t, payload, err := wire.DecodeFrame(data)
	if err != nil {
		return nil, fmt.Errorf("serve: %s %s: %w", method, path, err)
	}
	if t != wire.TDecision {
		return nil, fmt.Errorf("serve: %s %s: unexpected %s frame", method, path, t)
	}
	var d wire.Decision
	if err := wire.DecodeDecision(payload, &d); err != nil {
		return nil, fmt.Errorf("serve: %s %s: %w", method, path, err)
	}
	return wireToRouting(topo, &d), nil
}

// wireToRouting converts a decoded wire decision into the JSON
// surface's response type. Ratios are copied (wire decode buffers are
// reused); a zero AtUnixNanos maps back to the zero time so warming
// responses match the JSON path field for field.
func wireToRouting(topo string, d *wire.Decision) *RoutingResponse {
	out := &RoutingResponse{
		Topology:     topo,
		Seq:          d.Seq,
		Snapshot:     d.Snapshot,
		Version:      d.Version,
		Rerouted:     d.Rerouted,
		ChurnLimited: d.ChurnLimited,
		Warming:      d.Warming,
	}
	if len(d.Ratios) > 0 {
		out.Ratios = append([]float64(nil), d.Ratios...)
	}
	if d.AtUnixNanos != 0 {
		out.At = time.Unix(0, d.AtUnixNanos)
	}
	return out
}

// Topologies lists served topology names.
func (c *Client) Topologies() ([]string, error) {
	var out struct {
		Topologies []string `json:"topologies"`
	}
	err := c.do(http.MethodGet, "/v1/topologies", nil, &out)
	return out.Topologies, err
}

// PostSnapshot ingests one demand snapshot synchronously and returns the
// decision computed from the window ending at it.
func (c *Client) PostSnapshot(topo string, demand []float64) (*RoutingResponse, error) {
	if c.Binary {
		out, err := c.doWire(http.MethodPost, "/v1/topologies/"+topo+"/snapshots", topo,
			func(e *wire.Encoder) []byte { return e.Snapshot(&wire.Snapshot{Demand: demand}) })
		if err != nil {
			return nil, err
		}
		if out == nil {
			return nil, fmt.Errorf("serve: sync snapshot answered with an ack")
		}
		return out, nil
	}
	var out RoutingResponse
	err := c.do(http.MethodPost, "/v1/topologies/"+topo+"/snapshots", SnapshotRequest{Demand: demand}, &out)
	if err != nil {
		return nil, err
	}
	return &out, nil
}

// Routing returns the topology's currently published decision.
func (c *Client) Routing(topo string) (*RoutingResponse, error) {
	if c.Binary {
		return c.doWire(http.MethodGet, "/v1/topologies/"+topo+"/routing", topo, nil)
	}
	var out RoutingResponse
	err := c.do(http.MethodGet, "/v1/topologies/"+topo+"/routing", nil, &out)
	if err != nil {
		return nil, err
	}
	return &out, nil
}

// ReportFailures installs the failed-link set (empty clears) and returns
// the rerouted decision.
func (c *Client) ReportFailures(topo string, links [][2]int) (*RoutingResponse, error) {
	if links == nil {
		links = [][2]int{}
	}
	var out RoutingResponse
	err := c.do(http.MethodPost, "/v1/topologies/"+topo+"/failures", FailuresRequest{Links: links}, &out)
	if err != nil {
		return nil, err
	}
	return &out, nil
}

// UploadCheckpoint uploads serialized model JSON (figret.MarshalJSON)
// and activates it.
func (c *Client) UploadCheckpoint(topo string, model []byte) (*CheckpointResponse, error) {
	var out CheckpointResponse
	// RawMessage passes the already-serialized checkpoint through do's
	// marshal step verbatim.
	err := c.do(http.MethodPost, "/v1/topologies/"+topo+"/checkpoints", json.RawMessage(model), &out)
	if err != nil {
		return nil, err
	}
	return &out, nil
}

// Rollback re-activates the checkpoint preceding the active one.
func (c *Client) Rollback(topo string) (*CheckpointResponse, error) {
	var out CheckpointResponse
	err := c.do(http.MethodPost, "/v1/topologies/"+topo+"/checkpoints/rollback", nil, &out)
	if err != nil {
		return nil, err
	}
	return &out, nil
}

// Checkpoints lists the topology's registered checkpoints.
func (c *Client) Checkpoints(topo string) ([]CheckpointInfo, error) {
	var out struct {
		Checkpoints []CheckpointInfo `json:"checkpoints"`
	}
	err := c.do(http.MethodGet, "/v1/topologies/"+topo+"/checkpoints", nil, &out)
	return out.Checkpoints, err
}

// Metrics returns every topology's serving counters.
func (c *Client) Metrics() (map[string]Metrics, error) {
	var out map[string]Metrics
	err := c.do(http.MethodGet, "/v1/metrics", nil, &out)
	return out, err
}
