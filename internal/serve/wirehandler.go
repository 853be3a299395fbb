package serve

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"net/http"
	"strings"
	"sync"
	"time"

	"figret/internal/wire"
)

// wireWriteBufSize sizes the per-connection buffered writer of the
// upgraded stream; pipelined responses coalesce into few syscalls and
// flush when the inbound pipeline drains.
const wireWriteBufSize = 64 << 10

// handleWire upgrades the HTTP connection to the persistent binary
// stream protocol (Upgrade: figret-wire) and serves pipelined wire
// frames on it until the peer disconnects or the server closes. The
// stream rides the same listener as the JSON API, so deployment is one
// port and the JSON surface stays untouched.
func (s *Server) handleWire(w http.ResponseWriter, r *http.Request) {
	if !strings.EqualFold(r.Header.Get("Upgrade"), wire.UpgradeProtocol) {
		w.Header().Set("Upgrade", wire.UpgradeProtocol)
		httpError(w, http.StatusUpgradeRequired, fmt.Sprintf("upgrade to %q required", wire.UpgradeProtocol))
		return
	}
	hj, ok := w.(http.Hijacker)
	if !ok {
		httpError(w, http.StatusInternalServerError, "connection cannot be hijacked")
		return
	}
	conn, brw, err := hj.Hijack()
	if err != nil {
		httpError(w, http.StatusInternalServerError, err.Error())
		return
	}
	// The HTTP server's read/write deadlines belong to the request
	// cycle, not the long-lived stream.
	conn.SetDeadline(time.Time{})
	if _, err := brw.WriteString("HTTP/1.1 101 Switching Protocols\r\nUpgrade: " +
		wire.UpgradeProtocol + "\r\nConnection: Upgrade\r\n\r\n"); err != nil {
		conn.Close()
		return
	}
	if err := brw.Flush(); err != nil {
		conn.Close()
		return
	}
	if !s.trackWireConn(conn) {
		conn.Close() // server already closed
		return
	}
	defer s.untrackWireConn(conn)
	s.serveWire(conn, brw.Reader)
}

// trackWireConn registers an upgraded connection for shutdown; it
// reports false when the server is already closed (hijacked conns are
// outside the HTTP server's lifecycle, so Server.Close must reach them
// explicitly).
func (s *Server) trackWireConn(conn net.Conn) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.wireClosed {
		return false
	}
	if s.wireConns == nil {
		s.wireConns = make(map[net.Conn]struct{})
	}
	s.wireConns[conn] = struct{}{}
	return true
}

func (s *Server) untrackWireConn(conn net.Conn) {
	s.mu.Lock()
	delete(s.wireConns, conn)
	s.mu.Unlock()
	conn.Close()
}

// closeWireConns force-closes every upgraded stream (called by
// Server.Close; their serveWire loops then return on read error).
func (s *Server) closeWireConns() {
	s.mu.Lock()
	s.wireClosed = true
	conns := make([]net.Conn, 0, len(s.wireConns))
	for c := range s.wireConns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	for _, c := range conns {
		c.Close()
	}
}

// wireSession is one upgraded connection's state: the bound controller
// and reusable codec buffers (per-connection buffer reuse — zero
// steady-state allocations on the snapshot→decision hot path).
type wireSession struct {
	s   *Server
	c   *Controller
	tel *Telemetry
	enc wire.Encoder
	dec wire.Decoder

	// Reused decode target.
	snap wire.Snapshot
}

// serveWire runs the frame loop on an upgraded connection: frames are
// processed strictly in order (pipelined requests get pipelined
// responses, one frame each), and the write buffer flushes when the
// inbound pipeline drains — a full pipeline pays one syscall per batch,
// an idle one flushes per response.
func (s *Server) serveWire(conn net.Conn, br *bufio.Reader) {
	defer conn.Close()
	tel := s.telemetry()
	tel.wireConnOpen()
	defer tel.wireConnClose()
	bw := bufio.NewWriterSize(conn, wireWriteBufSize)
	ws := &wireSession{s: s, tel: tel}
	for {
		t, payload, err := ws.dec.ReadFrame(br)
		if err != nil {
			// Clean EOF, peer reset, or a corrupt frame: a framing error
			// leaves the stream unsynchronized, so the only safe answer
			// is to drop the connection (the client redials).
			return
		}
		frame, fatal := ws.handle(t, payload)
		if frame != nil {
			if _, err := bw.Write(frame); err != nil {
				return
			}
		}
		if fatal || br.Buffered() == 0 {
			if bw.Flush() != nil {
				return
			}
		}
		if fatal {
			return
		}
	}
}

// handle processes one frame and returns the response frame (a view
// into ws.enc, valid until the next call) plus whether the connection
// must close after writing it.
func (ws *wireSession) handle(t wire.MsgType, payload []byte) (frame []byte, fatal bool) {
	switch t {
	case wire.THello:
		var h wire.Hello
		if err := wire.DecodeHello(payload, &h); err != nil {
			return ws.errorFrame(http.StatusBadRequest, err.Error()), true
		}
		if ws.c != nil {
			return ws.errorFrame(http.StatusBadRequest, "connection already bound"), true
		}
		c := ws.s.Controller(h.Topo)
		if c == nil {
			return ws.errorFrame(http.StatusNotFound, fmt.Sprintf("unknown topology %q", h.Topo)), true
		}
		ws.c = c
		return ws.enc.HelloAck(&wire.HelloAck{Pairs: c.ps.Pairs.Count(), Paths: c.ps.NumPaths()}), false

	case wire.TSnapshot:
		if ws.c == nil {
			return ws.errorFrame(http.StatusBadRequest, "hello required before requests"), true
		}
		if err := wire.DecodeSnapshot(payload, &ws.snap); err != nil {
			return ws.errorFrame(http.StatusBadRequest, err.Error()), true
		}
		start := time.Now()
		res, err := ws.c.Ingest(ws.snap.Demand, !ws.snap.Async)
		if err != nil {
			return ws.errorFrame(statusOf(err, http.StatusBadRequest), err.Error()), errors.Is(err, ErrClosed)
		}
		if ws.snap.Async {
			ws.tel.transport(transportWire).observe(time.Since(start))
			return ws.enc.Ack(), false
		}
		if res.Decision == nil {
			// Warming: no ratios yet.
			ws.tel.transport(transportWire).observe(time.Since(start))
			return ws.enc.Decision(&wire.Decision{Snapshot: res.Snapshot, Warming: true}), false
		}
		frame := ws.enc.Decision(wireDecision(res.Decision))
		ws.tel.wireDecisionSent()
		ws.tel.transport(transportWire).observe(time.Since(start))
		return frame, false

	default:
		return ws.errorFrame(http.StatusBadRequest, fmt.Sprintf("unexpected %s frame", t)), true
	}
}

func (ws *wireSession) errorFrame(code int, msg string) []byte {
	return ws.enc.Error(&wire.ErrorMsg{Code: code, Msg: msg})
}

// statusOf classifies a controller error for both surfaces' snapshot and
// failure routes: the lifecycle and configuration conditions are the
// server's (503 closed, 500 never servable); anything else is fallback —
// 400 where only the caller's input can be at fault.
func statusOf(err error, fallback int) int {
	switch {
	case errors.Is(err, ErrClosed):
		return http.StatusServiceUnavailable
	case errors.Is(err, ErrNeverServable):
		return http.StatusInternalServerError
	default:
		return fallback
	}
}

// wireEncPool recycles encoders for the content-negotiated HTTP binary
// endpoints (per-request borrow; across keep-alive connections this is
// per-connection buffer reuse without per-conn bookkeeping).
var wireEncPool = sync.Pool{New: func() any { return new(wire.Encoder) }}

// writeWireDecision writes a binary decision frame as an HTTP response
// body.
func writeWireDecision(w http.ResponseWriter, status int, m *wire.Decision) {
	e := wireEncPool.Get().(*wire.Encoder)
	frame := e.Decision(m)
	w.Header().Set("Content-Type", wire.MediaType)
	w.WriteHeader(status)
	w.Write(frame)
	wireEncPool.Put(e)
}

// wireDecision is a published decision's wire form, for both binary
// surfaces. Ratios aliases the decision's Config.R, immutable by the
// Decision contract, so the conversion copies no ratio.
func wireDecision(d *Decision) *wire.Decision {
	return &wire.Decision{
		Seq:          d.Seq,
		Snapshot:     d.Snapshot,
		Version:      d.Version,
		Rerouted:     d.Rerouted,
		ChurnLimited: d.ChurnLimited,
		AtUnixNanos:  d.At.UnixNano(),
		Ratios:       d.Config.R,
	}
}
