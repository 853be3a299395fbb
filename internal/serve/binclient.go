package serve

import (
	"bufio"
	"errors"
	"fmt"
	"math"
	"net"
	"net/textproto"
	"net/url"
	"sort"
	"strings"
	"sync"
	"time"

	"figret/internal/te"
	"figret/internal/wire"
)

// BinClientOptions is DialBin's option set. Nothing about the stream
// client is configurable; the type stays because benchmark/, which
// compiles against this package, passes one.
type BinClientOptions struct{}

const (
	// streamDepth is how many requests Stream keeps in flight. One
	// controller goroutine serialises a topology, so depth only has to
	// cover the socket's latency; the CUBIC window this replaces climbed
	// to its 256 cap within 252 responses and saw 0 congestion events in
	// 15,000 requests on each of geant and pod-db, and pinned at 256 or at
	// 64 it served the same decisions/s within run-to-run spread (geant
	// 1417 adaptive / 1308 / 1319, pod-db 13.6k / 14.5k / 12.4k).
	streamDepth = 256

	// binDialTimeout bounds one TCP connect + upgrade handshake.
	binDialTimeout = 5 * time.Second
	// binReadTimeout bounds one blocking response read.
	binReadTimeout = 30 * time.Second
	// A broken connection is redialed binRedialAttempts times, sleeping
	// binRedialBackoff before the second attempt and twice as long before
	// each one after (350 ms in all), before an operation fails.
	binRedialAttempts = 4
	binRedialBackoff  = 50 * time.Millisecond
)

// BinClient drives the binary wire protocol over one persistent
// upgraded connection: an HTTP Upgrade handshake on the JSON API's own
// listener, then length-prefixed wire frames both ways. Requests
// pipeline (Stream keeps up to streamDepth of them in flight), responses
// arrive strictly in request order, and every decision is a full frame,
// decoded into one reused wire.Decision.
//
// A broken connection redials with exponential backoff. Snapshot ingest
// is therefore at-least-once across redials: a request whose response
// was lost may have been ingested.
//
// A BinClient is not safe for concurrent use; replay and load
// generation are single-driver loops by construction.
type BinClient struct {
	hostport string
	topo     string
	ps       *te.PathSet

	conn net.Conn
	br   *bufio.Reader
	bw   *bufio.Writer
	enc  wire.Encoder
	dec  wire.Decoder

	// decision is the decode target of every decision reply.
	decision wire.Decision

	// Counters (see BinStats).
	fulls, redials uint64
	bytesIn        int64
}

// BinStats reports a client's transport counters.
type BinStats struct {
	// Fulls counts decision frames received. Deltas is always 0: the
	// stream sends full decisions only, and the field stays because
	// benchmark/, which compiles against this package, prints it.
	Deltas, Fulls uint64
	// Redials counts reconnects after broken connections.
	Redials uint64
}

// DialBin connects the binary stream client to the server at baseURL
// (the JSON client's BaseURL, e.g. "http://127.0.0.1:8080") and binds
// it to topo. baseURL may also be a bare host:port. ps must be the
// topology's path set: the hello-ack's pair and path counts are
// validated against it.
func DialBin(baseURL, topo string, ps *te.PathSet, _ BinClientOptions) (*BinClient, error) {
	hostport, err := dialAddr(baseURL)
	if err != nil {
		return nil, err
	}
	c := &BinClient{hostport: hostport, topo: topo, ps: ps}
	if err := c.dial(); err != nil {
		return nil, err
	}
	return c, nil
}

// dialAddr derives the TCP address to dial from a base URL
// ("http://host[:port]", port 80 by default) or a bare "host:port".
func dialAddr(baseURL string) (string, error) {
	if u, err := url.Parse(baseURL); err == nil && u.Host != "" {
		port := u.Port()
		if port == "" {
			port = "80"
		}
		return net.JoinHostPort(u.Hostname(), port), nil
	}
	host, port, err := net.SplitHostPort(baseURL)
	if err != nil {
		return "", fmt.Errorf("serve: bin client: base URL %q is neither http://host[:port] nor host:port", baseURL)
	}
	return net.JoinHostPort(host, port), nil
}

// Stats returns the transport counters.
func (c *BinClient) Stats() BinStats {
	return BinStats{Fulls: c.fulls, Redials: c.redials}
}

// Close drops the connection.
func (c *BinClient) Close() error {
	if c.conn == nil {
		return nil
	}
	err := c.conn.Close()
	c.conn = nil
	return err
}

// dial establishes one connection: TCP connect, HTTP upgrade, hello.
func (c *BinClient) dial() error {
	d := net.Dialer{Timeout: binDialTimeout}
	conn, err := d.Dial("tcp", c.hostport)
	if err != nil {
		return fmt.Errorf("serve: bin client: %w", err)
	}
	conn.SetDeadline(time.Now().Add(binDialTimeout))
	br := bufio.NewReaderSize(conn, wireWriteBufSize)
	if _, err := fmt.Fprintf(conn, "GET /v1/wire HTTP/1.1\r\nHost: %s\r\nConnection: Upgrade\r\nUpgrade: %s\r\n\r\n",
		c.hostport, wire.UpgradeProtocol); err != nil {
		conn.Close()
		return fmt.Errorf("serve: bin client: %w", err)
	}
	tp := textproto.NewReader(br)
	status, err := tp.ReadLine()
	if err != nil {
		conn.Close()
		return fmt.Errorf("serve: bin client: %w", err)
	}
	if !strings.Contains(status, " 101 ") {
		conn.Close()
		return fmt.Errorf("serve: bin client: upgrade refused: %q", status)
	}
	if _, err := tp.ReadMIMEHeader(); err != nil {
		conn.Close()
		return fmt.Errorf("serve: bin client: %w", err)
	}
	// Bind to the topology.
	if _, err := conn.Write(c.enc.Hello(&wire.Hello{Topo: c.topo})); err != nil {
		conn.Close()
		return fmt.Errorf("serve: bin client: %w", err)
	}
	t, payload, err := c.dec.ReadFrame(br)
	if err != nil {
		conn.Close()
		return fmt.Errorf("serve: bin client: hello: %w", err)
	}
	switch t {
	case wire.THelloAck:
		var ack wire.HelloAck
		if err := wire.DecodeHelloAck(payload, &ack); err != nil {
			conn.Close()
			return fmt.Errorf("serve: bin client: %w", err)
		}
		if ack.Pairs != c.ps.Pairs.Count() || ack.Paths != c.ps.NumPaths() {
			conn.Close()
			return fmt.Errorf("serve: bin client: topology %q serves %d pairs / %d paths, local path set has %d / %d",
				c.topo, ack.Pairs, ack.Paths, c.ps.Pairs.Count(), c.ps.NumPaths())
		}
	case wire.TError:
		var em wire.ErrorMsg
		if wire.DecodeError(payload, &em) == nil {
			conn.Close()
			return fmt.Errorf("serve: bin client: %s (status %d)", em.Msg, em.Code)
		}
		conn.Close()
		return fmt.Errorf("serve: bin client: malformed error reply")
	default:
		conn.Close()
		return fmt.Errorf("serve: bin client: unexpected %s reply to hello", t)
	}
	conn.SetDeadline(time.Time{})
	c.conn = conn
	c.br = br
	c.bw = bufio.NewWriterSize(conn, wireWriteBufSize)
	return nil
}

// redial re-establishes a broken connection with exponential backoff.
func (c *BinClient) redial() error {
	c.Close()
	backoff := binRedialBackoff
	var err error
	for i := 0; i < binRedialAttempts; i++ {
		if i > 0 {
			time.Sleep(backoff)
			backoff *= 2
		}
		if err = c.dial(); err == nil {
			c.redials++
			return nil
		}
	}
	return fmt.Errorf("serve: bin client: redial failed after %d attempts: %w", binRedialAttempts, err)
}

func (c *BinClient) ensureConn() error {
	if c.conn != nil {
		return nil
	}
	return c.redial()
}

// wireError is an application-level error answered by the server.
type wireError struct {
	Code int
	Msg  string
}

func (e *wireError) Error() string {
	return fmt.Sprintf("serve: wire: %s (status %d)", e.Msg, e.Code)
}

// readReply reads one response frame and resolves it into either a
// decision (c.decision, overwritten by the next reply), an ack (nil
// decision), or an error.
func (c *BinClient) readReply(deadline time.Time) (*wire.Decision, error) {
	c.conn.SetReadDeadline(deadline)
	t, payload, err := c.dec.ReadFrame(c.br)
	if err != nil {
		return nil, fmt.Errorf("serve: bin client: %w", err)
	}
	c.bytesIn += int64(len(payload)) + wire.FrameOverhead
	switch t {
	case wire.TAck:
		return nil, nil
	case wire.TError:
		var em wire.ErrorMsg
		if err := wire.DecodeError(payload, &em); err != nil {
			return nil, err
		}
		return nil, &wireError{Code: em.Code, Msg: em.Msg}
	case wire.TDecision:
		if err := wire.DecodeDecision(payload, &c.decision); err != nil {
			return nil, err
		}
		c.fulls++
		return &c.decision, nil
	default:
		return nil, fmt.Errorf("serve: bin client: unexpected %s reply", t)
	}
}

// roundTrip sends one request frame and reads its reply, redialing once
// on a transport failure. frame is consumed before redial (it aliases
// the encoder buffer), so build is re-run via the build closure.
func (c *BinClient) roundTrip(build func() []byte) (*wire.Decision, error) {
	if err := c.ensureConn(); err != nil {
		return nil, err
	}
	for attempt := 0; ; attempt++ {
		err := c.writeFlush(build())
		var d *wire.Decision
		if err == nil {
			d, err = c.readReply(time.Now().Add(binReadTimeout))
		}
		if err == nil {
			return d, nil
		}
		var we *wireError
		if errors.As(err, &we) {
			return nil, err // application error: the connection is fine
		}
		if attempt > 0 {
			return nil, err
		}
		// Transport fault: redial once and retry (at-least-once ingest).
		if rerr := c.redial(); rerr != nil {
			return nil, rerr
		}
	}
}

func (c *BinClient) writeFlush(frame []byte) error {
	if _, err := c.bw.Write(frame); err != nil {
		return err
	}
	return c.bw.Flush()
}

// PostSnapshot ingests one demand snapshot synchronously over the
// stream and returns the decision for the window ending at it.
func (c *BinClient) PostSnapshot(demand []float64) (*RoutingResponse, error) {
	d, err := c.roundTrip(func() []byte {
		return c.enc.Snapshot(&wire.Snapshot{Demand: demand})
	})
	if err != nil {
		return nil, err
	}
	if d == nil {
		return nil, fmt.Errorf("serve: bin client: ack for a sync snapshot")
	}
	return wireToRouting(c.topo, d), nil
}

// StreamStats summarizes one pipelined Stream run.
type StreamStats struct {
	// Requests is how many snapshots were sent; Decisions how many
	// decision responses arrived (ack responses to async ingests are
	// counted in Acks).
	Requests, Decisions, Acks int
	// Elapsed is the wall-clock span from first send to last response.
	Elapsed time.Duration
	// MeanRTTMicros / P50RTTMicros / P99RTTMicros summarize per-request
	// round-trip times.
	MeanRTTMicros, P50RTTMicros, P99RTTMicros float64
	// BytesSent / BytesReceived are wire-level frame byte counts.
	BytesSent, BytesReceived int64
}

// Stream pipelines n snapshot ingests through the connection: up to
// streamDepth requests are kept unanswered, and responses are consumed
// concurrently in request order. demand(i) must return the i'th
// snapshot; onDecision, when non-nil, observes every decision in order
// (the pointee is reused — copy to retain).
//
// Stream does not redial mid-run: any transport fault aborts with an
// error, so a load measurement is never silently split across
// connections.
func (c *BinClient) Stream(n int, demand func(i int) []float64, onDecision func(i int, d *wire.Decision)) (*StreamStats, error) {
	return c.stream(n, demand, onDecision, false)
}

// StreamAsync pipelines n asynchronous ingests (the server acks each
// without computing a per-request decision; bursts coalesce
// server-side).
func (c *BinClient) StreamAsync(n int, demand func(i int) []float64) (*StreamStats, error) {
	return c.stream(n, demand, nil, true)
}

func (c *BinClient) stream(n int, demand func(i int) []float64, onDecision func(i int, d *wire.Decision), async bool) (*StreamStats, error) {
	if err := c.ensureConn(); err != nil {
		return nil, err
	}
	stats := &StreamStats{}

	var (
		mu    sync.Mutex
		cond  = sync.NewCond(&mu)
		done  int
		rdErr error
	)
	sendTimes := make([]time.Time, n)
	rtts := make([]time.Duration, 0, n)
	bytesInBase := c.bytesIn

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < n; i++ {
			d, err := c.readReply(time.Now().Add(binReadTimeout))
			now := time.Now()
			if err != nil {
				mu.Lock()
				rdErr = err
				cond.Signal()
				mu.Unlock()
				return
			}
			if d == nil {
				stats.Acks++
			} else {
				stats.Decisions++
				if onDecision != nil {
					onDecision(i, d)
				}
			}
			// The request leaves the pipeline only once its response has
			// been handed over.
			mu.Lock()
			sample := now.Sub(sendTimes[i])
			done++
			cond.Signal()
			mu.Unlock()
			rtts = append(rtts, sample)
		}
	}()

	start := time.Now()
	var sendErr error
	for i := 0; i < n && sendErr == nil; i++ {
		mu.Lock()
		if i-done >= streamDepth && rdErr == nil {
			// The pipeline is full: push buffered requests to the server
			// before blocking on its responses — the requests it would
			// answer may all still sit in the write buffer.
			mu.Unlock()
			sendErr = c.bw.Flush()
			mu.Lock()
			for sendErr == nil && i-done >= streamDepth && rdErr == nil {
				cond.Wait()
			}
		}
		stop := rdErr != nil || sendErr != nil
		sendTimes[i] = time.Now()
		mu.Unlock()
		if stop {
			break
		}
		frame := c.enc.Snapshot(&wire.Snapshot{Demand: demand(i), Async: async})
		stats.BytesSent += int64(len(frame))
		_, sendErr = c.bw.Write(frame)
	}
	if sendErr == nil {
		sendErr = c.bw.Flush()
	}
	if sendErr != nil {
		// Unblock the reader: it will fail its next read promptly.
		c.conn.Close()
	}
	wg.Wait()
	stats.Elapsed = time.Since(start)
	stats.BytesReceived = c.bytesIn - bytesInBase

	if rdErr != nil || sendErr != nil {
		c.Close() // the stream is desynchronized; next op redials
		err := rdErr
		if err == nil {
			err = sendErr
		}
		return stats, fmt.Errorf("serve: bin client: stream aborted after %d/%d responses: %w", done, n, err)
	}
	stats.Requests = n
	fillRTTStats(stats, rtts)
	return stats, nil
}

// fillRTTStats computes the RTT summary. Quantiles are nearest-rank
// (ceil(q·n) ranks from the bottom): p99 of two samples is the larger
// one, so tail quantiles are never under-reported.
func fillRTTStats(stats *StreamStats, rtts []time.Duration) {
	if len(rtts) == 0 {
		return
	}
	var sum time.Duration
	for _, r := range rtts {
		sum += r
	}
	sorted := append([]time.Duration(nil), rtts...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	rank := func(q float64) time.Duration { return sorted[int(math.Ceil(q*float64(len(sorted))))-1] }
	micros := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
	stats.MeanRTTMicros = micros(sum / time.Duration(len(rtts)))
	stats.P50RTTMicros = micros(rank(0.50))
	stats.P99RTTMicros = micros(rank(0.99))
}
