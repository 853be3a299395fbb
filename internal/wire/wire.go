// Package wire is the compact binary serving protocol: a
// length-prefixed, version-tagged, CRC-32-checksummed frame codec for
// demand snapshots and routing decisions, built on the same engineering
// pattern as te.PathStore (explicit little-endian framing, checksum-first
// validation, bounds-checked decoding that errors instead of panicking on
// any corrupt, truncated or foreign-format input).
//
// The JSON API stays the compatibility surface; wire is the
// incrementally-deployable fast path next to it. Frames travel either
// as content-negotiated HTTP bodies (Content-Type / Accept
// wire.MediaType) or over a persistent upgraded stream
// (Upgrade: figret-wire) that supports request pipelining. Every
// decision either carries is a full TDecision frame.
//
// The delta codec (Delta, DecisionDelta, DecodeDelta, ApplyDelta) is not
// on either transport. It stays for the offline probe that asks whether
// consecutive quantised decisions would make deltas worth sending; the
// benchmark module links it.
//
// # Frame layout
//
// Every frame is
//
//	u32  length   — byte count of everything after this field
//	u8   version  — wire.Version
//	u8   type     — MsgType
//	...  payload  — type-specific, little-endian
//	u32  crc      — CRC-32 (IEEE) over [version, type, payload]
//
// Floats are IEEE-754 bit patterns (math.Float64bits), so every value
// round-trips bitwise — the property the serving subsystem's
// bitwise-identity contracts are built on.
//
// Encoding and decoding are zero-allocation at steady state: an Encoder
// appends into one reusable buffer (valid until its next call), a
// Decoder reads frames into one reusable buffer, and the typed decode
// helpers fill caller-owned message structs whose slices are grown once
// and then reused.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
)

const (
	// Version tags every frame; decoders reject anything else. Version 2
	// dropped the hello's delta flag, so a version-1 peer is refused as
	// foreign rather than misparsed.
	Version = 2
	// MediaType is the content-negotiation token for binary frames over
	// HTTP (Content-Type on requests, Accept on responses).
	MediaType = "application/x-figret-wire"
	// UpgradeProtocol is the HTTP Upgrade token for the persistent
	// pipelined stream.
	UpgradeProtocol = "figret-wire"
	// MaxFrame bounds a frame's post-length byte count; larger lengths
	// are rejected before any allocation (a corrupt length prefix must
	// not balloon memory).
	MaxFrame = 64 << 20
	// minFrame is version + type + trailing crc.
	minFrame = 2 + 4
	// FrameOverhead is a frame's fixed cost beyond its payload: the
	// length prefix plus version, type and crc.
	FrameOverhead = 4 + minFrame
)

// MsgType identifies a frame's payload schema.
type MsgType uint8

// The numbers are the protocol: 6 and 7 belonged to the stream's failure
// report and current-decision request, retired with no caller (control is
// JSON), and 8 to the delta resync request, retired with delta
// negotiation. They stay unassigned so every other type keeps its value.
const (
	// THello binds a stream connection to a topology (client → server;
	// first frame on a stream).
	THello MsgType = 1
	// THelloAck confirms the binding and carries the topology's pair and
	// path counts for client-side validation.
	THelloAck MsgType = 2
	// TSnapshot ingests one demand snapshot.
	TSnapshot MsgType = 3
	// TDecision is a full routing decision.
	TDecision MsgType = 4
	// TDelta is a delta-encoded routing decision: a base sequence number
	// plus only the pairs whose splits changed. No transport sends one;
	// the type is the offline delta codec's frame.
	TDelta MsgType = 5
	// TAck acknowledges a request with no decision payload (async
	// ingest).
	TAck MsgType = 9
	// TError carries an error code and message.
	TError MsgType = 10
)

func (t MsgType) String() string {
	switch t {
	case THello:
		return "hello"
	case THelloAck:
		return "hello-ack"
	case TSnapshot:
		return "snapshot"
	case TDecision:
		return "decision"
	case TDelta:
		return "delta"
	case TAck:
		return "ack"
	case TError:
		return "error"
	}
	return fmt.Sprintf("wire.MsgType(%d)", uint8(t))
}

// --- messages -----------------------------------------------------------

// Hello binds a stream connection to one topology.
type Hello struct {
	// Topo is the topology every subsequent request on the connection
	// addresses.
	Topo string
}

// HelloAck confirms a Hello.
type HelloAck struct {
	// Pairs and Paths are the topology's SD-pair and candidate-path
	// counts; clients validate them against their local path set before
	// trusting decoded ratios.
	Pairs, Paths int
}

// Snapshot is one ingested demand snapshot.
type Snapshot struct {
	// Async acknowledges without waiting for a decision.
	Async bool
	// Demand is the flat pair-indexed demand vector.
	Demand []float64
}

// Decision is a full routing decision (the wire form of
// serve.RoutingResponse).
type Decision struct {
	Seq      int64
	Snapshot int64
	Version  int
	Rerouted bool
	// ChurnLimited reports hysteresis clamping.
	ChurnLimited bool
	// Warming reports that no decision could be computed yet; Ratios is
	// empty.
	Warming bool
	// AtUnixNanos is the publication time.
	AtUnixNanos int64
	// Ratios is the per-path split-ratio vector (empty while warming).
	Ratios []float64
}

// Delta is a delta-encoded decision: everything a Decision carries, but
// with only the changed pairs' ratios, relative to the base decision
// identified by BaseSeq. No transport sends one; it is kept for the
// offline delta probe (see the package comment).
type Delta struct {
	// BaseSeq is the Seq of the decision this delta applies to. Applying
	// against any other base is a gap (ErrDeltaGap).
	BaseSeq      int64
	Seq          int64
	Snapshot     int64
	Version      int
	Rerouted     bool
	ChurnLimited bool
	AtUnixNanos  int64
	// Pairs lists the changed pairs with their full per-pair ratio
	// blocks.
	Pairs []DeltaPair

	// flat backs the DeltaPair ratio slices so repeated decodes reuse
	// one allocation.
	flat []float64
}

// DeltaPair is one changed pair's new split ratios (offline delta codec
// only, like Delta).
type DeltaPair struct {
	// Pair is the SD-pair index.
	Pair int
	// Ratios are the pair's split ratios, aligned with the layout's path
	// list for the pair.
	Ratios []float64
}

// ErrorMsg is a wire-level error response.
type ErrorMsg struct {
	// Code is an HTTP-style status code (400, 404, 500, 503, ...), so
	// the stream and the JSON surface classify faults identically.
	Code int
	Msg  string
}

// --- encoder ------------------------------------------------------------

// Encoder builds frames into one reusable buffer. Each EncodeX call
// returns a view of that buffer valid until the next call; callers that
// need the frame beyond that must copy. The zero Encoder is ready to
// use. Not safe for concurrent use.
type Encoder struct {
	buf []byte
}

func (e *Encoder) begin(t MsgType) {
	e.buf = append(e.buf[:0], 0, 0, 0, 0, Version, byte(t))
}

func (e *Encoder) seal() []byte {
	e.buf = binary.LittleEndian.AppendUint32(e.buf, crc32.ChecksumIEEE(e.buf[4:]))
	binary.LittleEndian.PutUint32(e.buf[:4], uint32(len(e.buf)-4))
	return e.buf
}

func (e *Encoder) u8(v uint8)   { e.buf = append(e.buf, v) }
func (e *Encoder) u32(v uint32) { e.buf = binary.LittleEndian.AppendUint32(e.buf, v) }
func (e *Encoder) u64(v uint64) { e.buf = binary.LittleEndian.AppendUint64(e.buf, v) }
func (e *Encoder) i64(v int64)  { e.u64(uint64(v)) }
func (e *Encoder) f64(v float64) {
	e.u64(math.Float64bits(v))
}

func (e *Encoder) floats(v []float64) {
	e.u32(uint32(len(v)))
	for _, f := range v {
		e.f64(f)
	}
}

func (e *Encoder) str(s string) {
	e.u32(uint32(len(s)))
	e.buf = append(e.buf, s...)
}

func boolByte(b bool) uint8 {
	if b {
		return 1
	}
	return 0
}

// decision flag bits.
const (
	flagRerouted     = 1 << 0
	flagChurnLimited = 1 << 1
	flagWarming      = 1 << 2
)

// Hello encodes a stream-binding request.
func (e *Encoder) Hello(m *Hello) []byte {
	e.begin(THello)
	e.str(m.Topo)
	return e.seal()
}

// HelloAck encodes a binding confirmation.
func (e *Encoder) HelloAck(m *HelloAck) []byte {
	e.begin(THelloAck)
	e.u32(uint32(m.Pairs))
	e.u32(uint32(m.Paths))
	return e.seal()
}

// Snapshot encodes a demand-snapshot ingest.
func (e *Encoder) Snapshot(m *Snapshot) []byte {
	e.begin(TSnapshot)
	e.u8(boolByte(m.Async))
	e.floats(m.Demand)
	return e.seal()
}

func (e *Encoder) decisionHeader(seq, snapshot int64, version int, flags uint8, at int64) {
	e.i64(seq)
	e.i64(snapshot)
	e.u32(uint32(version))
	e.u8(flags)
	e.i64(at)
}

func decisionFlags(rerouted, churnLimited, warming bool) uint8 {
	var f uint8
	if rerouted {
		f |= flagRerouted
	}
	if churnLimited {
		f |= flagChurnLimited
	}
	if warming {
		f |= flagWarming
	}
	return f
}

// Decision encodes a full decision.
func (e *Encoder) Decision(m *Decision) []byte {
	e.begin(TDecision)
	e.decisionHeader(m.Seq, m.Snapshot, m.Version, decisionFlags(m.Rerouted, m.ChurnLimited, m.Warming), m.AtUnixNanos)
	e.floats(m.Ratios)
	return e.seal()
}

// DecisionDelta encodes next as a delta against prev over layout when
// that is strictly smaller than the full encoding; ok reports whether a
// delta was produced (callers fall back to Decision otherwise). Deltas
// are never produced across versions, from or to warming decisions, or
// against a mismatched ratio count. Ratio comparison is bitwise
// (math.Float64bits), so +0 and −0 differ. No transport calls it; the
// offline delta probe does (see the package comment).
func (e *Encoder) DecisionDelta(prev, next *Decision, layout Layout) ([]byte, bool) {
	if prev == nil || prev.Warming || next.Warming ||
		prev.Version != next.Version ||
		len(prev.Ratios) != len(next.Ratios) || len(next.Ratios) != layout.NumPaths() {
		return nil, false
	}
	// Pass 1: size the delta. Per changed pair: pair index, ratio count,
	// ratios. A pair changes when any of its ratios' bit patterns do.
	changed := 0
	deltaBytes := 0
	for _, pp := range layout {
		for _, p := range pp {
			if math.Float64bits(prev.Ratios[p]) != math.Float64bits(next.Ratios[p]) {
				changed++
				deltaBytes += 4 + 4 + 8*len(pp)
				break
			}
		}
	}
	// The delta payload replaces the full ratio vector (4 + 8n bytes)
	// with a base seq (8) + changed-pair count (4) + per-pair blocks.
	if 8+4+deltaBytes >= 4+8*len(next.Ratios) {
		return nil, false
	}
	e.begin(TDelta)
	e.i64(prev.Seq)
	e.decisionHeader(next.Seq, next.Snapshot, next.Version, decisionFlags(next.Rerouted, next.ChurnLimited, false), next.AtUnixNanos)
	e.u32(uint32(changed))
	for pi, pp := range layout {
		diff := false
		for _, p := range pp {
			if math.Float64bits(prev.Ratios[p]) != math.Float64bits(next.Ratios[p]) {
				diff = true
				break
			}
		}
		if !diff {
			continue
		}
		e.u32(uint32(pi))
		e.u32(uint32(len(pp)))
		for _, p := range pp {
			e.f64(next.Ratios[p])
		}
	}
	return e.seal(), true
}

// Ack encodes a payload-free acknowledgement.
func (e *Encoder) Ack() []byte {
	e.begin(TAck)
	return e.seal()
}

// Error encodes an error response.
func (e *Encoder) Error(m *ErrorMsg) []byte {
	e.begin(TError)
	e.u32(uint32(m.Code))
	e.str(m.Msg)
	return e.seal()
}

// --- frame decoding -----------------------------------------------------

// ErrFrame wraps every framing-level decode failure (truncation,
// checksum mismatch, bad version, oversized length), so transports can
// distinguish corrupt streams from application errors.
var ErrFrame = errors.New("wire: bad frame")

func frameErr(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrFrame, fmt.Sprintf(format, args...))
}

// Decoder reads frames from a stream into one reusable buffer. The
// payload returned by ReadFrame is valid until the next call. The zero
// Decoder is ready to use. Not safe for concurrent use.
type Decoder struct {
	buf  []byte
	head [4]byte
}

// ReadFrame reads one frame from r, validates it, and returns its type
// and payload view. io.EOF is returned verbatim at a clean frame
// boundary; mid-frame truncation is an ErrFrame.
func (d *Decoder) ReadFrame(r io.Reader) (MsgType, []byte, error) {
	if _, err := io.ReadFull(r, d.head[:]); err != nil {
		if err == io.EOF {
			return 0, nil, io.EOF
		}
		return 0, nil, frameErr("short header: %v", err)
	}
	n := binary.LittleEndian.Uint32(d.head[:])
	if n < minFrame || n > MaxFrame {
		return 0, nil, frameErr("length %d out of range [%d, %d]", n, minFrame, MaxFrame)
	}
	if cap(d.buf) < int(n) {
		d.buf = make([]byte, n)
	}
	d.buf = d.buf[:n]
	if _, err := io.ReadFull(r, d.buf); err != nil {
		return 0, nil, frameErr("truncated body: %v", err)
	}
	return validateFrame(d.buf)
}

// DecodeFrame validates a complete frame held in memory (an HTTP body)
// and returns its type and payload view into data. The frame starts at
// the length prefix and must span data exactly.
func DecodeFrame(data []byte) (MsgType, []byte, error) {
	if len(data) < 4 {
		return 0, nil, frameErr("short frame (%d bytes)", len(data))
	}
	n := binary.LittleEndian.Uint32(data[:4])
	if n < minFrame || n > MaxFrame {
		return 0, nil, frameErr("length %d out of range [%d, %d]", n, minFrame, MaxFrame)
	}
	if int(n) != len(data)-4 {
		return 0, nil, frameErr("length %d, have %d bytes", n, len(data)-4)
	}
	return validateFrame(data[4:])
}

// validateFrame checks crc and version of a body (everything after the
// length prefix) and returns the payload view.
func validateFrame(body []byte) (MsgType, []byte, error) {
	if len(body) < minFrame {
		return 0, nil, frameErr("body too short (%d bytes)", len(body))
	}
	payload, sum := body[:len(body)-4], binary.LittleEndian.Uint32(body[len(body)-4:])
	if crc32.ChecksumIEEE(payload) != sum {
		return 0, nil, frameErr("checksum mismatch")
	}
	if payload[0] != Version {
		return 0, nil, frameErr("version %d, want %d", payload[0], Version)
	}
	return MsgType(payload[1]), payload[2:], nil
}

// --- payload decoding ---------------------------------------------------

// reader is a bounds-checked little-endian cursor (the te.PathStore
// idiom): out-of-range reads set failed and return zeros instead of
// panicking, so decoders validate once at the end.
type reader struct {
	data   []byte
	off    int
	failed bool
}

func (r *reader) bytes(n int) []byte {
	if n < 0 || r.off+n > len(r.data) || r.off+n < r.off {
		r.failed = true
		return nil
	}
	b := r.data[r.off : r.off+n]
	r.off += n
	return b
}

func (r *reader) u8() uint8 {
	b := r.bytes(1)
	if b == nil {
		return 0
	}
	return b[0]
}

func (r *reader) u32() uint32 {
	b := r.bytes(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

func (r *reader) u64() uint64 {
	b := r.bytes(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

func (r *reader) i64() int64   { return int64(r.u64()) }
func (r *reader) f64() float64 { return math.Float64frombits(r.u64()) }
func (r *reader) done() bool   { return !r.failed && r.off == len(r.data) }
func (r *reader) str() string  { return string(r.bytes(int(r.u32()))) }

// floats decodes a count-prefixed float vector into dst (reused when
// capacity allows). The count is validated against the remaining bytes
// before any allocation.
func (r *reader) floats(dst []float64) []float64 {
	n := int(r.u32())
	if n < 0 || r.off+8*n > len(r.data) || 8*n < 0 {
		r.failed = true
		return dst[:0]
	}
	if cap(dst) < n {
		dst = make([]float64, n)
	}
	dst = dst[:n]
	for i := range dst {
		dst[i] = r.f64()
	}
	return dst
}

func payloadErr(t MsgType, r *reader) error {
	if !r.done() {
		return frameErr("%s payload malformed at offset %d", t, r.off)
	}
	return nil
}

// DecodeHello decodes a THello payload into m.
func DecodeHello(p []byte, m *Hello) error {
	r := &reader{data: p}
	m.Topo = r.str()
	return payloadErr(THello, r)
}

// DecodeHelloAck decodes a THelloAck payload into m.
func DecodeHelloAck(p []byte, m *HelloAck) error {
	r := &reader{data: p}
	m.Pairs = int(r.u32())
	m.Paths = int(r.u32())
	return payloadErr(THelloAck, r)
}

// DecodeSnapshot decodes a TSnapshot payload into m, reusing m.Demand's
// capacity.
func DecodeSnapshot(p []byte, m *Snapshot) error {
	r := &reader{data: p}
	m.Async = r.u8() != 0
	m.Demand = r.floats(m.Demand)
	return payloadErr(TSnapshot, r)
}

func decodeDecisionHeader(r *reader) (seq, snapshot int64, version int, flags uint8, at int64) {
	seq = r.i64()
	snapshot = r.i64()
	version = int(r.u32())
	flags = r.u8()
	at = r.i64()
	return
}

// DecodeDecision decodes a TDecision payload into m, reusing m.Ratios'
// capacity.
func DecodeDecision(p []byte, m *Decision) error {
	r := &reader{data: p}
	var flags uint8
	m.Seq, m.Snapshot, m.Version, flags, m.AtUnixNanos = decodeDecisionHeader(r)
	m.Rerouted = flags&flagRerouted != 0
	m.ChurnLimited = flags&flagChurnLimited != 0
	m.Warming = flags&flagWarming != 0
	m.Ratios = r.floats(m.Ratios)
	return payloadErr(TDecision, r)
}

// DecodeDelta decodes a TDelta payload into m, reusing its backing
// storage. The payload is self-describing (per-pair ratio counts are
// encoded), so decoding needs no layout; ApplyDelta validates against
// one. Offline delta codec only, like DecisionDelta.
func DecodeDelta(p []byte, m *Delta) error {
	r := &reader{data: p}
	m.BaseSeq = r.i64()
	var flags uint8
	m.Seq, m.Snapshot, m.Version, flags, m.AtUnixNanos = decodeDecisionHeader(r)
	m.Rerouted = flags&flagRerouted != 0
	m.ChurnLimited = flags&flagChurnLimited != 0
	n := int(r.u32())
	// Each pair block is at least pair index + count (8 bytes), bounding
	// n before allocation.
	if n < 0 || r.off+8*n > len(r.data) {
		return frameErr("%s claims %d pairs with %d bytes left", TDelta, n, len(r.data)-r.off)
	}
	if cap(m.Pairs) < n {
		m.Pairs = make([]DeltaPair, n)
	}
	m.Pairs = m.Pairs[:n]
	m.flat = m.flat[:0]
	// Two-pass fill: decode counts and values into the shared flat
	// buffer, then slice it per pair (append may reallocate mid-loop, so
	// per-pair views are taken after all values are in place).
	offs := make([]int, n+1)
	for i := 0; i < n; i++ {
		m.Pairs[i].Pair = int(r.u32())
		k := int(r.u32())
		if k <= 0 || r.off+8*k > len(r.data) {
			return frameErr("%s pair %d has %d ratios with %d bytes left", TDelta, i, k, len(r.data)-r.off)
		}
		for j := 0; j < k; j++ {
			m.flat = append(m.flat, r.f64())
		}
		offs[i+1] = len(m.flat)
	}
	for i := 0; i < n; i++ {
		m.Pairs[i].Ratios = m.flat[offs[i]:offs[i+1]]
	}
	if err := payloadErr(TDelta, r); err != nil {
		return err
	}
	return nil
}

// DecodeError decodes a TError payload into m.
func DecodeError(p []byte, m *ErrorMsg) error {
	r := &reader{data: p}
	m.Code = int(r.u32())
	m.Msg = r.str()
	return payloadErr(TError, r)
}
