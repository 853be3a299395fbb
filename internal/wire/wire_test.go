package wire

import (
	"bytes"
	"errors"
	"io"
	"math"
	"reflect"
	"strings"
	"testing"
)

// layout2 is a tiny two-pair layout: pair 0 owns paths {0,1}, pair 1
// owns paths {2,3,4}.
var layout2 = Layout{{0, 1}, {2, 3, 4}}

func decision(seq int64, ratios ...float64) *Decision {
	return &Decision{
		Seq: seq, Snapshot: seq + 100, Version: 3,
		Rerouted: seq%2 == 0, ChurnLimited: seq%3 == 0,
		AtUnixNanos: 1723000000000000000 + seq,
		Ratios:      ratios,
	}
}

// TestRoundTrip encodes every message type and checks the decoded
// struct is bitwise identical — the property the serving subsystem's
// JSON-vs-binary identity contracts rest on.
func TestRoundTrip(t *testing.T) {
	var e Encoder

	check := func(name string, frame []byte, wantType MsgType, decode func(p []byte) (any, error), want any) {
		t.Helper()
		// The encoder's buffer is reused; a retained frame must be copied,
		// exactly as documented.
		frame = append([]byte(nil), frame...)
		typ, payload, err := DecodeFrame(frame)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if typ != wantType {
			t.Fatalf("%s: decoded type %s, want %s", name, typ, wantType)
		}
		got, err := decode(payload)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: decoded %+v, want %+v", name, got, want)
		}
	}

	hello := &Hello{Topo: "geant", Delta: true}
	check("hello", e.Hello(hello), THello, func(p []byte) (any, error) {
		var m Hello
		err := DecodeHello(p, &m)
		return &m, err
	}, hello)

	ack := &HelloAck{Pairs: 462, Paths: 1386}
	check("hello-ack", e.HelloAck(ack), THelloAck, func(p []byte) (any, error) {
		var m HelloAck
		err := DecodeHelloAck(p, &m)
		return &m, err
	}, ack)

	// Adversarial float values: negative zero, denormals, NaN bit
	// patterns and huge magnitudes must all survive bitwise.
	snap := &Snapshot{Async: true, Demand: []float64{0, math.Copysign(0, -1), 5e-324, 1.7976931348623157e308, 1.0 / 3.0}}
	check("snapshot", e.Snapshot(snap), TSnapshot, func(p []byte) (any, error) {
		var m Snapshot
		err := DecodeSnapshot(p, &m)
		return &m, err
	}, snap)

	dec := decision(42, 0.25, 0.75, 1.0/3, 1.0/3, 1.0/3)
	check("decision", e.Decision(dec), TDecision, func(p []byte) (any, error) {
		var m Decision
		err := DecodeDecision(p, &m)
		return &m, err
	}, dec)

	warm := &Decision{Snapshot: 2, Warming: true, Ratios: []float64{}}
	check("warming", e.Decision(warm), TDecision, func(p []byte) (any, error) {
		var m Decision
		m.Ratios = make([]float64, 0) // decode reuses capacity; keep nil-vs-empty out of DeepEqual
		err := DecodeDecision(p, &m)
		return &m, err
	}, warm)

	em := &ErrorMsg{Code: 503, Msg: "controller closed"}
	check("error", e.Error(em), TError, func(p []byte) (any, error) {
		var m ErrorMsg
		err := DecodeError(p, &m)
		return &m, err
	}, em)

	// The frames must be copied one call at a time: both encode calls
	// share e's reusable buffer.
	for _, tc := range []struct {
		name  string
		frame []byte
		typ   MsgType
	}{
		{"resync", append([]byte(nil), e.Resync()...), TResync},
		{"ack", append([]byte(nil), e.Ack()...), TAck},
	} {
		typ, payload, err := DecodeFrame(tc.frame)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if typ != tc.typ || len(payload) != 0 {
			t.Fatalf("%s: decoded (%s, %d payload bytes)", tc.name, typ, len(payload))
		}
	}
}

// TestMsgTypeNumbers pins the protocol's type numbers. 6 and 7 were the
// stream's failure report and routing query; they stay unassigned so a
// peer that still sends one gets "unexpected frame", never another
// message's decoder.
func TestMsgTypeNumbers(t *testing.T) {
	for _, tc := range []struct {
		typ  MsgType
		want uint8
	}{{THello, 1}, {THelloAck, 2}, {TSnapshot, 3}, {TDecision, 4}, {TDelta, 5}, {TResync, 8}, {TAck, 9}, {TError, 10}} {
		if uint8(tc.typ) != tc.want {
			t.Errorf("%s = %d, want %d", tc.typ, uint8(tc.typ), tc.want)
		}
	}
	for _, retired := range []MsgType{6, 7} {
		if s := retired.String(); !strings.HasPrefix(s, "wire.MsgType(") {
			t.Errorf("retired type %d still has a name: %s", uint8(retired), s)
		}
	}
}

// TestReadFrameStream checks stream framing: back-to-back frames decode
// in order, a clean boundary yields io.EOF verbatim, and mid-frame
// truncation is an ErrFrame.
func TestReadFrameStream(t *testing.T) {
	var e Encoder
	var buf bytes.Buffer
	buf.Write(e.Snapshot(&Snapshot{Demand: []float64{1, 2, 3}}))
	buf.Write(e.Ack())
	buf.Write(e.Resync())
	full := append([]byte(nil), buf.Bytes()...)

	var d Decoder
	r := bytes.NewReader(full)
	for i, want := range []MsgType{TSnapshot, TAck, TResync} {
		typ, _, err := d.ReadFrame(r)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if typ != want {
			t.Fatalf("frame %d: %s, want %s", i, typ, want)
		}
	}
	if _, _, err := d.ReadFrame(r); err != io.EOF {
		t.Fatalf("clean boundary returned %v, want io.EOF", err)
	}

	// Every strict prefix that cuts into a frame must error (ErrFrame),
	// except length-0 prefixes of the stream head (clean EOF).
	frameLen := len(e.Snapshot(&Snapshot{Demand: []float64{1, 2, 3}}))
	for cut := 1; cut < frameLen; cut++ {
		var d2 Decoder
		_, _, err := d2.ReadFrame(bytes.NewReader(full[:cut]))
		if !errors.Is(err, ErrFrame) {
			t.Fatalf("truncation at %d returned %v, want ErrFrame", cut, err)
		}
	}
}

// TestDecodeCorrupt flips every byte of a valid frame and truncates it
// at every length: decoding must return an error (never panic, never
// succeed) — except the payload-only flips the checksum is there to
// catch, which must fail the checksum.
func TestDecodeCorrupt(t *testing.T) {
	var e Encoder
	frame := append([]byte(nil), e.Decision(decision(7, 0.5, 0.5, 1, 0, 0))...)

	if _, _, err := DecodeFrame(frame); err != nil {
		t.Fatalf("pristine frame: %v", err)
	}
	for i := range frame {
		for _, bit := range []byte{0x01, 0x80} {
			corrupt := append([]byte(nil), frame...)
			corrupt[i] ^= bit
			if _, _, err := DecodeFrame(corrupt); err == nil {
				t.Fatalf("flipped bit %#x of byte %d: decode succeeded", bit, i)
			}
		}
	}
	for cut := 0; cut < len(frame); cut++ {
		if _, _, err := DecodeFrame(frame[:cut]); !errors.Is(err, ErrFrame) {
			t.Fatalf("truncation at %d returned no ErrFrame", cut)
		}
	}
	// Trailing garbage must not pass either: the frame must span exactly.
	if _, _, err := DecodeFrame(append(append([]byte(nil), frame...), 0)); !errors.Is(err, ErrFrame) {
		t.Fatal("frame with trailing byte decoded")
	}
}

// TestDecodeWrongVersion rejects a frame whose version tag is foreign
// even when its checksum is valid.
func TestDecodeWrongVersion(t *testing.T) {
	var e Encoder
	frame := append([]byte(nil), e.Ack()...)
	frame[4] = Version + 1 // version byte, after the u32 length prefix
	// Recompute the crc so only the version check can reject.
	reseal(frame)
	if _, _, err := DecodeFrame(frame); !errors.Is(err, ErrFrame) {
		t.Fatalf("foreign version decoded: %v", err)
	}
}

// reseal recomputes a test frame's trailing checksum after mutation.
func reseal(frame []byte) {
	var e Encoder
	e.buf = frame[:len(frame)-4]
	e.seal()
}

// TestDecodeHostile feeds decoders adversarial payloads whose counts
// claim more data than present; every path must error before allocating
// or reading out of bounds.
func TestDecodeHostile(t *testing.T) {
	var e Encoder
	// A snapshot frame claiming 2^31 floats in a 13-byte payload.
	frame := append([]byte(nil), e.Snapshot(&Snapshot{Demand: []float64{1}})...)
	// Payload layout: [async u8][count u32][floats...]; count sits at
	// offset 4 (len) + 2 (ver,type) + 1 (async).
	frame[7], frame[8], frame[9], frame[10] = 0xff, 0xff, 0xff, 0x7f
	reseal(frame)
	var m Snapshot
	_, payload, err := DecodeFrame(frame)
	if err != nil {
		t.Fatal(err)
	}
	if err := DecodeSnapshot(payload, &m); !errors.Is(err, ErrFrame) {
		t.Fatalf("hostile count decoded: %v", err)
	}

	// An oversized length prefix must be rejected before allocation.
	huge := []byte{0xff, 0xff, 0xff, 0xff, Version, byte(TAck)}
	if _, _, err := DecodeFrame(huge); !errors.Is(err, ErrFrame) {
		t.Fatal("oversized length accepted")
	}
	var d Decoder
	if _, _, err := d.ReadFrame(bytes.NewReader(huge)); !errors.Is(err, ErrFrame) {
		t.Fatal("oversized length accepted by stream reader")
	}
}

// FuzzDecodeFrame asserts the only contract that matters for untrusted
// input: arbitrary bytes never panic any decode path.
func FuzzDecodeFrame(f *testing.F) {
	var e Encoder
	f.Add(append([]byte(nil), e.Decision(decision(1, 0.5, 0.5, 1, 0, 0))...))
	f.Add(append([]byte(nil), e.Snapshot(&Snapshot{Demand: []float64{1, 2}})...))
	f.Add(append([]byte(nil), e.Hello(&Hello{Topo: "x", Delta: true})...))
	retired := append([]byte(nil), e.Resync()...)
	retired[5] = 6 // a type number no longer assigned
	reseal(retired)
	f.Add(retired)
	f.Add([]byte{})
	f.Add([]byte{6, 0, 0, 0, Version, byte(TAck), 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		typ, payload, err := DecodeFrame(data)
		if err != nil {
			return
		}
		// A frame that passes checksum+version still carries an untrusted
		// payload; every typed decoder must fail gracefully on it.
		switch typ {
		case THello:
			var m Hello
			_ = DecodeHello(payload, &m) //figret:allow(errwire) fuzz contract is absence of panics, the error value is immaterial
		case THelloAck:
			var m HelloAck
			_ = DecodeHelloAck(payload, &m) //figret:allow(errwire) fuzz contract is absence of panics, the error value is immaterial
		case TSnapshot:
			var m Snapshot
			_ = DecodeSnapshot(payload, &m) //figret:allow(errwire) fuzz contract is absence of panics, the error value is immaterial
		case TDecision:
			var m Decision
			_ = DecodeDecision(payload, &m) //figret:allow(errwire) fuzz contract is absence of panics, the error value is immaterial
		case TDelta:
			var m Delta
			if DecodeDelta(payload, &m) == nil {
				var base, out Decision
				base.Ratios = []float64{0.5, 0.5, 1, 0, 0}
				base.Seq = m.BaseSeq
				base.Version = m.Version
				_ = ApplyDelta(&base, &m, layout2, &out) //figret:allow(errwire) fuzz contract is absence of panics, the error value is immaterial
			}
		case TError:
			var m ErrorMsg
			_ = DecodeError(payload, &m) //figret:allow(errwire) fuzz contract is absence of panics, the error value is immaterial
		}
		var d Decoder
		if _, _, err := d.ReadFrame(bytes.NewReader(data)); err == nil {
			// Stream framing accepts a prefix of data; no further checks —
			// the point is absence of panics.
			_ = payload
		}
	})
}
