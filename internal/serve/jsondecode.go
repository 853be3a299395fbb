package serve

import (
	"encoding/json"
	"strconv"
	"sync"
)

// The two bodies on the JSON decision path — a snapshot in, a decision
// out — are decoded here in one pass when they are exactly what
// json.Marshal / writeJSON emit for them: keys literal and in field
// order, omitempty fields present or absent, numbers in JSON's grammar,
// strings of printable ASCII without escapes, nothing after the closing
// brace but whitespace. Anything else — and any number strconv refuses,
// such as 1e400 — is declined: the scan writes nothing to the target and
// json.Unmarshal decodes the body into a zero one, so error text and
// partial fills are encoding/json's by construction. FuzzDecodeJSON holds
// both decoders to json.Unmarshal on arbitrary bytes.

// floatsPool recycles the float vectors a body decodes through: the
// server's demand scratch (Ingest copies it) and the client's ratio
// staging (copied out at its exact length).
var floatsPool = sync.Pool{New: func() any { return new([]float64) }}

func putFloats(p *[]float64, v []float64) {
	if cap(v)*8 <= maxPooledBuf {
		*p = v[:0]
		floatsPool.Put(p)
	}
}

// decodeSnapshotJSON decodes a snapshot-ingest body into req as
// json.Unmarshal into a zero SnapshotRequest would. A canonical body's
// demand is parsed into req.Demand's backing array, which is the
// caller's scratch.
func decodeSnapshotJSON(data []byte, req *SnapshotRequest) error {
	s := jsonScan{b: data}
	if s.lit(`{"demand":`) {
		if d, ok := s.floats(req.Demand[:0]); ok {
			async := s.lit(`,"async":true`)
			if s.lit("}") && s.end() {
				req.Demand, req.Async = d, async
				return nil
			}
		}
	}
	*req = SnapshotRequest{}
	return json.Unmarshal(data, req)
}

// decodeRoutingJSON decodes a decision body into a zero *out as
// json.Unmarshal would.
func decodeRoutingJSON(data []byte, out *RoutingResponse) error {
	if scanRouting(data, out) {
		return nil
	}
	return json.Unmarshal(data, out)
}

// scanRouting is decodeRoutingJSON's one pass; false declines.
func scanRouting(data []byte, out *RoutingResponse) bool {
	s := jsonScan{b: data}
	if !s.lit(`{"topology":`) {
		return false
	}
	topo, ok := s.str()
	var r RoutingResponse
	var version int64
	if !ok || !s.lit(`,"seq":`) || !s.integer(&r.Seq, 64) ||
		!s.lit(`,"snapshot":`) || !s.integer(&r.Snapshot, 64) ||
		!s.lit(`,"version":`) || !s.integer(&version, strconv.IntSize) {
		return false
	}
	var ratios []float64
	if s.lit(`,"ratios":`) {
		p := floatsPool.Get().(*[]float64)
		ratios, ok = s.floats((*p)[:0])
		defer putFloats(p, ratios)
		if !ok {
			return false
		}
	}
	r.Rerouted = s.lit(`,"rerouted":true`)
	r.ChurnLimited = s.lit(`,"churn_limited":true`)
	r.Warming = s.lit(`,"warming":true`)
	if !s.lit(`,"at":`) {
		return false
	}
	// UnmarshalJSON takes the quoted token, as encoding/json hands it over.
	at, ok := s.str()
	if !ok || r.At.UnmarshalJSON(at) != nil || !s.lit("}") || !s.end() {
		return false
	}
	r.Topology = string(topo[1 : len(topo)-1])
	r.Version = int(version)
	if ratios != nil {
		r.Ratios = append([]float64(nil), ratios...)
	}
	*out = r
	return true
}

// jsonScan walks one body. Each method reports whether the next bytes
// are the token asked for and advances past them only then.
type jsonScan struct {
	b []byte
	i int
}

func (s *jsonScan) lit(l string) bool {
	if len(s.b)-s.i < len(l) || string(s.b[s.i:s.i+len(l)]) != l {
		return false
	}
	s.i += len(l)
	return true
}

// end reports whether only JSON whitespace is left.
func (s *jsonScan) end() bool {
	for _, c := range s.b[s.i:] {
		if c != ' ' && c != '\t' && c != '\n' && c != '\r' {
			return false
		}
	}
	return true
}

// str returns a string token, quotes included, whose bytes are printable
// ASCII other than `"` and `\` — the strings whose JSON and Go values
// are the same bytes.
func (s *jsonScan) str() ([]byte, bool) {
	if !s.lit(`"`) {
		return nil, false
	}
	for j := s.i; j < len(s.b); j++ {
		switch c := s.b[j]; {
		case c == '"':
			tok := s.b[s.i-1 : j+1]
			s.i = j + 1
			return tok, true
		case c < 0x20 || c > 0x7e || c == '\\':
			return nil, false
		}
	}
	return nil, false
}

// number returns the token matching JSON's number grammar,
// -?(0|[1-9]\d*)(\.\d+)?([eE][+-]?\d+)?, or only its integer part
// -?(0|[1-9]\d*) when intOnly is set; nil when there is none. strconv
// alone would also take Inf, 0x1p3, +1 and 1_0.
func (s *jsonScan) number(intOnly bool) []byte {
	b, i := s.b, s.i
	digits := func() bool {
		j := i
		for i < len(b) && '0' <= b[i] && b[i] <= '9' {
			i++
		}
		return i > j
	}
	if i < len(b) && b[i] == '-' {
		i++
	}
	if i < len(b) && b[i] == '0' {
		i++
	} else if !digits() {
		return nil
	}
	if !intOnly {
		if i < len(b) && b[i] == '.' {
			if i++; !digits() {
				return nil
			}
		}
		if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
			if i++; i < len(b) && (b[i] == '+' || b[i] == '-') {
				i++
			}
			if !digits() {
				return nil
			}
		}
	}
	tok := b[s.i:i]
	s.i = i
	return tok
}

// integer parses an integer token as encoding/json does for an int of
// the given bit size.
func (s *jsonScan) integer(v *int64, bits int) bool {
	tok := s.number(true)
	if tok == nil {
		return false
	}
	n, err := strconv.ParseInt(string(tok), 10, bits)
	*v = n
	return err == nil
}

// floats appends a non-empty array of numbers to dst. ParseFloat is the
// conversion encoding/json makes, so the bits are the same.
func (s *jsonScan) floats(dst []float64) ([]float64, bool) {
	if !s.lit("[") {
		return dst, false
	}
	for {
		tok := s.number(false)
		if tok == nil {
			return dst, false
		}
		f, err := strconv.ParseFloat(string(tok), 64)
		if err != nil {
			return dst, false
		}
		dst = append(dst, f)
		if s.lit("]") {
			return dst, true
		}
		if !s.lit(",") {
			return dst, false
		}
	}
}
