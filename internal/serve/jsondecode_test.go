package serve

import (
	"encoding/json"
	"math"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"
)

// canonicalBodies are what the encoders emit on the JSON decision path:
// json.Marshal of a snapshot (the client) and writeJSON of a decision
// (the server), named by what they carry.
func canonicalBodies() map[string][]byte {
	at := time.Date(2026, 3, 1, 12, 30, 0, 123456789, time.UTC)
	routing := func(r RoutingResponse) []byte {
		rec := httptest.NewRecorder()
		writeJSON(rec, 200, r)
		return rec.Body.Bytes()
	}
	snapshot := func(r SnapshotRequest) []byte {
		b, err := json.Marshal(r)
		if err != nil {
			panic(err)
		}
		return b
	}
	ratios := []float64{0.25, 0.75, 1, 0, 1.0 / 3, 2.0 / 3, 1e-7, 5e-324}
	return map[string][]byte{
		"snapshot":       snapshot(SnapshotRequest{Demand: []float64{1, 2.5, 0, 4096, 1e21, 123456.789e-12}}),
		"snapshot_async": snapshot(SnapshotRequest{Demand: []float64{0.5, 3}, Async: true}),
		"routing": routing(RoutingResponse{Topology: "geant", Seq: 42, Snapshot: 41, Version: 3,
			Ratios: ratios, At: at}),
		"routing_flags": routing(RoutingResponse{Topology: "pod-db", Seq: 7, Snapshot: 9, Version: 12,
			Ratios: ratios[:2], Rerouted: true, ChurnLimited: true, At: at.In(time.FixedZone("", -7*3600))}),
		"routing_warming": routing(RoutingResponse{Topology: "pod-db", Snapshot: 2, Warming: true}),
	}
}

// TestDecodeJSONCanonicalBodies: every body the encoders emit takes the
// one-pass path — a snapshot in place in the caller's scratch, a decision
// without encoding/json — and decodes as json.Unmarshal does.
func TestDecodeJSONCanonicalBodies(t *testing.T) {
	for name, body := range canonicalBodies() {
		if strings.HasPrefix(name, "snapshot") {
			scratch := make([]float64, 0, 64)
			req := SnapshotRequest{Demand: scratch}
			if err := decodeSnapshotJSON(body, &req); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if &req.Demand[0] != &scratch[:1][0] {
				t.Errorf("%s: not decoded into the scratch vector: the fast path declined", name)
			}
			sameAsEncodingJSON(t, name, body, nil, &req)
			continue
		}
		var out RoutingResponse
		if !scanRouting(body, &out) {
			t.Errorf("%s: the fast path declined %s", name, body)
		}
		sameAsEncodingJSON(t, name, body, nil, &out)
	}
}

// FuzzDecodeJSON holds both decoders to json.Unmarshal into a zero target
// on arbitrary bytes: the same error text, and on success the same fields,
// floats bit for bit (reflect.DeepEqual takes -0 for +0). The snapshot
// decoder starts from a stale scratch vector, as the server's pool hands
// one out. The seeds in testdata/fuzz/FuzzDecodeJSON are the canonical
// bodies and the spellings the fast path must decline.
func FuzzDecodeJSON(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		req := SnapshotRequest{Demand: []float64{math.NaN(), 7, 7}}
		sameAsEncodingJSON(t, "snapshot", data, decodeSnapshotJSON(data, &req), &req)
		var out RoutingResponse
		sameAsEncodingJSON(t, "routing", data, decodeRoutingJSON(data, &out), &out)
	})
}

// sameAsEncodingJSON fails unless err and got (a *SnapshotRequest or
// *RoutingResponse) are what json.Unmarshal of data into a zero value of
// got's type returns and leaves. It clears got's float field.
func sameAsEncodingJSON(t *testing.T, what string, data []byte, err error, got any) {
	t.Helper()
	want := reflect.New(reflect.TypeOf(got).Elem()).Interface()
	werr := json.Unmarshal(data, want)
	if (err == nil) != (werr == nil) || err != nil && err.Error() != werr.Error() {
		t.Fatalf("%s %q: decoded with error %v, encoding/json %v", what, data, err, werr)
	}
	if werr != nil {
		return
	}
	floats := func(v any) *[]float64 {
		if r, ok := v.(*SnapshotRequest); ok {
			return &r.Demand
		}
		return &v.(*RoutingResponse).Ratios
	}
	g, w := floats(got), floats(want)
	same := sameBits(*g, *w) && (*g == nil) == (*w == nil)
	// The float fields compared, the rest must be deep-equal without them.
	gf, wf := *g, *w
	*g, *w = nil, nil
	if !same || !reflect.DeepEqual(got, want) {
		t.Fatalf("%s %q: decoded %+v %v, encoding/json %+v %v", what, data, got, gf, want, wf)
	}
}

// sameBits reports a and b equal element for element by Float64bits.
func sameBits(a, b []float64) bool {
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
