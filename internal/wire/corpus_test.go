package wire

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"testing"
)

// seedFrames builds one well-formed frame per message type, plus a
// deliberately truncated frame, as the checked-in seed corpus for
// FuzzDecodeFrame. Each entry becomes
// testdata/fuzz/FuzzDecodeFrame/<name>.
func seedFrames() map[string][]byte {
	var e Encoder
	frames := map[string][]byte{}
	add := func(name string, b []byte) { frames[name] = append([]byte(nil), b...) }

	add("hello", e.Hello(&Hello{Topo: "toy", Delta: true}))
	add("hello_ack", e.HelloAck(&HelloAck{Pairs: 6, Paths: 18}))
	add("snapshot", e.Snapshot(&Snapshot{Async: true, Demand: []float64{1, 2.5, 0, 4096}}))
	add("decision", e.Decision(&Decision{
		Seq: 7, Snapshot: 7, Version: 2, Rerouted: true,
		AtUnixNanos: 1700000000000000000,
		Ratios:      []float64{0.25, 0.75, 1, 0, 0.5, 0.5},
	}))

	// A genuine delta: 8 pairs x 2 paths, one pair changed, so the delta
	// is strictly smaller than the full decision and DecisionDelta
	// actually produces one.
	layout := make(Layout, 8)
	prevR := make([]float64, 16)
	for i := range layout {
		layout[i] = []int{2 * i, 2*i + 1}
		prevR[2*i] = 0.5
		prevR[2*i+1] = 0.5
	}
	nextR := append([]float64(nil), prevR...)
	nextR[4], nextR[5] = 0.9, 0.1
	prev := &Decision{Seq: 7, Snapshot: 7, Version: 2, AtUnixNanos: 1, Ratios: prevR}
	next := &Decision{Seq: 8, Snapshot: 8, Version: 2, AtUnixNanos: 2, Ratios: nextR}
	delta, ok := e.DecisionDelta(prev, next, layout)
	if !ok {
		panic("seed delta unexpectedly fell back to a full decision")
	}
	add("delta", delta)

	add("resync", e.Resync())
	add("ack", e.Ack())
	add("error", e.Error(&ErrorMsg{Code: 503, Msg: "solver warming"}))

	// A frame whose length prefix promises more bytes than follow: the
	// short-read path every transport hits on a torn connection.
	full := e.Ack()
	add("truncated", full[:len(full)-3])

	return frames
}

// corpusFile renders one seed in the native Go fuzzing corpus encoding.
func corpusFile(data []byte) []byte {
	return []byte(fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", data))
}

// TestFuzzSeedCorpus pins the checked-in corpus byte-for-byte to
// seedFrames, so the seeds can never drift from the codec they exercise.
// Regenerate after a deliberate wire-format change with
//
//	WIRE_SEED_REGEN=1 go test ./internal/wire -run TestFuzzSeedCorpus
func TestFuzzSeedCorpus(t *testing.T) {
	dir := filepath.Join("testdata", "fuzz", "FuzzDecodeFrame")
	frames := seedFrames()
	var names []string
	for name := range frames {
		names = append(names, name)
	}
	sort.Strings(names)
	if os.Getenv("WIRE_SEED_REGEN") != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		for _, name := range names {
			if err := os.WriteFile(filepath.Join(dir, name), corpusFile(frames[name]), 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, name := range names {
		data := frames[name]
		got, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatalf("seed %s missing (regenerate with WIRE_SEED_REGEN=1): %v", name, err)
		}
		if want := corpusFile(data); string(got) != string(want) {
			t.Errorf("seed %s stale: corpus file does not match the current encoder (regenerate with WIRE_SEED_REGEN=1)", name)
		}
		// Every seed must hold its advertised property: well-formed frames
		// decode, the truncated one reports an error without panicking.
		_, _, err = DecodeFrame(data)
		if name == "truncated" {
			if err == nil {
				t.Errorf("seed %s: truncated frame decoded cleanly", name)
			}
		} else if err != nil {
			t.Errorf("seed %s: well-formed frame rejected: %v", name, err)
		}
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, ent := range entries {
		if _, ok := frames[ent.Name()]; !ok {
			t.Errorf("unexpected corpus file %s: add it to seedFrames or delete it", ent.Name())
		}
	}
}
