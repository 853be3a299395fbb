package figret

import (
	"encoding/json"
	"reflect"
	"testing"
)

// TestCheckpointRoundTripBitwise pins the invariant the serving
// registry's hot-swap relies on: a model serialized with MarshalJSON and
// restored with LoadModel must produce bitwise-identical Predict output
// — not merely close — for every configuration variant, including the
// DOTE (γ=0) special case. JSON float64 round-tripping is exact ('g'
// formatting emits the shortest uniquely-decoding representation), so
// any divergence here is a serialization bug, and "identical within
// tolerance" would let hot-swapped checkpoints drift from what was
// validated offline.
func TestCheckpointRoundTripBitwise(t *testing.T) {
	ps := smallSetup(t)
	tr := burstyTrace(ps, 60, 10, 30)
	variants := []struct {
		name string
		cfg  Config
	}{
		{"figret", Config{H: 3, Gamma: 1, Epochs: 2, Seed: 4}},
		{"dote", Config{H: 3, Gamma: 0, Epochs: 2, Seed: 5}},
		{"coarse", Config{H: 3, Gamma: 2, Epochs: 2, Seed: 6, CoarseGrained: true}},
		{"self-target", Config{H: 4, Gamma: 1, Epochs: 2, Seed: 8, SelfTarget: true}},
		{"narrow-net", Config{H: 2, Gamma: 1, Epochs: 2, Seed: 9, Hidden: []int{16}, BatchSize: 8}},
	}
	for _, v := range variants {
		t.Run(v.name, func(t *testing.T) {
			m := New(ps, v.cfg)
			if v.name == "dote" {
				m = NewDOTE(ps, v.cfg)
			}
			if _, err := m.Train(tr); err != nil {
				t.Fatal(err)
			}
			data, err := m.MarshalJSON()
			if err != nil {
				t.Fatal(err)
			}
			back, err := LoadModel(ps, data)
			if err != nil {
				t.Fatal(err)
			}
			// Snapshot is this round trip without the text: the same model,
			// field for field (Cfg, weights, fresh gradient buffers).
			snap, err := m.Snapshot(ps)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(snap, back) {
				t.Fatalf("Snapshot differs from LoadModel(MarshalJSON): cfg %+v vs %+v", snap.Cfg, back.Cfg)
			}
			if back.Scale != m.Scale || back.LossScale != m.LossScale {
				t.Fatalf("normalization state changed: scale %v->%v, loss scale %v->%v",
					m.Scale, back.Scale, m.LossScale, back.LossScale)
			}
			for i, w := range back.VarWeights {
				if w != m.VarWeights[i] {
					t.Fatalf("var weight %d changed: %v -> %v", i, m.VarWeights[i], w)
				}
			}
			h := m.Cfg.H
			pred := back.NewPredictor()
			for ti := h; ti <= tr.Len(); ti += 7 {
				w := tr.Window(ti, h)
				a, err := m.Predict(w)
				if err != nil {
					t.Fatal(err)
				}
				b, err := back.Predict(w)
				if err != nil {
					t.Fatal(err)
				}
				c, err := pred.Predict(w)
				if err != nil {
					t.Fatal(err)
				}
				for p := range a.R {
					if a.R[p] != b.R[p] {
						t.Fatalf("t=%d path %d: original %v, round-trip %v", ti, p, a.R[p], b.R[p])
					}
					if a.R[p] != c.R[p] {
						t.Fatalf("t=%d path %d: original %v, round-trip predictor %v", ti, p, a.R[p], c.R[p])
					}
				}
			}
			// A second round trip is a fixed point: the canonical bytes
			// re-serialize identically, so checkpoint Data is stable across
			// upload/install cycles.
			again, err := back.MarshalJSON()
			if err != nil {
				t.Fatal(err)
			}
			if string(again) != string(data) {
				t.Fatal("second serialization differs from the first")
			}
		})
	}
}

// TestLoadModelRejectsMismatchedWindow: a checkpoint whose cfg.H × pairs
// is not the first layer's input width used to load cleanly and panic in
// the first PredictAt (in served: the controller goroutine, on the next
// snapshot after the upload). LoadModel must refuse it, along with a
// non-positive H or input scale.
func TestLoadModelRejectsMismatchedWindow(t *testing.T) {
	ps := smallSetup(t)
	good := New(ps, Config{H: 3, Hidden: []int{8}, Seed: 1})
	serialize := func(edit func(j *modelJSON)) []byte {
		t.Helper()
		j := modelJSON{Cfg: good.Cfg, Net: good.Net, VarWeights: good.VarWeights, Scale: good.Scale, LossScale: good.LossScale}
		edit(&j)
		data, err := json.Marshal(j)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	if _, err := LoadModel(ps, serialize(func(*modelJSON) {})); err != nil {
		t.Fatalf("unedited checkpoint rejected: %v", err)
	}
	for _, c := range []struct {
		name string
		edit func(j *modelJSON)
	}{
		{"H shorter than the network's window", func(j *modelJSON) { j.Cfg.H = 2 }},
		{"H longer than the network's window", func(j *modelJSON) { j.Cfg.H = 4 }},
		{"zero H", func(j *modelJSON) { j.Cfg.H = 0 }},
		{"negative H", func(j *modelJSON) { j.Cfg.H = -3 }},
		{"zero scale", func(j *modelJSON) { j.Scale = 0 }},
		{"negative scale", func(j *modelJSON) { j.Scale = -1 }},
	} {
		m, err := LoadModel(ps, serialize(c.edit))
		if err == nil {
			t.Errorf("%s: loaded (H=%d, scale=%v, %d network inputs)", c.name, m.Cfg.H, m.Scale, m.Net.Layers[0].In)
		}
	}
}
