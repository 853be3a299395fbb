package figret

import (
	"math"
	"testing"

	"figret/internal/graph"
	"figret/internal/te"
	"figret/internal/traffic"
)

func trainSetup(t *testing.T) (*te.PathSet, *traffic.Trace) {
	t.Helper()
	ps, err := te.NewPathSet(graph.FullMesh(4, 10), 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := traffic.DC(traffic.PoDDB, 4, 100, 21)
	if err != nil {
		t.Fatal(err)
	}
	return ps, tr
}

func TestBatchSizeDefaults(t *testing.T) {
	c := Config{}.withDefaults()
	if c.BatchSize != 1 {
		t.Errorf("defaults: batch=%d", c.BatchSize)
	}
}

func TestMinibatchTrainingConverges(t *testing.T) {
	ps, tr := trainSetup(t)
	m := New(ps, Config{H: 4, Epochs: 6, Seed: 3, BatchSize: 8})
	stats, err := m.Train(tr)
	if err != nil {
		t.Fatal(err)
	}
	first, last := stats.EpochMLU[0], stats.EpochMLU[len(stats.EpochMLU)-1]
	if last >= first {
		t.Errorf("minibatch training did not improve: %v -> %v", first, last)
	}
}

func TestMinibatchDiffersFromPerSample(t *testing.T) {
	ps, tr := trainSetup(t)
	a := New(ps, Config{H: 4, Epochs: 2, Seed: 3, BatchSize: 1})
	b := New(ps, Config{H: 4, Epochs: 2, Seed: 3, BatchSize: 16})
	sa, err := a.Train(tr)
	if err != nil {
		t.Fatal(err)
	}
	sb, err := b.Train(tr)
	if err != nil {
		t.Fatal(err)
	}
	if sa.EpochLoss[1] == sb.EpochLoss[1] {
		t.Error("batch size had no effect on training trajectory")
	}
}

func TestBatchedMatchesSequentialTrajectory(t *testing.T) {
	// The batched engine must reproduce the sequential per-sample reference
	// path bitwise for identical seeds: at batch=1 (the paper's per-sample
	// protocol) and at batch>1 (gradient accumulation), 3×16+5 rows being
	// aligned to no kernel tile. This is the end-to-end guarantee on top of
	// the nn-level kernel equivalence tests.
	ps, tr := trainSetup(t)
	for _, batch := range []int{1, 8, 3*16 + 5} {
		cfg := Config{H: 4, Epochs: 3, Seed: 9, Gamma: 1, BatchSize: batch}
		a := New(ps, cfg)
		b := New(ps, cfg)
		sa, err := a.Train(tr)
		if err != nil {
			t.Fatal(err)
		}
		sb, err := b.TrainSequential(tr)
		if err != nil {
			t.Fatal(err)
		}
		for e := range sa.EpochLoss {
			if sa.EpochLoss[e] != sb.EpochLoss[e] || sa.EpochMLU[e] != sb.EpochMLU[e] {
				t.Fatalf("batch=%d epoch %d: batched (%v, %v) != sequential (%v, %v)",
					batch, e, sa.EpochLoss[e], sa.EpochMLU[e], sb.EpochLoss[e], sb.EpochMLU[e])
			}
		}
		// The trained weights must agree too, not just the reported losses.
		for li := range a.Net.Layers {
			for i, w := range a.Net.Layers[li].W {
				if w != b.Net.Layers[li].W[i] {
					t.Fatalf("batch=%d layer %d W[%d]: batched %v != sequential %v",
						batch, li, i, w, b.Net.Layers[li].W[i])
				}
			}
		}
	}
}

func TestBatchLargerThanTrace(t *testing.T) {
	// A batch size exceeding the sample count must clamp, not crash, and
	// still behave like full-batch training.
	ps, tr := trainSetup(t)
	m := New(ps, Config{H: 4, Epochs: 2, Seed: 3, BatchSize: 10000})
	stats, err := m.Train(tr)
	if err != nil {
		t.Fatal(err)
	}
	if len(stats.EpochLoss) != 2 {
		t.Fatalf("epochs = %d", len(stats.EpochLoss))
	}
	for _, v := range stats.EpochLoss {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatal("full-batch training diverged")
		}
	}
}

func TestCoarseGrainedUniformWeights(t *testing.T) {
	ps, tr := trainSetup(t)
	m := New(ps, Config{H: 4, Epochs: 1, Seed: 5, Gamma: 1, CoarseGrained: true})
	if _, err := m.Train(tr); err != nil {
		t.Fatal(err)
	}
	for i, w := range m.VarWeights {
		if w != 1 {
			t.Fatalf("coarse-grained weight[%d] = %v, want 1", i, w)
		}
	}
	fine := New(ps, Config{H: 4, Epochs: 1, Seed: 5, Gamma: 1})
	if _, err := fine.Train(tr); err != nil {
		t.Fatal(err)
	}
	uniform := true
	for _, w := range fine.VarWeights {
		if w != 1 {
			uniform = false
		}
	}
	if uniform {
		t.Error("fine-grained weights unexpectedly uniform")
	}
}
