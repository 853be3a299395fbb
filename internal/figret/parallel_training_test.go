package figret

import (
	"fmt"
	"runtime"
	"testing"

	"figret/internal/nn"
	"figret/internal/te"
	"figret/internal/traffic"
)

// trainWith runs Train on a fresh model with the given config and returns
// the stats plus a flat snapshot of the trained weights.
func trainWith(t *testing.T, ps *te.PathSet, cfg Config, tr *traffic.Trace) (TrainStats, []float64) {
	t.Helper()
	m := New(ps, cfg)
	stats, err := m.Train(tr)
	if err != nil {
		t.Fatal(err)
	}
	var w []float64
	m.Net.VisitParams(func(params, _ []float64) {
		w = append(w, params...)
	})
	return stats, w
}

func statsEqual(t *testing.T, label string, a, b TrainStats) {
	t.Helper()
	for e := range a.EpochLoss {
		if a.EpochLoss[e] != b.EpochLoss[e] || a.EpochMLU[e] != b.EpochMLU[e] {
			t.Fatalf("%s: epoch %d: (%v, %v) != (%v, %v)",
				label, e, a.EpochLoss[e], a.EpochMLU[e], b.EpochLoss[e], b.EpochMLU[e])
		}
	}
}

func weightsEqual(t *testing.T, label string, a, b []float64) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: %d vs %d params", label, len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("%s: param %d: %v != %v", label, i, a[i], b[i])
		}
	}
}

// TestTrainWorkerCountInvariance is the end-to-end determinism contract:
// the whole loss trajectory and the trained weights are bitwise identical
// for every TrainWorkers value, and identical to TrainSequential. It covers
// both ways the engine spends its workers: BatchSize 48 = 3 shards per
// minibatch, which run concurrently with serial kernels; and BatchSize 16
// = 1 shard, where the workers go into the kernels instead — H 44 makes
// layer 0 (528×128) cross nn's parallel threshold as a kernel and as an
// Adam tensor, and leaves a trailing 8-row minibatch.
func TestTrainWorkerCountInvariance(t *testing.T) {
	ps, tr := trainSetup(t)
	for _, base := range []Config{
		{H: 4, Epochs: 3, Seed: 9, Gamma: 1, BatchSize: 3 * nn.GradShardRows},
		{H: 44, Epochs: 2, Seed: 9, Gamma: 1, BatchSize: nn.GradShardRows},
	} {
		ref := base
		ref.TrainWorkers = 1
		refStats, refW := trainWith(t, ps, ref, tr)

		for _, w := range []int{2, 3, runtime.GOMAXPROCS(0), runtime.GOMAXPROCS(0) + 5, 0} {
			cfg := base
			cfg.TrainWorkers = w
			stats, weights := trainWith(t, ps, cfg, tr)
			label := fmt.Sprintf("batch=%d workers=%d", base.BatchSize, w)
			statsEqual(t, label, refStats, stats)
			weightsEqual(t, label, refW, weights)
		}

		seq := New(ps, base)
		seqStats, err := seq.TrainSequential(tr)
		if err != nil {
			t.Fatal(err)
		}
		var seqW []float64
		seq.Net.VisitParams(func(params, _ []float64) { seqW = append(seqW, params...) })
		label := fmt.Sprintf("batch=%d sequential", base.BatchSize)
		statsEqual(t, label, refStats, seqStats)
		weightsEqual(t, label, refW, seqW)
	}
}

// TestTrainMacroBatchEqualsFlat pins the macro-batch Adam-schedule
// equivalence: K micro-batches of B rows per step produce bitwise the same
// trajectory as flat batches of K·B rows whenever B is a multiple of
// nn.GradShardRows — same gradient sums (shard layout and tree reduction
// are identical) and the same optimizer step count.
func TestTrainMacroBatchEqualsFlat(t *testing.T) {
	ps, tr := trainSetup(t)
	for _, c := range []struct{ B, K int }{
		{nn.GradShardRows, 2},
		{nn.GradShardRows, 4},
		{2 * nn.GradShardRows, 2},
	} {
		macro := Config{H: 4, Epochs: 2, Seed: 7, Gamma: 1, BatchSize: c.B, MacroBatch: c.K}
		flat := Config{H: 4, Epochs: 2, Seed: 7, Gamma: 1, BatchSize: c.B * c.K}
		ms, mw := trainWith(t, ps, macro, tr)
		fs, fw := trainWith(t, ps, flat, tr)
		label := fmt.Sprintf("B=%d K=%d", c.B, c.K)
		statsEqual(t, label, fs, ms)
		weightsEqual(t, label, fw, mw)
	}
}

// TestTrainWorkersExceedBatch covers the workers > shards edge: a
// single-shard batch with a large worker pool runs its one shard inline,
// hands the pool to that shard's kernels (far more goroutines than tiles),
// and must match the single-worker run bitwise.
func TestTrainWorkersExceedBatch(t *testing.T) {
	ps, tr := trainSetup(t)
	base := Config{H: 4, Epochs: 2, Seed: 5, Gamma: 1, BatchSize: 4}

	ref := base
	ref.TrainWorkers = 1
	refStats, refW := trainWith(t, ps, ref, tr)

	many := base
	many.TrainWorkers = 64
	stats, weights := trainWith(t, ps, many, tr)
	statsEqual(t, "workers=64 batch=4", refStats, stats)
	weightsEqual(t, "workers=64 batch=4", refW, weights)
}

// TestTrainMacroBatchSequentialParity extends the batched≡sequential
// oracle to macro-batches: Train and TrainSequential implement the same
// canonical sharded reduction, so their trajectories agree bitwise with
// MacroBatch > 1 too.
func TestTrainMacroBatchSequentialParity(t *testing.T) {
	ps, tr := trainSetup(t)
	cfg := Config{H: 4, Epochs: 2, Seed: 11, Gamma: 1, BatchSize: nn.GradShardRows, MacroBatch: 3}
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
	statsEqual(t, "macro sequential parity", sa, sb)
	for li := range a.Net.Layers {
		for i, w := range a.Net.Layers[li].W {
			if w != b.Net.Layers[li].W[i] {
				t.Fatalf("layer %d W[%d]: batched %v != sequential %v", li, i, w, b.Net.Layers[li].W[i])
			}
		}
	}
}

// TestTrainWorkersWithBatchOverTrace combines both clamps: worker pool
// larger than the shard count of a batch that itself exceeds the trace.
func TestTrainWorkersWithBatchOverTrace(t *testing.T) {
	ps, tr := trainSetup(t)
	ref := Config{H: 4, Epochs: 2, Seed: 3, BatchSize: 10000, TrainWorkers: 1}
	big := ref
	big.TrainWorkers = 32
	refStats, refW := trainWith(t, ps, ref, tr)
	stats, weights := trainWith(t, ps, big, tr)
	statsEqual(t, "oversized batch", refStats, stats)
	weightsEqual(t, "oversized batch", refW, weights)
}
