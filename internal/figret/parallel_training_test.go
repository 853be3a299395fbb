package figret

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"

	"figret/internal/graph"
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
		if math.Float64bits(a.EpochLoss[e]) != math.Float64bits(b.EpochLoss[e]) ||
			math.Float64bits(a.EpochMLU[e]) != math.Float64bits(b.EpochMLU[e]) {
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
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			t.Fatalf("%s: param %d: %v != %v", label, i, a[i], b[i])
		}
	}
}

// wanSetup is the smallest committed topology on which Train's own per-row
// work fans out at batch 16: GEANT's 1518 paths cross 5358 edges, and a
// window of 9 snapshots is 4554 inputs. 54 snapshots are 45 windows — two
// full batches and a ragged one of 13 rows.
func wanSetup(t *testing.T) (*te.PathSet, *traffic.Trace) {
	t.Helper()
	ps, err := te.NewPathSet(graph.GEANT(), 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := traffic.WAN(ps.G.NumVertices(), 9+2*16+13, 21)
	if err != nil {
		t.Fatal(err)
	}
	return ps, tr
}

// rowChunks is how many chunks a two-worker engine cuts b rows of the given
// work into: 1 means that pass stays on the calling goroutine.
func rowChunks(b, work int) int {
	net := nn.NewMLP([]int{1, 1}, nn.ReLU, nn.Sigmoid, rand.New(rand.NewSource(1)))
	var n atomic.Int32
	nn.NewDataParallel(net, 2).ForRows(b, work, func(_, _, _ int) { n.Add(1) })
	return int(n.Load())
}

// TestTrainWorkerCountInvariance is the end-to-end determinism contract:
// the whole loss trajectory and the trained weights are bitwise identical
// for every TrainWorkers value, and identical to TrainSequential. BatchSize
// 48 is three kernel tiles of rows on a network too small to fan out; at
// BatchSize 16, H 44 makes layer 0 (528×128) cross nn's parallel threshold
// as a kernel and as an Adam tensor, and leaves a trailing 8-row minibatch.
// Both sit on a 4-node mesh whose scoring and window assembly never leave
// the calling goroutine; the wanSetup case is where those fan out too, 64
// workers being more than its rows.
func TestTrainWorkerCountInvariance(t *testing.T) {
	ps, tr := trainSetup(t)
	wanPS, wanTr := wanSetup(t)
	for _, c := range []struct {
		ps      *te.PathSet
		tr      *traffic.Trace
		base    Config
		rowsFan bool // scoring and window assembly of a full batch fan out
	}{
		{ps, tr, Config{H: 4, Epochs: 3, Seed: 9, Gamma: 1, BatchSize: 3 * 16}, false},
		{ps, tr, Config{H: 44, Epochs: 2, Seed: 9, Gamma: 1, BatchSize: 16}, false},
		{wanPS, wanTr, Config{H: 9, Epochs: 1, Seed: 9, Gamma: 1, BatchSize: 16}, true},
	} {
		ps, tr, base := c.ps, c.tr, c.base
		b, in := base.BatchSize, base.H*ps.Pairs.Count()
		score, assemble := rowChunks(b, scoreWork(ps, b)), rowChunks(b, b*in)
		if (score > 1) != c.rowsFan || (assemble > 1) != c.rowsFan {
			t.Fatalf("in=%d batch=%d: scoring in %d chunks, assembly in %d, want fan-out %v: the table no longer straddles nn's threshold",
				in, b, score, assemble, c.rowsFan)
		}
		ref := base
		ref.TrainWorkers = 1
		refStats, refW := trainWith(t, ps, ref, tr)

		for _, w := range []int{2, 3, runtime.GOMAXPROCS(0), runtime.GOMAXPROCS(0) + 5, 64, 0} {
			cfg := base
			cfg.TrainWorkers = w
			stats, weights := trainWith(t, ps, cfg, tr)
			label := fmt.Sprintf("in=%d batch=%d workers=%d", in, base.BatchSize, w)
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
		label := fmt.Sprintf("in=%d batch=%d sequential", in, base.BatchSize)
		statsEqual(t, label, refStats, seqStats)
		weightsEqual(t, label, refW, seqW)
	}
}

// TestTrainWorkersExceedBatch covers the workers > rows edge: a 4-row batch
// with a large worker pool hands its kernels far more goroutines than tiles
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

// TestTrainWorkersWithBatchOverTrace combines both clamps: a worker pool
// larger than the tile count of a batch that itself exceeds the trace.
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
