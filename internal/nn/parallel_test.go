package nn

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"
)

// testNet builds a small deterministic MLP for engine tests.
func testNet(t *testing.T, seed int64) *MLP {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	return NewMLP([]int{7, 11, 5}, ReLU, Sigmoid, rng)
}

// wideNet builds an MLP in which every layer class — wide-in, square,
// wide-out — reaches parallelThreshold already at b=1 (1201×67, 257×257,
// 66×1101), so the engine's kernel-parallel path runs at every batch size;
// the two narrow layers between them cross it from b=4. Output widths are
// not multiples of tileOuts and give 2, 5 and 18 tiles: uneven chunks for
// 3 and 4 workers.
func wideNet(seed int64) *MLP {
	rng := rand.New(rand.NewSource(seed))
	return NewMLP([]int{1201, 67, 257, 257, 66, 1101}, ReLU, Sigmoid, rng)
}

// testBatch builds a deterministic [b][in] input matrix.
func testBatch(b, in int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	x := make([]float64, b*in)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	return x
}

// quadScore is a deterministic ScoreFunc: dy is a pure function of the
// row's output alone (not of the row's position), so the gradient of a
// set of rows is independent of how they are split into micro-batches.
func quadScore(out int) ScoreFunc {
	return func(_ int, y []float64, r0, r1 int, dy []float64) {
		for k := 0; k < (r1-r0)*out; k++ {
			dy[k] = y[k] - 0.25
		}
	}
}

// snapshotGrads copies the network's accumulated GW/GB.
func snapshotGrads(m *MLP) [][]float64 {
	var out [][]float64
	m.VisitParams(func(_, grads []float64) {
		out = append(out, append([]float64(nil), grads...))
	})
	return out
}

func gradsEqual(t *testing.T, label string, a, b [][]float64) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: %d vs %d tensors", label, len(a), len(b))
	}
	for ti := range a {
		for i := range a[ti] {
			if a[ti][i] != b[ti][i] {
				t.Fatalf("%s: tensor %d element %d: %v vs %v", label, ti, i, a[ti][i], b[ti][i])
			}
		}
	}
}

// runEngine accumulates the given micro-batches on a fresh engine over a
// fresh testNet and returns the reduced gradient snapshot.
func runEngine(t *testing.T, workers int, micros [][]float64, rows []int) [][]float64 {
	t.Helper()
	return runEngineOn(testNet(t, 1), workers, micros, rows)
}

// runEngineOn is runEngine over a caller-built net.
func runEngineOn(m *MLP, workers int, micros [][]float64, rows []int) [][]float64 {
	eng := NewDataParallel(m, workers)
	score := quadScore(m.Layers[len(m.Layers)-1].Out)
	for i, x := range micros {
		eng.Accumulate(x, rows[i], score)
	}
	eng.Reduce()
	return snapshotGrads(m)
}

// plainGrads is the gradient of one BatchForward + quadScore +
// BatchBackward over m, with no engine involved.
func plainGrads(m *MLP, x []float64, b int) [][]float64 {
	out := m.Layers[len(m.Layers)-1].Out
	s := NewScratch(m, b)
	y := m.BatchForward(x, b, s)
	dy := make([]float64, b*out)
	quadScore(out)(0, y, 0, b, dy)
	m.BatchBackward(dy, b, s)
	return snapshotGrads(m)
}

// TestDataParallelWorkerCountInvariance is the core determinism contract:
// the reduced gradient is bitwise identical for every worker count,
// including worker counts above the shard count and above GOMAXPROCS.
func TestDataParallelWorkerCountInvariance(t *testing.T) {
	for _, b := range []int{1, 3, GradShardRows, GradShardRows + 1, 53, 16 * MaxGradLanes, 16*MaxGradLanes + 7} {
		x := testBatch(b, 7, 42)
		ref := runEngine(t, 1, [][]float64{x}, []int{b})
		for _, w := range []int{2, 3, 8, MaxGradLanes, MaxGradLanes + 9, runtime.GOMAXPROCS(0)} {
			got := runEngine(t, w, [][]float64{x}, []int{b})
			gradsEqual(t, fmt.Sprintf("b=%d workers=%d", b, w), ref, got)
		}
	}
}

// TestDataParallelSingleShardMatchesBatchBackward pins the compatibility
// guarantee: a batch of at most GradShardRows rows is one shard, whose
// reduced gradient is bitwise identical to a plain BatchForward +
// BatchBackward on the network — i.e. to the pre-engine batched trainer.
func TestDataParallelSingleShardMatchesBatchBackward(t *testing.T) {
	for _, b := range []int{1, 2, GradShardRows} {
		x := testBatch(b, 7, 7)
		want := plainGrads(testNet(t, 1), x, b)
		got := runEngine(t, 4, [][]float64{x}, []int{b})
		gradsEqual(t, fmt.Sprintf("single-shard b=%d", b), want, got)
	}
}

// TestDataParallelSingleShardKernelParallel covers the path a micro-batch
// with fewer shards than workers takes: the idle workers go into the
// kernels (forward tiles, backward pass 1 over output tiles, pass 2 over
// batch rows, layer 0's dL/dx skipped, fused parallel reduce). The reduced
// gradient must be bitwise the workers=1 one — which starts no goroutine —
// and, for a single shard, that of a plain BatchForward + BatchBackward.
// 32 and 33 rows are two and three shards: with more workers than that,
// shard goroutines nest kernel goroutines.
func TestDataParallelSingleShardKernelParallel(t *testing.T) {
	workers := []int{2, 3, 4, runtime.GOMAXPROCS(0) + 5}
	for _, b := range []int{1, 2, GradShardRows - 1, GradShardRows, 2 * GradShardRows, 2*GradShardRows + 1} {
		x := testBatch(b, 1201, 17)
		ref := runEngineOn(wideNet(1), 1, [][]float64{x}, []int{b})
		if b <= GradShardRows {
			gradsEqual(t, fmt.Sprintf("b=%d workers=1 vs BatchBackward", b), plainGrads(wideNet(1), x, b), ref)
		}
		for _, w := range workers {
			got := runEngineOn(wideNet(1), w, [][]float64{x}, []int{b})
			gradsEqual(t, fmt.Sprintf("b=%d workers=%d", b, w), ref, got)
		}
	}
}

// TestDataParallelLaneZeroIsNetworkGradient is the contract of a
// single-shard step: lane 0 accumulates in the network's own GW/GB, so the
// engine holds no gradient-sized buffer and Reduce has nothing to copy. On
// a net whose parameters dwarf its activations (16 rows × 1536 widths
// against 525k parameters), building the engine and running one
// single-shard Accumulate + Reduce allocates well under the 8 B a parameter
// one such buffer costs.
func TestDataParallelLaneZeroIsNetworkGradient(t *testing.T) {
	m := NewMLP([]int{512, 512, 512}, ReLU, Sigmoid, rand.New(rand.NewSource(4)))
	x := testBatch(GradShardRows, 512, 4)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	eng := NewDataParallel(m, 1)
	eng.Accumulate(x, GradShardRows, quadScore(512))
	eng.Reduce()
	runtime.ReadMemStats(&after)
	if perParam := float64(after.TotalAlloc-before.TotalAlloc) / float64(m.NumParams()); perParam >= 8 {
		t.Errorf("engine + single-shard step allocated %.3g B per parameter, want < 8: a gradient-sized buffer", perParam)
	}
	for ti, want := range m.GradView().t {
		if got := eng.lanes[0].grads.t[ti]; &got[0] != &want[0] || len(got) != len(want) {
			t.Errorf("lane 0 tensor %d is not the network's gradient buffer", ti)
		}
	}
	if eng.lanes[1] != nil {
		t.Error("a single-shard step built a second lane")
	}
}

// TestDataParallelStepMatchesReduceThenAdam pins Step: the engine-bounded
// optimizer sweep leaves bitwise the parameters of Reduce followed by the
// public Adam.Step, and leaves the gradients cleared, for every worker
// count.
func TestDataParallelStepMatchesReduceThenAdam(t *testing.T) {
	const b = GradShardRows
	const steps = 3
	x := testBatch(b, 1201, 23)
	ref := wideNet(2)
	refEng, refOpt := NewDataParallel(ref, 1), NewAdam(3e-3)
	for step := 0; step < steps; step++ {
		refEng.Accumulate(x, b, quadScore(1101))
		refEng.Reduce()
		refOpt.Step(ref)
	}
	for _, w := range []int{1, 2, 3, runtime.GOMAXPROCS(0) + 5} {
		m := wideNet(2)
		eng, opt := NewDataParallel(m, w), NewAdam(3e-3)
		for step := 0; step < steps; step++ {
			eng.Accumulate(x, b, quadScore(1101))
			eng.Step(opt)
		}
		for li, l := range m.Layers {
			gradsEqual(t, fmt.Sprintf("workers=%d layer %d params", w, li),
				[][]float64{ref.Layers[li].W, ref.Layers[li].B}, [][]float64{l.W, l.B})
			for _, g := range [][]float64{l.GW, l.GB} {
				for i, v := range g {
					if v != 0 {
						t.Fatalf("workers=%d layer %d: gradient %d is %v after Step, want cleared", w, li, i, v)
					}
				}
			}
		}
	}
}

// TestDataParallelMacroEqualsFlat pins the macro-batch alignment
// guarantee: accumulating K micro-batches of B rows (B a multiple of
// GradShardRows) before one Reduce produces bitwise the same gradient as
// one flat batch of K·B rows.
func TestDataParallelMacroEqualsFlat(t *testing.T) {
	for _, c := range []struct{ B, K int }{{GradShardRows, 2}, {2 * GradShardRows, 2}, {2 * GradShardRows, 4}, {GradShardRows, 17}} {
		flat := testBatch(c.B*c.K, 7, 99)
		micros := make([][]float64, c.K)
		rows := make([]int, c.K)
		for i := range micros {
			micros[i] = flat[i*c.B*7 : (i+1)*c.B*7]
			rows[i] = c.B
		}
		want := runEngine(t, 3, [][]float64{flat}, []int{c.B * c.K})
		got := runEngine(t, 3, micros, rows)
		gradsEqual(t, fmt.Sprintf("macro B=%d K=%d", c.B, c.K), want, got)
	}
}

// TestDataParallelReduceResets verifies a second macro-batch after Reduce
// starts from clean lanes: two identical Accumulate+Reduce rounds yield
// identical per-round gradients.
func TestDataParallelReduceResets(t *testing.T) {
	m := testNet(t, 1)
	eng := NewDataParallel(m, 4)
	x := testBatch(40, 7, 5)
	score := quadScore(5)

	eng.Accumulate(x, 40, score)
	eng.Reduce()
	first := snapshotGrads(m)
	m.ZeroGrads()

	eng.Accumulate(x, 40, score)
	eng.Reduce()
	second := snapshotGrads(m)
	gradsEqual(t, "second round", first, second)
}

// TestTreeReduceOrder checks the reduction combines lanes in the fixed
// pairwise pattern ((0+1)+(2+3))+((4)...) rather than a left fold.
func TestTreeReduceOrder(t *testing.T) {
	m := testNet(t, 2)
	mk := func(v float64) *Grads {
		g := NewGrads(m)
		for ti := 0; ti < len(g.t); ti++ {
			for i := range g.t[ti] {
				g.t[ti][i] = v
			}
		}
		return g
	}
	for _, n := range []int{1, 2, 3, 4, 5, 7, 8, 16} {
		gs := make([]*Grads, n)
		vals := make([]float64, n)
		for i := range gs {
			vals[i] = 1 / float64(i+3)
			gs[i] = mk(vals[i])
		}
		got := TreeReduce(gs).t[0][0]
		want := treeSumRef(vals)
		if got != want {
			t.Fatalf("n=%d: tree sum %v, want %v", n, got, want)
		}
	}
}

// treeSumRef mirrors TreeReduce's grouping on plain float64s.
func treeSumRef(v []float64) float64 {
	v = append([]float64(nil), v...)
	for stride := 1; stride < len(v); stride *= 2 {
		for i := 0; i+stride < len(v); i += 2 * stride {
			v[i] += v[i+stride]
		}
	}
	return v[0]
}

// TestGradsAliasView verifies GradView aliases the live gradient buffers.
func TestGradsAliasView(t *testing.T) {
	m := testNet(t, 3)
	view := m.GradView()
	m.Layers[0].GW[2] = 42
	if view.Tensor(0)[2] != 42 {
		t.Fatal("GradView does not alias GW")
	}
	view.Zero()
	if m.Layers[0].GW[2] != 0 {
		t.Fatal("Zero through view did not clear GW")
	}
}
