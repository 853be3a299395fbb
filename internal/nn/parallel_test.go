package nn

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
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

// engineGrads accumulates the given micro-batches on a fresh engine over m
// and returns the network's gradient.
func engineGrads(m *MLP, workers int, micros [][]float64, rows []int) [][]float64 {
	eng := NewDataParallel(m, workers)
	score := quadScore(m.Layers[len(m.Layers)-1].Out)
	for i, x := range micros {
		eng.Accumulate(x, rows[i], score)
	}
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

// sampleGrads is the gradient of b per-sample Forward + quadScore +
// Backward calls in row order: the sum every other path must reproduce.
func sampleGrads(m *MLP, x []float64, b int) [][]float64 {
	in, out := m.Layers[0].In, m.Layers[len(m.Layers)-1].Out
	dy := make([]float64, out)
	for bi := 0; bi < b; bi++ {
		y := m.Forward(x[bi*in : (bi+1)*in])
		quadScore(out)(0, y, bi, bi+1, dy)
		m.Backward(dy)
	}
	return snapshotGrads(m)
}

// checkEngineGradient is the determinism contract without a caveat: for
// every batch size and every worker count — 1 starts no goroutine, the
// largest exceeds GOMAXPROCS and most tile counts — the engine's gradient
// is bitwise that of a plain BatchForward + BatchBackward and of per-sample
// Forward/Backward accumulation in row order.
func checkEngineGradient(t *testing.T, mk func() *MLP, batches []int) {
	t.Helper()
	in := mk().Layers[0].In
	for _, b := range batches {
		x := testBatch(b, in, 42)
		want := sampleGrads(mk(), x, b)
		gradsEqual(t, fmt.Sprintf("b=%d BatchBackward vs per-sample", b), want, plainGrads(mk(), x, b))
		for _, w := range []int{1, 2, 3, 4, 16, runtime.GOMAXPROCS(0) + 5} {
			got := engineGrads(mk(), w, [][]float64{x}, []int{b})
			gradsEqual(t, fmt.Sprintf("b=%d workers=%d", b, w), want, got)
		}
	}
}

// TestDataParallelWorkerCountInvariance runs the contract on a net whose
// kernels stay below parallelThreshold: batch sizes around and far past a
// tile, odd and even, on the serial paths.
func TestDataParallelWorkerCountInvariance(t *testing.T) {
	checkEngineGradient(t, func() *MLP { return testNet(t, 1) }, []int{1, 2, 15, 16, 17, 33, 53, 263})
}

// TestDataParallelKernelParallel runs it where every kernel fans out:
// forward tiles, backward pass 1 over output tiles, pass 2 over batch rows
// (layer 0's dL/dx skipped), with uneven chunks for 3 and 4 workers.
func TestDataParallelKernelParallel(t *testing.T) {
	checkEngineGradient(t, func() *MLP { return wideNet(1) }, []int{1, 2, 15, 16, 17, 33})
}

// TestDataParallelNoGradientSizedAllocation: the engine accumulates in the
// network's own GW/GB and holds no gradient-sized buffer. On a net whose
// parameters dwarf its activations (16 rows × 1536 widths against 525k
// parameters), building the engine and running one Accumulate allocates
// well under the 8 B a parameter one such buffer costs.
func TestDataParallelNoGradientSizedAllocation(t *testing.T) {
	m := NewMLP([]int{512, 512, 512}, ReLU, Sigmoid, rand.New(rand.NewSource(4)))
	x := testBatch(16, 512, 4)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	eng := NewDataParallel(m, 1)
	eng.Accumulate(x, 16, quadScore(512))
	runtime.ReadMemStats(&after)
	if perParam := float64(after.TotalAlloc-before.TotalAlloc) / float64(m.NumParams()); perParam >= 8 {
		t.Errorf("engine + one step allocated %.3g B per parameter, want < 8: a gradient-sized buffer", perParam)
	}
}

// TestDataParallelStepMatchesReduceThenAdam pins Step: the engine-bounded
// optimizer sweep leaves bitwise the parameters of Reduce followed by the
// public Adam.Step, and leaves the gradients cleared, for every worker
// count.
func TestDataParallelStepMatchesReduceThenAdam(t *testing.T) {
	const b = 16
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

// TestDataParallelMacroEqualsFlat: gradient rows grow in batch-row order
// across Accumulate calls as within one, so two calls leave bitwise the
// gradient of one — for every cut of a batch, aligned to nothing, on serial
// kernels (testNet) and on fanned-out ones (wideNet).
func TestDataParallelMacroEqualsFlat(t *testing.T) {
	for _, c := range []struct {
		mk func() *MLP
		b  int
	}{
		{func() *MLP { return testNet(t, 1) }, 53},
		{func() *MLP { return wideNet(1) }, 19},
	} {
		in := c.mk().Layers[0].In
		flat := testBatch(c.b, in, 99)
		want := engineGrads(c.mk(), 3, [][]float64{flat}, []int{c.b})
		for cut := 1; cut < c.b; cut++ {
			got := engineGrads(c.mk(), 3, [][]float64{flat[:cut*in], flat[cut*in:]}, []int{cut, c.b - cut})
			gradsEqual(t, fmt.Sprintf("in=%d cut=%d", in, cut), want, got)
		}
	}
}

// TestDataParallelForRows pins the row fan-out a trainer's scoring and input
// assembly ride on: a pass below parallelThreshold, or an engine of one
// worker, is the one call f(0, 0, b) — no goroutine — and above it the
// chunks are numbered from 0, contiguous, and cover every row once:
// ⌈b/min(workers, b)⌉ rows each, so 5 rows over 3 workers are 2+2+1, 16
// over 7 are five 3s and a 1, and workers beyond the rows get nothing.
func TestDataParallelForRows(t *testing.T) {
	m := testNet(t, 1)
	for _, c := range []struct{ workers, b, work, chunks int }{
		{8, 16, parallelThreshold - 1, 1},
		{1, 16, parallelThreshold, 1},
		{2, 16, parallelThreshold, 2},
		{3, 5, parallelThreshold, 3},
		{7, 16, 4 * parallelThreshold, 6},
		{40, 3, parallelThreshold, 3},
		{2, 1, parallelThreshold, 1},
	} {
		var mu sync.Mutex
		bounds := map[int][2]int{}
		NewDataParallel(m, c.workers).ForRows(c.b, c.work, func(k, lo, hi int) {
			mu.Lock()
			defer mu.Unlock()
			if _, dup := bounds[k]; dup {
				t.Errorf("%+v: chunk %d ran twice", c, k)
			}
			bounds[k] = [2]int{lo, hi}
		})
		if len(bounds) != c.chunks {
			t.Errorf("%+v: %d chunks: %v", c, len(bounds), bounds)
		}
		next := 0
		for k := 0; k < len(bounds); k++ {
			if r, ok := bounds[k]; !ok || r[0] != next || r[1] <= r[0] {
				t.Fatalf("%+v: chunk %d is %v, want one starting at row %d: %v", c, k, r, next, bounds)
			}
			next = bounds[k][1]
		}
		if next != c.b {
			t.Errorf("%+v: chunks end at row %d: %v", c, next, bounds)
		}
	}
}
