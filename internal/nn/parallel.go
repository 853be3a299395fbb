package nn

import (
	"fmt"
	"runtime"
)

// This file is the deterministic training engine (DESIGN.md §10): one
// batched forward, one scoring call and one batched backward per
// micro-batch, with the engine's worker count handed to the kernels. The
// kernels give every output entry, gradient row and parameter exactly one
// writer and a fixed accumulation order (batch rows ascending), so the
// gradient is bitwise that of per-sample Forward/Backward calls in row
// order for every batch size and every worker count — including 1, which
// starts no goroutine at all.

// ScoreFunc computes per-row losses during Accumulate. It receives the
// micro-batch's forward output y of shape [r1-r0][Out] and its row range
// [r0, r1), and must fill dy (same shape as y) with dL/dy. The engine
// scores a micro-batch in one call, so lane is always 0 and [r0, r1) is
// [0, b) — a ScoreFunc that wants its rows on every core fans them out
// itself through ForRows; the five-argument shape is pinned by
// benchmark/probes.go.
type ScoreFunc func(lane int, y []float64, r0, r1 int, dy []float64)

// DataParallel runs minibatch forward/backward passes on a worker pool
// with bitwise worker-count-independent gradient sums. Typical use:
//
//	eng := NewDataParallel(m, workers)
//	for each micro-batch {
//		eng.Accumulate(x, b, score)  // forward + score + backward into m's GW/GB
//	}
//	eng.Step(opt)                    // Adam on the accumulated gradient
//
// Accumulate may be called several times before Step: gradient rows grow
// in batch-row order across calls exactly as within one, so K micro-batches
// of B rows leave the bits of one batch of K·B rows, for every B.
//
// A DataParallel is not safe for concurrent use; it parallelizes
// internally.
type DataParallel struct {
	m       *MLP
	workers int
	scratch *Scratch // sized to the largest micro-batch seen
	dy      []float64
}

// NewDataParallel builds an engine over m. workers <= 0 selects
// GOMAXPROCS. The engine accumulates in the network's own gradient
// buffers, so it costs one scratch and no gradient-sized buffer.
func NewDataParallel(m *MLP, workers int) *DataParallel {
	if len(m.Layers) == 0 {
		panic("nn: data-parallel engine over empty MLP")
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &DataParallel{m: m, workers: workers}
}

// Accumulate runs forward, scoring, and backward for one micro-batch x of
// shape [b][In], adding its gradient into the network's GW/GB (zero after
// an optimizer Step). Layer 0's dL/dx, which a trainer never reads, is
// skipped. x is read in place until Accumulate returns — backward takes
// layer 0's input from it, not from a copy — so it must not change during
// the call, score included; the caller may reuse it once Accumulate
// returns.
func (e *DataParallel) Accumulate(x []float64, b int, score ScoreFunc) {
	in := e.m.Layers[0].In
	out := e.m.Layers[len(e.m.Layers)-1].Out
	if b <= 0 {
		panic(fmt.Sprintf("nn: accumulate batch %d must be positive", b))
	}
	if len(x) != b*in {
		panic(fmt.Sprintf("nn: accumulate input size %d, want %d×%d", len(x), b, in))
	}
	if e.scratch == nil || e.scratch.batch < b {
		e.scratch = NewScratch(e.m, b)
		e.dy = make([]float64, b*out)
	}
	y := e.m.batchForward(x, b, e.scratch, e.workers, true)
	dy := e.dy[:b*out]
	score(0, y, 0, b, dy)
	e.m.batchBackward(dy, b, e.scratch, e.workers, false)
}

// ForRows runs f(k, lo, hi) over the rows [0, b) of a micro-batch, for the
// per-row work a trainer does around the kernels (assembling inputs,
// scoring outputs), under the kernels' own rule: a pass of at least
// parallelThreshold element operations (work) is cut into contiguous
// chunks over the engine's workers, chunk k < min(workers, b) on its own
// goroutine and chunk 0 on the caller's; a smaller pass, or an engine of
// one worker, is the single call f(0, 0, b) and starts none. Which rows
// share a chunk depends on the worker count, so f must compute each row
// from that row alone into slots no other row writes — then no bit depends
// on the fan-out. k is for per-chunk scratch.
func (e *DataParallel) ForRows(b, work int, f func(k, lo, hi int)) {
	if work < parallelThreshold {
		f(0, 0, b)
		return
	}
	parallelFor(e.workers, b, f)
}

// Reduce does nothing: Accumulate leaves the whole gradient in the
// network's GW/GB. benchmark/probes.go is its only caller.
func (e *DataParallel) Reduce() {}

// Step applies one update of opt to the accumulated gradient, its sweep
// bounded by the engine's worker pool like the step's other kernels
// (opt.Step on its own is bounded by GOMAXPROCS).
func (e *DataParallel) Step(opt *Adam) {
	opt.step(e.m, e.workers)
}
