package nn

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// This file implements the deterministic data-parallel training engine
// (DESIGN.md §10). A minibatch is cut into fixed-size shards of
// GradShardRows consecutive rows; shard g (counted from the last Reduce,
// i.e. within the current macro-batch) accumulates its gradient partial
// into lane g mod MaxGradLanes. Lanes — not goroutines — are the unit of
// state: the partial held by a lane is a pure function of the minibatch
// rows and the shard layout, and the final sum is produced by a
// fixed-order pairwise tree over the lanes, so the reduced gradient is
// bitwise identical for every worker count (including 1, which runs
// inline with no goroutines at all). Worker scheduling only decides
// *when* a lane's shards are processed, never *what* they contain.
//
// Where the cores go: a micro-batch with at least as many shards as the
// engine has workers is parallel across shards, each running serial
// kernels; one with fewer shards (the default batch of GradShardRows rows
// is a single shard) hands the workers the shards leave idle to the
// kernels of each shard instead — forward and backward tiles, the reduce
// and the optimizer sweep. Every output entry, gradient row and parameter
// keeps exactly one writer and its accumulation order under either split,
// so the choice cannot move a bit.

const (
	// GradShardRows is the number of consecutive minibatch rows per
	// gradient shard. It equals tileRows, and — deliberately — the
	// default figret batch size: any batch of ≤ GradShardRows rows is a
	// single shard, whose partial is accumulated in row order exactly
	// like the pre-engine sequential sum, so historical trajectories
	// (and the blessed scenario goldens) are preserved bit-for-bit.
	GradShardRows = tileRows

	// MaxGradLanes caps the number of lane partials (and so the memory
	// overhead: at most MaxGradLanes gradient-sized buffers). Shards
	// beyond MaxGradLanes wrap onto existing lanes in shard order.
	// Power of two, so tree(2n) = tree(n)+tree(n) holds at every level
	// up to a full macro-batch — the property behind macro≡flat bitwise
	// equivalence for aligned batch sizes.
	MaxGradLanes = 16
)

// ScoreFunc computes per-row losses for one shard during Accumulate. It
// receives the lane index (distinct concurrent calls always carry
// distinct lanes, so lane-indexed caller state needs no locking), the
// shard's forward output y of shape [r1-r0][Out], the shard's absolute
// row range [r0, r1) within the minibatch, and must fill dy (same shape
// as y) with dL/dy. It may record per-row losses into caller state
// indexed by absolute row — rows of distinct concurrent shards never
// collide.
type ScoreFunc func(lane int, y []float64, r0, r1 int, dy []float64)

// dpLane is one gradient lane: a scratch sized for a single shard, the
// lane's running partial, and (lazily, only once a lane receives a second
// shard within a macro-batch) a buffer for computing later shard partials
// before adding them in.
type dpLane struct {
	scratch *Scratch
	dy      []float64
	grads   *Grads // running partial: lane 0's is the network's own GW/GB, the others' are zeroed by Reduce
	shard   *Grads // scratch for shards after the first; lazily allocated
	dirty   bool   // grads holds at least one shard since the last Reduce
}

// DataParallel shards minibatch forward/backward passes across a worker
// pool with bitwise worker-count-independent gradient sums. Typical use:
//
//	eng := NewDataParallel(m, workers)
//	for each micro-batch {
//		eng.Accumulate(x, b, score)  // forward + score + backward
//	}
//	eng.Step(opt)                    // tree-reduce partials into lane 0 — m's GW/GB — then Adam
//
// Accumulate may be called several times before Reduce (macro-batches):
// the shard counter runs on across calls, so K micro-batches of B rows
// produce the same shard layout — and, after the tree reduction, the same
// bits — as one flat batch of K·B rows whenever B is a multiple of
// GradShardRows.
//
// A DataParallel is not safe for concurrent use; it parallelizes
// internally.
type DataParallel struct {
	m       *MLP
	workers int
	out     int
	lanes   [MaxGradLanes]*dpLane
	shards  int // shards accumulated since the last Reduce
}

// NewDataParallel builds an engine over m. workers <= 0 selects
// GOMAXPROCS. Lane buffers are allocated on demand and lane 0 accumulates
// in the network's own gradient buffers, so an engine over single-shard
// batches costs one scratch and no gradient set at all.
func NewDataParallel(m *MLP, workers int) *DataParallel {
	if len(m.Layers) == 0 {
		panic("nn: data-parallel engine over empty MLP")
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &DataParallel{m: m, workers: workers, out: m.Layers[len(m.Layers)-1].Out}
}

// Workers returns the resolved worker-pool size.
func (e *DataParallel) Workers() int { return e.workers }

func (e *DataParallel) lane(i int) *dpLane {
	ln := e.lanes[i]
	if ln == nil {
		// The tree lands in lane 0, so lane 0 accumulates where the sum
		// belongs. The network's gradients are +0 on entry and a sum grown
		// from +0 by additions is never -0, so this is bitwise a partial of
		// lane 0's own added into them afterwards.
		var grads *Grads
		if i == 0 {
			grads = e.m.GradView()
		} else {
			grads = NewGrads(e.m)
		}
		ln = &dpLane{
			scratch: NewScratch(e.m, GradShardRows),
			dy:      make([]float64, GradShardRows*e.out),
			grads:   grads,
		}
		e.lanes[i] = ln
	}
	return ln
}

// Accumulate runs forward, scoring, and backward for one micro-batch x of
// shape [b][In], adding its gradient into the engine's lane partials. The
// input is consumed before Accumulate returns (workers read it but never
// write), so the caller may reuse x immediately. Lane 0's partial is the
// network's own GW/GB: they must be zero on entry to the first Accumulate
// after a Reduce (optimizer Steps clear them), hold that one lane's partial
// in between, and the whole sum only after Reduce.
func (e *DataParallel) Accumulate(x []float64, b int, score ScoreFunc) {
	in := e.m.Layers[0].In
	if b <= 0 {
		panic(fmt.Sprintf("nn: accumulate batch %d must be positive", b))
	}
	if len(x) != b*in {
		panic(fmt.Sprintf("nn: accumulate input size %d, want %d×%d", len(x), b, in))
	}
	n := (b + GradShardRows - 1) / GradShardRows
	base := e.shards
	// Work item k ∈ [0, active) owns lane (base+k) mod MaxGradLanes and
	// processes, in ascending order, every local shard j ≡ k (mod
	// MaxGradLanes). Lane ownership is exclusive within this call, so
	// each lane's partial grows in shard order no matter which goroutine
	// runs it — or whether any goroutines run at all.
	active := n
	if active > MaxGradLanes {
		active = MaxGradLanes
	}
	workers := e.workers
	if workers > active {
		workers = active
	}
	// Workers beyond the shard count would park; they go into each shard's
	// kernels instead. 1 — serial kernels — once the shards alone occupy
	// the pool.
	kernelWorkers := max(1, e.workers/active)
	run := func(k int) {
		laneIdx := (base + k) % MaxGradLanes
		ln := e.lane(laneIdx)
		for j := k; j < n; j += MaxGradLanes {
			r0 := j * GradShardRows
			r1 := r0 + GradShardRows
			if r1 > b {
				r1 = b
			}
			rows := r1 - r0
			y := e.m.batchForward(x[r0*in:r1*in], rows, ln.scratch, kernelWorkers)
			dy := ln.dy[:rows*e.out]
			score(laneIdx, y, r0, r1, dy)
			// The first shard of a lane accumulates straight into the
			// (zeroed) lane partial; later shards are computed into a
			// zeroed side buffer and folded in with one rounded add per
			// element — the canonical reduction order — which clears the
			// side buffer for the next shard in the same sweep.
			tgt := ln.grads
			if ln.dirty {
				if ln.shard == nil {
					ln.shard = NewGrads(e.m)
				}
				tgt = ln.shard
			}
			e.m.batchBackward(dy, rows, ln.scratch, tgt, kernelWorkers, false)
			if ln.dirty {
				ln.grads.addAndClear(ln.shard, kernelWorkers)
			} else {
				ln.dirty = true
			}
		}
	}
	if workers <= 1 {
		for k := 0; k < active; k++ {
			run(k)
		}
	} else {
		var next atomic.Int64
		var wg sync.WaitGroup
		wg.Add(workers)
		for w := 0; w < workers; w++ {
			go func() {
				defer wg.Done()
				for {
					k := int(next.Add(1)) - 1
					if k >= active {
						return
					}
					run(k)
				}
			}()
		}
		wg.Wait()
	}
	e.shards += n
}

// Reduce folds the lane partials into the network's GW/GB by the fixed
// pairwise tree over lanes [0, used) and resets the engine for the next
// macro-batch. It is a no-op if nothing was accumulated. The tree lands in
// lane 0, which is the network's gradient, so after Reduce GW/GB hold
// exactly the reduced sum and a single-lane Reduce touches no tensor. Every
// other lane is the source of exactly one add of the tree, so each add
// clears its source in the same sweep and no separate zeroing pass follows;
// lane 0 is cleared by whoever consumes the gradient (optimizer Steps do).
func (e *DataParallel) Reduce() {
	used := e.shards
	if used > MaxGradLanes {
		used = MaxGradLanes
	}
	if used == 0 {
		return
	}
	// The shard counter resets every Reduce, so the dirty lanes are
	// exactly [0, used).
	treeReduce(used, func(dst, src int) {
		e.lanes[dst].grads.addAndClear(e.lanes[src].grads, e.workers)
	})
	for i := 0; i < used; i++ {
		e.lanes[i].dirty = false
	}
	e.shards = 0
}

// Step ends a macro-batch: Reduce, then one update of opt on the network,
// its sweep bounded by the engine's worker pool like the step's other
// kernels (opt.Step on its own is bounded by GOMAXPROCS).
func (e *DataParallel) Step(opt *Adam) {
	e.Reduce()
	opt.step(e.m, e.workers)
}
