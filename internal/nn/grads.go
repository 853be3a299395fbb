package nn

import "fmt"

// Grads is an index-addressed set of gradient buffers, one per parameter
// tensor of an MLP in VisitParams order (layer 0 weights, layer 0 biases,
// layer 1 weights, ...). It is the unit of the data-parallel training
// engine's determinism contract: every worker accumulates into its own
// Grads, and partial sums are combined by TreeReduce in a fixed pairwise
// order, so the summed gradient is a pure function of the minibatch —
// never of worker count or goroutine scheduling. The same index-addressed
// layout keys the Adam optimizer's moment buffers, replacing the old
// pointer-keyed maps.
type Grads struct {
	t [][]float64
}

// NewGrads allocates a zeroed gradient set shaped like m's parameters.
func NewGrads(m *MLP) *Grads {
	g := &Grads{}
	m.VisitParams(func(params, _ []float64) {
		g.t = append(g.t, make([]float64, len(params)))
	})
	return g
}

// GradView returns a Grads whose tensors alias the network's own GW/GB
// buffers (no copy): lane 0 of the data-parallel engine, so where its
// reduced gradient sum lands before an optimizer step, and the source the
// sequential reference trainer snapshots shard partials from.
func (m *MLP) GradView() *Grads {
	g := &Grads{}
	for _, l := range m.Layers {
		g.t = append(g.t, l.GW, l.GB)
	}
	return g
}

// Tensor returns buffer i (VisitParams order).
func (g *Grads) Tensor(i int) []float64 { return g.t[i] }

// Zero clears every buffer.
func (g *Grads) Zero() {
	for _, t := range g.t {
		for i := range t {
			t[i] = 0
		}
	}
}

// Add accumulates o into g elementwise: tensors in index order, elements
// in ascending order — one addition per element, the only rounding the
// reduction introduces.
func (g *Grads) Add(o *Grads) {
	g.checkShape(o)
	for ti, dst := range g.t {
		src := o.t[ti][:len(dst)]
		for i := range dst {
			dst[i] += src[i]
		}
	}
}

// checkShape panics unless o has g's tensors, length for length.
func (g *Grads) checkShape(o *Grads) {
	if len(g.t) != len(o.t) {
		panic(fmt.Sprintf("nn: grads shape mismatch: %d vs %d tensors", len(g.t), len(o.t)))
	}
	for ti, dst := range g.t {
		if len(o.t[ti]) != len(dst) {
			panic(fmt.Sprintf("nn: grads tensor %d length mismatch: %d vs %d", ti, len(dst), len(o.t[ti])))
		}
	}
}

// addAndClear is Add that also zeroes o, in the same sweep: dst += src,
// src = 0 per element, tensors at or above parallelThreshold cut into
// chunks over at most workers (>= 1) goroutines. Elements are
// independent, so the sums are Add's bit for bit.
func (g *Grads) addAndClear(o *Grads, workers int) {
	g.checkShape(o)
	for ti, dst := range g.t {
		src := o.t[ti]
		if workers <= 1 || len(dst) < parallelThreshold {
			addAndClear(dst, src)
			continue
		}
		parallelFor(workers, len(dst), func(lo, hi int) {
			addAndClear(dst[lo:hi], src[lo:hi])
		})
	}
}

func addAndClear(dst, src []float64) {
	src = src[:len(dst)]
	for i := range dst {
		dst[i] += src[i]
		src[i] = 0
	}
}

// CopyFrom overwrites g with o.
func (g *Grads) CopyFrom(o *Grads) {
	if len(g.t) != len(o.t) {
		panic(fmt.Sprintf("nn: grads shape mismatch: %d vs %d tensors", len(g.t), len(o.t)))
	}
	for ti, dst := range g.t {
		copy(dst, o.t[ti])
	}
}

// TreeReduce sums gs into gs[0] by a fixed-order pairwise tree: round r
// combines gs[i] += gs[i+2^r] for i ≡ 0 (mod 2^(r+1)). The grouping
// depends only on len(gs) — not on worker count or completion order — so
// the reduced sum is bitwise reproducible. For a power-of-two length the
// tree has the property tree(2n) = tree(first n) + tree(second n), which
// is what makes macro-batch accumulation bitwise-equivalent to an aligned
// flat batch (see DESIGN.md §10).
func TreeReduce(gs []*Grads) *Grads {
	if len(gs) == 0 {
		return nil
	}
	treeReduce(len(gs), func(dst, src int) { gs[dst].Add(gs[src]) })
	return gs[0]
}

// treeReduce is the pairing order of TreeReduce over n slots; add(dst,
// src) folds slot src into slot dst.
func treeReduce(n int, add func(dst, src int)) {
	for stride := 1; stride < n; stride *= 2 {
		for i := 0; i+stride < n; i += 2 * stride {
			add(i, i+stride)
		}
	}
}
