package nn

import "fmt"

// This file implements the batched minibatch engine (DESIGN.md §3): a
// minibatch is a row-major [B][In] matrix, and Forward/Backward become
// blocked GEMM-style products. Every per-(sample, output) dot product
// accumulates in exactly the order of dot(), so a batch of B samples is
// bitwise identical to B sequential single-sample calls; the speedup comes
// from register blocking (one load of x feeds four weight rows: eight
// independent accumulator chains for a pair of batch rows, four for a
// single row, instead of one chain that re-reads x per weight row), cache
// blocking (each weight row is reused across the batch rows of a tile), and
// the complete absence of per-step allocations once a Scratch has been
// built.

// Tile sizes for the blocked kernels: a tile spans up to tileRows batch
// rows × tileOuts output rows. Tiles keep the batch-row block of the input
// resident in cache while a block of weight rows streams through, and they
// are the sharding unit for parallelFor in the forward pass and in
// backward pass 1 (backward pass 2 shards over single batch rows).
const (
	tileRows = 16
	tileOuts = 64
)

// Scratch holds every intermediate buffer a batched forward/backward pass
// over an MLP needs: per-layer activation matrices and gradient matrices,
// all row-major [B][width]. A Scratch is built once per training loop
// (NewScratch), reused for every minibatch, and eliminates all per-step
// allocations — including the dL/dx buffer the pre-batching Backward
// allocated on every call. It is tied to the layer shapes of the MLP it
// was built for and supports any batch size up to its capacity.
//
// A Scratch is not safe for concurrent use: one pass at a time. The
// goroutines a kernel fans out to inside that pass write disjoint rows of
// it.
type Scratch struct {
	batch int         // capacity in batch rows
	sizes []int       // layer widths: sizes[0] = input, sizes[i+1] = Layers[i].Out
	acts  [][]float64 // acts[i]: input to layer i (acts[0] is an owned copy of the minibatch)
	grads [][]float64 // grads[i]: dL/d acts[i]
}

// NewScratch allocates a scratch sized for minibatches of up to batch rows
// through m. The total footprint is batch × Σ layer widths × 2 float64s.
func NewScratch(m *MLP, batch int) *Scratch {
	if batch <= 0 {
		panic(fmt.Sprintf("nn: scratch batch %d must be positive", batch))
	}
	if len(m.Layers) == 0 {
		panic("nn: scratch for empty MLP")
	}
	s := &Scratch{
		batch: batch,
		sizes: make([]int, len(m.Layers)+1),
		acts:  make([][]float64, len(m.Layers)+1),
		grads: make([][]float64, len(m.Layers)+1),
	}
	s.sizes[0] = m.Layers[0].In
	for i, l := range m.Layers {
		s.sizes[i+1] = l.Out
	}
	for i, w := range s.sizes {
		s.acts[i] = make([]float64, batch*w)
		s.grads[i] = make([]float64, batch*w)
	}
	return s
}

// Batch returns the scratch's batch-row capacity.
func (s *Scratch) Batch() int { return s.batch }

func (s *Scratch) check(m *MLP, b int) {
	if b <= 0 || b > s.batch {
		panic(fmt.Sprintf("nn: batch %d outside scratch capacity %d", b, s.batch))
	}
	if len(s.sizes) != len(m.Layers)+1 {
		panic("nn: scratch built for a different architecture")
	}
	if s.sizes[0] != m.Layers[0].In || s.sizes[len(s.sizes)-1] != m.Layers[len(m.Layers)-1].Out {
		panic("nn: scratch built for a different architecture")
	}
}

// BatchForward runs the network on a row-major minibatch x of shape
// [b][In], caching per-layer activations in s for BatchBackward. x is
// copied into an owned buffer, so the caller may reuse it immediately. The
// returned [b][Out] matrix is owned by s and valid until the next call.
func (m *MLP) BatchForward(x []float64, b int, s *Scratch) []float64 {
	return m.batchForward(x, b, s, 0)
}

// batchForward is BatchForward with the kernel fan-out made explicit: each
// layer at or above parallelThreshold splits its tiles over at most workers
// goroutines — 0 means GOMAXPROCS (fanOut), 1 starts none. The
// data-parallel engine passes its worker count (DESIGN.md §10).
func (m *MLP) batchForward(x []float64, b int, s *Scratch, workers int) []float64 {
	s.check(m, b)
	in := s.sizes[0]
	if len(x) != b*in {
		panic(fmt.Sprintf("nn: batch input size %d, want %d×%d", len(x), b, in))
	}
	copy(s.acts[0][:b*in], x)
	for i, l := range m.Layers {
		l.batchForward(s.acts[i][:b*l.In], s.acts[i+1][:b*l.Out], b, workers)
	}
	return s.acts[len(m.Layers)][:b*s.sizes[len(s.sizes)-1]]
}

// BatchBackward propagates dL/d(output) for the minibatch of the preceding
// BatchForward, accumulating parameter gradients exactly as b sequential
// Backward calls would (bitwise-identical sums, samples in row order). It
// returns dL/d(input), owned by s. dOut is not modified.
func (m *MLP) BatchBackward(dOut []float64, b int, s *Scratch) []float64 {
	return m.batchBackward(dOut, b, s, 0, true)
}

// batchBackward is BatchBackward with two extensions for the data-parallel
// engine: workers bounds the kernel fan-out as in batchForward, and
// inputGrad false skips layer 0's dL/dx — the largest product of the pass
// when the input is the widest layer, and one a trainer never reads —
// returning nil.
func (m *MLP) batchBackward(dOut []float64, b int, s *Scratch, workers int, inputGrad bool) []float64 {
	s.check(m, b)
	L := len(m.Layers)
	out := s.sizes[L]
	if len(dOut) != b*out {
		panic(fmt.Sprintf("nn: batch grad size %d, want %d×%d", len(dOut), b, out))
	}
	copy(s.grads[L][:b*out], dOut)
	for i := L - 1; i >= 0; i-- {
		l := m.Layers[i]
		var dx []float64
		if i > 0 || inputGrad {
			dx = s.grads[i][:b*l.In]
		}
		l.batchBackward(s.acts[i][:b*l.In], s.acts[i+1][:b*l.Out],
			s.grads[i+1][:b*l.Out], dx, b, workers)
	}
	if !inputGrad {
		return nil
	}
	return s.grads[0][:b*s.sizes[0]]
}

// BatchForward computes y = act(x·Wᵀ + bias) for a row-major batch x of
// shape [b][In] into y of shape [b][Out]. It retains no references to its
// arguments. Equivalent to b Forward calls, bitwise.
func (d *Dense) BatchForward(x, y []float64, b int) {
	d.batchForward(x, y, b, 0)
}

func (d *Dense) batchForward(x, y []float64, b, workers int) {
	if len(x) != b*d.In {
		panic(fmt.Sprintf("nn: batch input size %d, want %d×%d", len(x), b, d.In))
	}
	if len(y) != b*d.Out {
		panic(fmt.Sprintf("nn: batch output size %d, want %d×%d", len(y), b, d.Out))
	}
	if b*d.In*d.Out < parallelThreshold {
		d.forwardBlock(x, y, 0, b, 0, d.Out)
		return
	}
	if workers = fanOut(workers); workers <= 1 {
		// Serial but still tiled for cache; no closure allocations.
		for b0 := 0; b0 < b; b0 += tileRows {
			b1 := min(b0+tileRows, b)
			for o0 := 0; o0 < d.Out; o0 += tileOuts {
				d.forwardBlock(x, y, b0, b1, o0, min(o0+tileOuts, d.Out))
			}
		}
		return
	}
	nb := (b + tileRows - 1) / tileRows
	no := (d.Out + tileOuts - 1) / tileOuts
	parallelFor(workers, nb*no, func(_, lo, hi int) {
		for t := lo; t < hi; t++ {
			b0 := (t / no) * tileRows
			o0 := (t % no) * tileOuts
			d.forwardBlock(x, y, b0, min(b0+tileRows, b), o0, min(o0+tileOuts, d.Out))
		}
	})
}

// forwardBlock fills y for batch rows [b0,b1) × output rows [o0,o1), four
// output rows per pass of x: batch rows go through dot2x4 in pairs, an odd
// last row — all of a batch-1 pass — through dot1x4, and the (o1-o0)%4
// leftover output rows through dot one at a time. Every accumulator keeps
// dot()'s exact order.
func (d *Dense) forwardBlock(x, y []float64, b0, b1, o0, o1 int) {
	in, out := d.In, d.Out
	o := o0
	for ; o+4 <= o1; o += 4 {
		w0 := d.W[o*in : o*in+in]
		w1 := d.W[(o+1)*in : (o+1)*in+in]
		w2 := d.W[(o+2)*in : (o+2)*in+in]
		w3 := d.W[(o+3)*in : (o+3)*in+in]
		c0, c1, c2, c3 := d.B[o], d.B[o+1], d.B[o+2], d.B[o+3]
		bi := b0
		for ; bi+2 <= b1; bi += 2 {
			x0 := x[bi*in : bi*in+in]
			x1 := x[(bi+1)*in : (bi+1)*in+in]
			s00, s01, s02, s03, s10, s11, s12, s13 := dot2x4(x0, x1, w0, w1, w2, w3)
			y0 := y[bi*out+o : bi*out+o+4]
			y1 := y[(bi+1)*out+o : (bi+1)*out+o+4]
			y0[0] = d.Act.apply(s00 + c0)
			y0[1] = d.Act.apply(s01 + c1)
			y0[2] = d.Act.apply(s02 + c2)
			y0[3] = d.Act.apply(s03 + c3)
			y1[0] = d.Act.apply(s10 + c0)
			y1[1] = d.Act.apply(s11 + c1)
			y1[2] = d.Act.apply(s12 + c2)
			y1[3] = d.Act.apply(s13 + c3)
		}
		if bi < b1 {
			s0, s1, s2, s3 := dot1x4(x[bi*in:bi*in+in], w0, w1, w2, w3)
			y0 := y[bi*out+o : bi*out+o+4]
			y0[0] = d.Act.apply(s0 + c0)
			y0[1] = d.Act.apply(s1 + c1)
			y0[2] = d.Act.apply(s2 + c2)
			y0[3] = d.Act.apply(s3 + c3)
		}
	}
	for ; o < o1; o++ {
		w0 := d.W[o*in : o*in+in]
		c0 := d.B[o]
		for bi := b0; bi < b1; bi++ {
			y[bi*out+o] = d.Act.apply(dot(w0, x[bi*in:bi*in+in]) + c0)
		}
	}
}

// BatchBackward consumes dy = dL/dy of shape [b][Out] for the minibatch
// whose forward pass saw inputs x and produced outputs y. It accumulates
// dL/dW and dL/dB into GW, GB and writes dL/dx into dx ([b][In]). dy is
// clobbered (overwritten with the post-activation deltas). Gradient sums
// are bitwise identical to b sequential Backward calls in row order.
func (d *Dense) BatchBackward(x, y, dy, dx []float64, b int) {
	if dx == nil { // batchBackward would take nil as "skip dL/dx"
		panic("nn: batch backward needs a dx buffer")
	}
	d.batchBackward(x, y, dy, dx, b, 0)
}

// batchBackward is BatchBackward with an explicit kernel fan-out (workers,
// as in batchForward) and an optional dx: nil skips pass 2 for a caller
// that will not read dL/dx.
func (d *Dense) batchBackward(x, y, dy, dx []float64, b, workers int) {
	if len(x) != b*d.In || len(y) != b*d.Out || len(dy) != b*d.Out || (dx != nil && len(dx) != b*d.In) {
		panic(fmt.Sprintf("nn: batch backward shapes x=%d y=%d dy=%d dx=%d for b=%d (%d×%d layer)",
			len(x), len(y), len(dy), len(dx), b, d.In, d.Out))
	}
	serial := b*d.In*d.Out < parallelThreshold
	if !serial {
		workers = fanOut(workers)
		serial = workers <= 1
	}
	// Pass 1 — deltas and parameter gradients, sharded over output rows so
	// every GW row and GB entry has a single writer. Within a row, samples
	// accumulate in batch order, matching sequential execution.
	if serial {
		d.backwardGradBlock(x, y, dy, 0, d.Out, b)
	} else {
		parallelFor(workers, (d.Out+tileOuts-1)/tileOuts, func(_, lo, hi int) {
			for t := lo; t < hi; t++ {
				o0 := t * tileOuts
				d.backwardGradBlock(x, y, dy, o0, min(o0+tileOuts, d.Out), b)
			}
		})
	}
	// Pass 2 — dL/dx, sharded over single batch rows (a row's sweep over W
	// shares nothing with its neighbours', so even one tileRows block
	// splits) so every dx row has a single writer. Within a row, output
	// rows accumulate in ascending order, matching sequential execution.
	if dx == nil {
		return
	}
	if serial {
		d.backwardInputBlock(dy, dx, 0, b)
	} else {
		parallelFor(workers, b, func(_, lo, hi int) {
			d.backwardInputBlock(dy, dx, lo, hi)
		})
	}
}

// backwardGradBlock handles pass 1 for output rows [o0,o1): it rewrites
// dy entries as post-activation deltas g = dy·σ′(y) and accumulates into
// the bias gradient GB and the rank-b weight-gradient row updates of GW,
// two batch rows per sweep.
func (d *Dense) backwardGradBlock(x, y, dy []float64, o0, o1, b int) {
	in, out := d.In, d.Out
	for o := o0; o < o1; o++ {
		grow := d.GW[o*in : o*in+in]
		gb := d.GB[o]
		bi := 0
		for ; bi+2 <= b; bi += 2 {
			g0 := dy[bi*out+o] * d.Act.derivFromOutput(y[bi*out+o])
			g1 := dy[(bi+1)*out+o] * d.Act.derivFromOutput(y[(bi+1)*out+o])
			dy[bi*out+o] = g0
			dy[(bi+1)*out+o] = g1
			if g0 != 0 {
				gb += g0
			}
			if g1 != 0 {
				gb += g1
			}
			switch {
			case g0 != 0 && g1 != 0:
				axpy2(grow, x[bi*in:bi*in+in], x[(bi+1)*in:(bi+1)*in+in], g0, g1)
			case g0 != 0:
				axpy(grow, x[bi*in:bi*in+in], g0)
			case g1 != 0:
				axpy(grow, x[(bi+1)*in:(bi+1)*in+in], g1)
			}
		}
		if bi < b {
			g := dy[bi*out+o] * d.Act.derivFromOutput(y[bi*out+o])
			dy[bi*out+o] = g
			if g != 0 {
				gb += g
				axpy(grow, x[bi*in:bi*in+in], g)
			}
		}
		d.GB[o] = gb
	}
}

// backwardInputBlock handles pass 2 for batch rows [b0,b1): dx[bi] =
// Σ_o g[bi][o]·W[o], output rows applied in ascending order, two per sweep.
func (d *Dense) backwardInputBlock(dy, dx []float64, b0, b1 int) {
	in, out := d.In, d.Out
	for bi := b0; bi < b1; bi++ {
		dxrow := dx[bi*in : bi*in+in]
		for i := range dxrow {
			dxrow[i] = 0
		}
		o := 0
		for ; o+2 <= out; o += 2 {
			g0 := dy[bi*out+o]
			g1 := dy[bi*out+o+1]
			switch {
			case g0 != 0 && g1 != 0:
				axpy2(dxrow, d.W[o*in:o*in+in], d.W[(o+1)*in:(o+1)*in+in], g0, g1)
			case g0 != 0:
				axpy(dxrow, d.W[o*in:o*in+in], g0)
			case g1 != 0:
				axpy(dxrow, d.W[(o+1)*in:(o+1)*in+in], g1)
			}
		}
		if o < out {
			if g := dy[bi*out+o]; g != 0 {
				axpy(dxrow, d.W[o*in:o*in+in], g)
			}
		}
	}
}

// dot2x4 computes the eight dot products {x0,x1}·{w0,w1,w2,w3}; sRO is batch
// row R against weight row O. Each accumulator follows dot()'s grouping —
// s += ((w₀x₀ + w₁x₁) + w₂x₂) + w₃x₃, remainder elements one at a time —
// so every result is bitwise the corresponding dot(w, x). With AVX2 the
// whole 4-groups run in assembly, one lane per weight row, and dot2x4Go
// continues their accumulators over the remainder (DESIGN.md §3).
func dot2x4(x0, x1, w0, w1, w2, w3 []float64) (s00, s01, s02, s03, s10, s11, s12, s13 float64) {
	var s [8]float64
	i := 0
	if useAVX2 {
		n := len(x0)
		x1, w0, w1, w2, w3 = x1[:n], w0[:n], w1[:n], w2[:n], w3[:n]
		dot2x4AVX2(x0, x1, w0, w1, w2, w3, &s)
		i = n &^ 3
	}
	dot2x4Go(x0, x1, w0, w1, w2, w3, i, &s)
	return s[0], s[1], s[2], s[3], s[4], s[5], s[6], s[7]
}

// dot2x4Go is dot2x4 in Go from element i on (a multiple of 4), continuing
// the accumulators s = {s00..s03, s10..s13}: the eight chains are
// independent and each x element is loaded once for four weight rows.
// Reslicing the other five operands to len(x0) leaves go build
// -gcflags=-d=ssa/check_bce reporting four IsInBounds per 4-wide step (the
// loads of x0, which then cover the rest) and one in the remainder loop;
// the check-free loop shapes measured slower (DESIGN.md §10).
func dot2x4Go(x0, x1, w0, w1, w2, w3 []float64, i int, s *[8]float64) {
	n := len(x0)
	x1 = x1[:n]
	w0 = w0[:n]
	w1 = w1[:n]
	w2 = w2[:n]
	w3 = w3[:n]
	s00, s01, s02, s03, s10, s11, s12, s13 := s[0], s[1], s[2], s[3], s[4], s[5], s[6], s[7]
	for ; i+4 <= n; i += 4 {
		p0, p1, p2, p3 := x0[i], x0[i+1], x0[i+2], x0[i+3]
		q0, q1, q2, q3 := x1[i], x1[i+1], x1[i+2], x1[i+3]
		a0, a1, a2, a3 := w0[i], w0[i+1], w0[i+2], w0[i+3]
		s00 += a0*p0 + a1*p1 + a2*p2 + a3*p3
		s10 += a0*q0 + a1*q1 + a2*q2 + a3*q3
		a0, a1, a2, a3 = w1[i], w1[i+1], w1[i+2], w1[i+3]
		s01 += a0*p0 + a1*p1 + a2*p2 + a3*p3
		s11 += a0*q0 + a1*q1 + a2*q2 + a3*q3
		a0, a1, a2, a3 = w2[i], w2[i+1], w2[i+2], w2[i+3]
		s02 += a0*p0 + a1*p1 + a2*p2 + a3*p3
		s12 += a0*q0 + a1*q1 + a2*q2 + a3*q3
		a0, a1, a2, a3 = w3[i], w3[i+1], w3[i+2], w3[i+3]
		s03 += a0*p0 + a1*p1 + a2*p2 + a3*p3
		s13 += a0*q0 + a1*q1 + a2*q2 + a3*q3
	}
	for ; i < n; i++ {
		p, q := x0[i], x1[i]
		s00 += w0[i] * p
		s01 += w1[i] * p
		s02 += w2[i] * p
		s03 += w3[i] * p
		s10 += w0[i] * q
		s11 += w1[i] * q
		s12 += w2[i] * q
		s13 += w3[i] * q
	}
	*s = [8]float64{s00, s01, s02, s03, s10, s11, s12, s13}
}

// dot1x4 computes the four dot products x·{w0,w1,w2,w3}, each accumulator in
// dot()'s grouping like dot2x4's: the kernel of every single-row pass, where
// dot would re-read x once per weight row. check_bce reports the same as
// for dot2x4Go: four IsInBounds per 4-wide step (the loads of x), one in the
// remainder loop.
func dot1x4(x, w0, w1, w2, w3 []float64) (s0, s1, s2, s3 float64) {
	n := len(x)
	w0 = w0[:n]
	w1 = w1[:n]
	w2 = w2[:n]
	w3 = w3[:n]
	i := 0
	for ; i+4 <= n; i += 4 {
		p0, p1, p2, p3 := x[i], x[i+1], x[i+2], x[i+3]
		s0 += w0[i]*p0 + w0[i+1]*p1 + w0[i+2]*p2 + w0[i+3]*p3
		s1 += w1[i]*p0 + w1[i+1]*p1 + w1[i+2]*p2 + w1[i+3]*p3
		s2 += w2[i]*p0 + w2[i+1]*p1 + w2[i+2]*p2 + w2[i+3]*p3
		s3 += w3[i]*p0 + w3[i+1]*p1 + w3[i+2]*p2 + w3[i+3]*p3
	}
	for ; i < n; i++ {
		p := x[i]
		s0 += w0[i] * p
		s1 += w1[i] * p
		s2 += w2[i] * p
		s3 += w3[i] * p
	}
	return
}

// axpy computes dst[i] += a·src[i]. Element updates are independent, so
// neither the assembly's four lanes nor axpyGo's unrolling can change a
// result: with AVX2 the whole 4-groups run in assembly and axpyGo takes
// the remainder.
func axpy(dst, src []float64, a float64) {
	if useAVX2 {
		src = src[:len(dst)]
		axpyAVX2(dst, src, a)
		k := len(dst) &^ 3
		dst, src = dst[k:], src[k:]
	}
	axpyGo(dst, src, a)
}

// axpyGo is axpy in Go, 4-way unrolled. src is resliced to len(dst), which
// leaves check_bce reporting four IsInBounds per 4-wide step (on dst; they
// cover src) and one in the remainder loop.
func axpyGo(dst, src []float64, a float64) {
	n := len(dst)
	src = src[:n]
	i := 0
	for ; i+4 <= n; i += 4 {
		dst[i] += a * src[i]
		dst[i+1] += a * src[i+1]
		dst[i+2] += a * src[i+2]
		dst[i+3] += a * src[i+3]
	}
	for ; i < n; i++ {
		dst[i] += a * src[i]
	}
}

// axpy2 computes dst[i] += a·u[i]; dst[i] += b·v[i] as two separate adds
// per element (preserving sequential rounding) while loading and storing
// dst only once; with AVX2 the whole 4-groups run in assembly, one element
// a lane, and axpy2Go takes the remainder.
func axpy2(dst, u, v []float64, a, b float64) {
	if useAVX2 {
		n := len(dst)
		u, v = u[:n], v[:n]
		axpy2AVX2(dst, u, v, a, b)
		k := n &^ 3
		dst, u, v = dst[k:], u[k:], v[k:]
	}
	axpy2Go(dst, u, v, a, b)
}

// axpy2Go is axpy2 in Go. u and v are resliced to len(dst), which leaves
// check_bce reporting four IsInBounds per 4-wide step (on dst; they cover u
// and v) and one in the remainder loop.
func axpy2Go(dst, u, v []float64, a, b float64) {
	n := len(dst)
	u = u[:n]
	v = v[:n]
	i := 0
	for ; i+4 <= n; i += 4 {
		t0 := dst[i] + a*u[i]
		t1 := dst[i+1] + a*u[i+1]
		t2 := dst[i+2] + a*u[i+2]
		t3 := dst[i+3] + a*u[i+3]
		dst[i] = t0 + b*v[i]
		dst[i+1] = t1 + b*v[i+1]
		dst[i+2] = t2 + b*v[i+2]
		dst[i+3] = t3 + b*v[i+3]
	}
	for ; i < n; i++ {
		t := dst[i] + a*u[i]
		dst[i] = t + b*v[i]
	}
}
