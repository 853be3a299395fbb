package nn

import (
	"fmt"
	"math/bits"
)

// This file implements the batched minibatch engine (DESIGN.md §3): a
// minibatch is a row-major [B][In] matrix, and Forward/Backward become
// blocked GEMM-style products. Every per-(sample, output) dot product
// accumulates in exactly the order of dot(), so a batch of B samples is
// bitwise identical to B sequential single-sample calls. A pass of two or
// more rows runs batch-major: its lanes are batch rows, so each weight
// element is loaded once for eight of them (dot2x8), over a column-major
// copy of the layer input. A batch-1 pass (every served decision) has one
// batch row, so its lanes are weight rows instead: dotRows loads each x
// group once for eight rows (AVX-512) or four (AVX2, and dot1x4 in Go).
// Once a Scratch is built no step allocates.

// tileOuts is the sharding unit of the forward pass and of backward pass
// 1: a tile is up to tileOuts output rows, for every batch row. Backward
// pass 2 shards over batch rows.
const tileOuts = 64

// colBlock is the column block of the batch-major forward: a tile walks
// its weight rows over colBlock input columns at a time, so that block of
// the column-major input (colBlock × lanes(b) float64s, 64 KB at b = 16)
// stays in L2 while the weight rows stream past it. A multiple of 4, so
// every block but the last ends on a whole 4-group of dot()'s loop.
const colBlock = 512

// lanes is the row stride of a column-major copy of a b-row batch: b
// rounded up to a whole number of dot2x8's eight lanes.
func lanes(b int) int { return (b + 7) &^ 7 }

// Scratch holds every intermediate buffer a batched forward/backward pass
// over an MLP needs: per-layer activation matrices and gradient matrices,
// all row-major [B][width], and for a capacity of two or more rows a
// column-major copy of each activation matrix, [width][lanes(B)], which
// the batch-major forward reads (cols[i], layer i's input) and writes
// (cols[i+1]). A Scratch is built once per training loop (NewScratch),
// reused for every minibatch, and eliminates all per-step allocations —
// including the dL/dx buffer the pre-batching Backward allocated on every
// call. It is tied to the layer shapes of the MLP it was built for and
// supports any batch size up to its capacity.
//
// A Scratch is not safe for concurrent use: one pass at a time. The
// goroutines a kernel fans out to inside that pass write disjoint rows of
// it.
type Scratch struct {
	batch int         // capacity in batch rows
	sizes []int       // layer widths: sizes[0] = input, sizes[i+1] = Layers[i].Out
	acts  [][]float64 // acts[i]: input to layer i (acts[0] is input, or the engine's borrowed batch)
	input []float64   // the owned copy of the minibatch
	cols  [][]float64 // cols[i]: acts[i] column-major, padding lanes +0; nil at capacity 1
	grads [][]float64 // grads[i]: dL/d acts[i]
}

// NewScratch allocates a scratch sized for minibatches of up to batch rows
// through m. The total footprint is (2·batch + lanes(batch)) × Σ layer
// widths float64s, or 2·Σ widths at batch 1.
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
		cols:  make([][]float64, len(m.Layers)+1),
		grads: make([][]float64, len(m.Layers)+1),
	}
	s.sizes[0] = m.Layers[0].In
	for i, l := range m.Layers {
		s.sizes[i+1] = l.Out
	}
	for i, w := range s.sizes {
		s.acts[i] = make([]float64, batch*w)
		if i == 0 {
			s.input = s.acts[0]
		}
		s.grads[i] = make([]float64, batch*w)
		if batch > 1 {
			s.cols[i] = make([]float64, lanes(batch)*w)
		}
	}
	return s
}

// check panics unless s can carry a b-row pass through m: b within
// capacity and every layer width equal to the one s was sized for.
func (s *Scratch) check(m *MLP, b int) {
	if b <= 0 || b > s.batch {
		panic(fmt.Sprintf("nn: batch %d outside scratch capacity %d", b, s.batch))
	}
	if len(s.sizes) != len(m.Layers)+1 {
		panic("nn: scratch built for a different architecture")
	}
	for i, l := range m.Layers {
		if s.sizes[i] != l.In || s.sizes[i+1] != l.Out {
			panic("nn: scratch built for a different architecture")
		}
	}
}

// BatchForward runs the network on a row-major minibatch x of shape
// [b][In], caching per-layer activations in s for BatchBackward. x is
// copied into an owned buffer, so the caller may reuse it immediately. The
// returned [b][Out] matrix is owned by s and valid until the next call.
func (m *MLP) BatchForward(x []float64, b int, s *Scratch) []float64 {
	return m.batchForward(x, b, s, 0, false)
}

// batchForward is BatchForward with two extensions for the data-parallel
// engine: workers bounds the kernel fan-out — each layer at or above
// parallelThreshold splits its tiles over at most workers goroutines, 0
// means GOMAXPROCS (fanOut), 1 starts none (DESIGN.md §10) — and borrow
// true leaves x in place of the owned copy, for a caller that keeps x
// unchanged until its backward pass has run. For b ≥ 2 layer 0's
// column-major copy is packed here, once, and every layer writes the
// next one.
func (m *MLP) batchForward(x []float64, b int, s *Scratch, workers int, borrow bool) []float64 {
	s.check(m, b)
	in := s.sizes[0]
	if len(x) != b*in {
		panic(fmt.Sprintf("nn: batch input size %d, want %d×%d", len(x), b, in))
	}
	ld := lanes(b)
	var a []float64
	if borrow {
		s.acts[0] = x
	} else {
		s.acts[0], a = s.input, s.input[:b*in]
	}
	if b > 1 {
		packInput(a, s.cols[0][:in*ld], x, b, in, workers)
	} else {
		copy(a, x)
	}
	for i, l := range m.Layers {
		var xc, yc []float64
		if b > 1 {
			xc, yc = s.cols[i][:l.In*ld], s.cols[i+1][:l.Out*ld]
		}
		l.batchForward(s.acts[i][:b*l.In], xc, s.acts[i+1][:b*l.Out], yc, b, workers)
	}
	return s.acts[len(m.Layers)][:b*s.sizes[len(s.sizes)-1]]
}

// packBlock is the column block of packInput: its workers take whole
// blocks, and a block's b row segments (32 KB at b = 16) stay in L1
// while they are copied and then read into the column-major copy.
const packBlock = 256

// packInput writes the row-major [b][in] minibatch x (b ≥ 2) column-major
// into the scratch's xc and, unless a is nil, row-major into a, once per
// micro-batch. A batch of at least parallelThreshold elements is split
// over at most workers goroutines by column blocks.
func packInput(a, xc, x []float64, b, in, workers int) {
	if b*in >= parallelThreshold {
		if workers = fanOut(workers); workers > 1 {
			parallelFor(workers, (in+packBlock-1)/packBlock, func(_, lo, hi int) {
				packColumns(a, xc, x, b, in, lo*packBlock, min(hi*packBlock, in))
			})
			return
		}
	}
	packColumns(a, xc, x, b, in, 0, in)
}

// packColumns does packInput's work for columns [c0,c1), one packBlock
// at a time: xc is [in][lanes(b)] with +0 in the padding lanes
// b..lanes(b)-1, and is written in order while the b rows are read
// abreast.
func packColumns(a, xc, x []float64, b, in, c0, c1 int) {
	ld := lanes(b)
	x = x[:b*in]
	for k0 := c0; k0 < c1; k0 += packBlock {
		k1 := min(k0+packBlock, c1)
		for bi := 0; bi < b && a != nil; bi++ {
			copy(a[bi*in+k0:bi*in+k1], x[bi*in+k0:bi*in+k1])
		}
		for i := k0; i < k1; i++ {
			col := xc[i*ld : i*ld+ld]
			for bi := range col[:b] {
				col[bi] = x[bi*in+i]
			}
			clear(col[b:])
		}
	}
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
// arguments. Equivalent to b Forward calls, bitwise. For b ≥ 2 it
// allocates the two column-major buffers a Scratch would own.
func (d *Dense) BatchForward(x, y []float64, b int) {
	var xc, yc []float64
	if b > 1 && len(x) == b*d.In {
		xc, yc = make([]float64, d.In*lanes(b)), make([]float64, d.Out*lanes(b))
		packColumns(nil, xc, x, b, d.In, 0, d.In)
	}
	d.batchForward(x, xc, y, yc, b, 0)
}

// batchForward fills y ([b][Out]) for the batch x ([b][In]). A batch-1
// pass reads x and runs forwardOne; a larger one reads only xc, x
// column-major ([In][lanes(b)], padding lanes +0), runs forwardCols, and
// leaves its output column-major in yc as well ([Out][lanes(b)], padding
// lanes +0): the next layer's xc. Tiles of tileOuts output rows are split
// over at most workers goroutines once the pass reaches parallelThreshold.
func (d *Dense) batchForward(x, xc, y, yc []float64, b, workers int) {
	if len(x) != b*d.In {
		panic(fmt.Sprintf("nn: batch input size %d, want %d×%d", len(x), b, d.In))
	}
	if len(y) != b*d.Out {
		panic(fmt.Sprintf("nn: batch output size %d, want %d×%d", len(y), b, d.Out))
	}
	if b > 1 {
		ld := lanes(b)
		xc, yc = xc[:d.In*ld], yc[:d.Out*ld]
	}
	nt := (d.Out + tileOuts - 1) / tileOuts
	if b*d.In*d.Out >= parallelThreshold {
		if workers = fanOut(workers); workers > 1 {
			parallelFor(workers, nt, func(_, lo, hi int) {
				d.forwardTiles(x, xc, y, yc, b, lo, hi)
			})
			return
		}
	}
	d.forwardTiles(x, xc, y, yc, b, 0, nt)
}

// forwardTiles fills the output rows of tiles [t0,t1) for every batch
// row: a batch-1 pass in one walk, a batch-major one a tile at a time.
func (d *Dense) forwardTiles(x, xc, y, yc []float64, b, t0, t1 int) {
	if b == 1 {
		d.forwardOne(x, y, t0*tileOuts, min(t1*tileOuts, d.Out))
		return
	}
	for t := t0; t < t1; t++ {
		d.forwardCols(xc, y, yc, b, t*tileOuts, min((t+1)*tileOuts, d.Out))
	}
}

// forwardOne fills output rows [o0,o1) of a batch-1 pass, y = act(W·x +
// B): one dotRows call over the rows' weights, which leaves each row's
// dot() in y, then the bias and activation in place.
func (d *Dense) forwardOne(x, y []float64, o0, o1 int) {
	in := d.In
	s := y[o0:o1]
	dotRows(s, d.W[o0*in:o1*in], x)
	for k, b := range d.B[o0:o1] {
		s[k] = d.Act.apply(s[k] + b)
	}
}

// forwardCols fills output rows [o0,o1) of a pass of b ≥ 2 rows from the
// column-major input xc. The rows' column-major outputs in yc are the
// accumulators: cleared, then grown colBlock columns at a time for each
// weight-row pair — by dot2x16 for each whole 16-lane group when the CPU
// has AVX-512, and by dot2x8 for each 8-lane group left — then
// overwritten with act(s + B[o]) and copied to y row by row; padding
// lanes end at +0. An odd last row is paired with itself. Every value
// carries the bits of Activation.apply.
func (d *Dense) forwardCols(xc, y, yc []float64, b, o0, o1 int) {
	in, out, ld := d.In, d.Out, lanes(b)
	acc := yc[o0*ld : o1*ld]
	clear(acc)
	for c0 := 0; c0 < in; c0 += colBlock {
		c1 := min(c0+colBlock, in)
		xb := xc[c0*ld : c1*ld]
		for o := o0; o < o1; o += 2 {
			p := min(o+1, o1-1) // an odd last row pairs with itself
			w0, w1 := d.W[o*in+c0:o*in+c1], d.W[p*in+c0:p*in+c1]
			s0, s1 := acc[(o-o0)*ld:(o-o0+1)*ld], acc[(p-o0)*ld:(p-o0+1)*ld]
			g := 0
			if useAVX512 {
				for ; g+16 <= ld; g += 16 {
					dot2x16(xb[g:], ld, w0, w1, (*[16]float64)(s0[g:]), (*[16]float64)(s1[g:]))
				}
			}
			for ; g < ld; g += 8 {
				dot2x8(xb[g:], ld, w0, w1, (*[8]float64)(s0[g:]), (*[8]float64)(s1[g:]))
			}
		}
	}
	if d.Act == Sigmoid {
		// apply's 1/(1+exp(−x)) in three sweeps, the exps in one ExpInto
		// over the tile: math.Exp's bits, four lanes wide.
		for o := o0; o < o1; o++ {
			col, c := yc[o*ld:o*ld+b], d.B[o]
			for bi, s := range col {
				col[bi] = -(s + c)
			}
		}
		ExpInto(acc, acc)
		for k, e := range acc {
			acc[k] = 1 / (1 + e)
		}
	} else {
		for o := o0; o < o1; o++ {
			col, c := yc[o*ld:o*ld+b], d.B[o]
			for bi, s := range col {
				col[bi] = d.Act.apply(s + c)
			}
		}
	}
	for o := o0; o < o1; o++ {
		clear(yc[o*ld+b : o*ld+ld])
	}
	for bi := 0; bi < b; bi++ {
		row := y[bi*out+o0 : bi*out+o1]
		for k := range row {
			row[k] = acc[k*ld+bi]
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
		for o0 := 0; o0 < d.Out; o0 += tileOuts {
			d.backwardGradBlock(x, y, dy, o0, min(o0+tileOuts, d.Out), b)
		}
	} else {
		parallelFor(workers, (d.Out+tileOuts-1)/tileOuts, func(_, lo, hi int) {
			for t := lo; t < hi; t++ {
				o0 := t * tileOuts
				d.backwardGradBlock(x, y, dy, o0, min(o0+tileOuts, d.Out), b)
			}
		})
	}
	// Pass 2 — dL/dx, sharded over batch rows so every dx row has a single
	// writer; a shard reads each weight row once for all its rows. Within a
	// row, output rows accumulate in ascending order, matching sequential
	// execution.
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

// gradChunk is the most batch rows pass 1 adds into a gradient row per
// load and store of it: a larger batch is taken gradChunk rows at a time,
// in row order.
const gradChunk = 32

// backwardGradBlock handles pass 1 for the output rows [o0,o1) of one
// tile, gradChunk batch rows at a time. First it rewrites the rows' dy
// entries as post-activation deltas g = dy·σ′(y), adds the non-zero ones
// into the bias gradient GB in batch order and marks them live. Then it
// walks colBlock columns at a time, so the block of the input rows stays
// in cache while the gradient rows stream past it, and grows each GW row
// block by g_b·x_b over its live rows in ascending b (gradRows). Every
// element takes the terms b sequential Backward calls would give it in
// their order, so the sums carry their bits; a zero g is skipped, not
// added as +0·x, which would turn −0 into +0 and 0·Inf into NaN.
func (d *Dense) backwardGradBlock(x, y, dy []float64, o0, o1, b int) {
	in, out, act := d.In, d.Out, d.Act
	x, dy = x[:b*in], dy[:b*out]
	var live [tileOuts]uint32 // bit bi−b0 of live[o−o0]: g ≠ 0
	var off [gradChunk]int
	var gs [gradChunk]float64
	for b0 := 0; b0 < b; b0 += gradChunk {
		b1 := min(b0+gradChunk, b)
		for o := o0; o < o1; o++ {
			gb, m := d.GB[o], uint32(0)
			for bi := b0; bi < b1; bi++ {
				g := dy[bi*out+o] * act.derivFromOutput(y[bi*out+o])
				dy[bi*out+o] = g
				if g != 0 {
					gb += g
					m |= 1 << (bi - b0)
				}
			}
			d.GB[o], live[o-o0] = gb, m
		}
		for c0 := 0; c0 < in; c0 += colBlock {
			c1 := min(c0+colBlock, in)
			for o := o0; o < o1; o++ {
				k := 0
				for m := live[o-o0]; m != 0; m &= m - 1 {
					bi := b0 + bits.TrailingZeros32(m)
					off[k%gradChunk], gs[k%gradChunk] = bi*in, dy[bi*out+o]
					k++
				}
				if k > 0 {
					gradRows(d.GW[o*in+c0:o*in+c1], x[c0:], off[:k], gs[:k])
				}
			}
		}
	}
}

// backwardInputBlock handles pass 2 for batch rows [b0,b1): dx[bi] =
// Σ_o g[bi][o]·W[o]. Output rows are walked in pairs, outermost, and each
// pair is applied to every row of the block before the next, so each dx
// element still takes its terms in ascending output order, and a term
// whose g is zero is skipped per (row, output) as in a batch-1 pass.
func (d *Dense) backwardInputBlock(dy, dx []float64, b0, b1 int) {
	in, out := d.In, d.Out
	clear(dx[b0*in : b1*in])
	o := 0
	for ; o+2 <= out; o += 2 {
		w0 := d.W[o*in : o*in+in]
		w1 := d.W[(o+1)*in : (o+1)*in+in]
		for bi := b0; bi < b1; bi++ {
			dxrow := dx[bi*in : bi*in+in]
			g0 := dy[bi*out+o]
			g1 := dy[bi*out+o+1]
			switch {
			case g0 != 0 && g1 != 0:
				axpy2(dxrow, w0, w1, g0, g1)
			case g0 != 0:
				axpy(dxrow, w0, g0)
			case g1 != 0:
				axpy(dxrow, w1, g1)
			}
		}
	}
	if o < out {
		w0 := d.W[o*in : o*in+in]
		for bi := b0; bi < b1; bi++ {
			if g := dy[bi*out+o]; g != 0 {
				axpy(dx[bi*in:bi*in+in], w0, g)
			}
		}
	}
}

// dot2x8 grows the sixteen dot products of two weight rows w0, w1 with
// eight batch rows: s0[l] += w0·x_l and s1[l] += w1·x_l, where x_l is lane
// l of the column-major block x (column i of lane l at x[i·ld+l], ld ≥ 8)
// and the block is len(w0) columns long. Each lane follows dot()'s
// grouping — s += ((w₀x₀ + w₁x₁) + w₂x₂) + w₃x₃, remainder columns one at
// a time — so a block that starts on a 4-group continues dot(w, x_l)
// exactly. s0 and s1 may be one array when w0 and w1 are one row: both
// sums are formed from its old value and stored, the same bits twice.
// With AVX2 the whole 4-groups run in assembly, eight lanes in two YMM
// registers per weight row, and dot2x8Go takes the remainder.
func dot2x8(x []float64, ld int, w0, w1 []float64, s0, s1 *[8]float64) {
	n := len(w0)
	if n == 0 {
		return
	}
	x, w1 = x[:(n-1)*ld+8], w1[:n]
	i := 0
	if useAVX2 {
		dot2x8AVX2(x, ld, w0, w1, s0, s1)
		i = n &^ 3
	}
	dot2x8Go(x, ld, w0, w1, i, s0, s1)
}

// dot2x8Go is dot2x8 in Go from column i on (a multiple of 4), one lane at
// a time within each column group, on copies of the accumulators.
func dot2x8Go(x []float64, ld int, w0, w1 []float64, i int, s0, s1 *[8]float64) {
	n := len(w0)
	w1 = w1[:n]
	t0, t1 := *s0, *s1
	for ; i+4 <= n; i += 4 {
		a0, a1, a2, a3 := w0[i], w0[i+1], w0[i+2], w0[i+3]
		b0, b1, b2, b3 := w1[i], w1[i+1], w1[i+2], w1[i+3]
		x0 := x[i*ld : i*ld+8]
		x1 := x[(i+1)*ld : (i+1)*ld+8]
		x2 := x[(i+2)*ld : (i+2)*ld+8]
		x3 := x[(i+3)*ld : (i+3)*ld+8]
		for l := range 8 {
			t0[l] += a0*x0[l] + a1*x1[l] + a2*x2[l] + a3*x3[l]
			t1[l] += b0*x0[l] + b1*x1[l] + b2*x2[l] + b3*x3[l]
		}
	}
	for ; i < n; i++ {
		a, c := w0[i], w1[i]
		xi := x[i*ld : i*ld+8]
		for l := range 8 {
			t0[l] += a * xi[l]
			t1[l] += c * xi[l]
		}
	}
	*s0, *s1 = t0, t1
}

// dot2x16 is dot2x8 over sixteen lanes (ld ≥ 16), for a CPU with
// AVX-512: the whole 4-groups run in assembly, sixteen lanes in two ZMM
// registers per weight row, and dot2x8Go takes the remainder of each
// eight-lane half. Each lane carries dot2x8's bits.
func dot2x16(x []float64, ld int, w0, w1 []float64, s0, s1 *[16]float64) {
	n := len(w0)
	if n == 0 {
		return
	}
	x, w1 = x[:(n-1)*ld+16], w1[:n]
	dot2x16AVX512(x, ld, w0, w1, s0, s1)
	i := n &^ 3
	dot2x8Go(x, ld, w0, w1, i, (*[8]float64)(s0[:8]), (*[8]float64)(s1[:8]))
	dot2x8Go(x[8:], ld, w0, w1, i, (*[8]float64)(s0[8:]), (*[8]float64)(s1[8:]))
}

// dotRows sets s[r] = dot(w[r·n:(r+1)·n], x) for each row r < len(s) of
// the row-major w, n = len(x): the kernel of every batch-1 pass. Its lanes
// are weight rows, since a single batch row leaves nothing else to put in
// them. With AVX-512, dotRows8AVX512 takes the whole eight-row groups;
// dotRows4AVX2 takes the quad left after them, or every quad without
// AVX-512. Both cover each row's whole 4-groups of columns, from +0, in
// dot()'s grouping, and the In%4 remainder columns then continue each
// row's sum one term at a time, in order. dotRowsGo takes the rows left,
// and every row on a CPU without AVX2.
func dotRows(s, w, x []float64) {
	n := len(x)
	w = w[:len(s)*n]
	r := 0
	if useAVX2 {
		if useAVX512 {
			if r = len(s) &^ 7; r > 0 {
				dotRows8AVX512(s[:r], w, x)
			}
		}
		if q := len(s) &^ 3; q > r {
			dotRows4AVX2(s[r:q], w[r*n:], x)
			r = q
		}
		for i := n &^ 3; i < n; i++ {
			p := x[i]
			for o := range s[:r] {
				s[o] += w[o*n+i] * p
			}
		}
	}
	dotRowsGo(s[r:], w[r*n:], x)
}

// dotRowsGo is dotRows in Go: dot1x4 over each row quad, dot over the
// rows left.
func dotRowsGo(s, w, x []float64) {
	n := len(x)
	r := 0
	for ; r+4 <= len(s); r += 4 {
		s[r], s[r+1], s[r+2], s[r+3] = dot1x4(x, w[r*n:], w[(r+1)*n:], w[(r+2)*n:], w[(r+3)*n:])
	}
	for ; r < len(s); r++ {
		s[r] = dot(w[r*n:(r+1)*n], x)
	}
}

// dot1x4 computes the four dot products x·{w0,w1,w2,w3}, each accumulator in
// dot()'s grouping: dotRowsGo's kernel, where dot would re-read x once per
// weight row. check_bce reports four IsInBounds per 4-wide step (the loads
// of x; they cover the weight rows) and one in the remainder loop.
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

// gradRows computes dst[i] += g[k]·x[off[k]+i] for k = 0, 1, … in order,
// each term a separate rounded multiply and add, while loading and storing
// dst only once: pass 1's rank-k update of one gradient row block. With
// AVX2 the whole 4-groups run in assembly, one element a lane, and
// gradRowsGo takes the remainder. Lengths are checked, offsets are not:
// every x[off[k]:] must hold len(dst) elements. backwardGradBlock's
// offsets are rows of its batch, in range by construction.
func gradRows(dst, x []float64, off []int, g []float64) {
	g = g[:len(off)]
	i := 0
	if useAVX2 {
		gradRowsAVX2(dst, x, off, g)
		if i = len(dst) &^ 3; i == len(dst) {
			return
		}
	}
	gradRowsGo(dst, x, off, g, i)
}

// gradRowsGo is gradRows in Go from element i on, one row of the list at
// a time: the order each element takes its terms in is the same.
func gradRowsGo(dst, x []float64, off []int, g []float64, i int) {
	for k, a := range g {
		axpyGo(dst[i:], x[off[k]+i:], a)
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
