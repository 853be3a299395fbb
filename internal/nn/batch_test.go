package nn

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
)

// randVec fills a fresh vector with standard normals.
func randVec(rng *rand.Rand, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	return v
}

// cloneNet deep-copies an MLP (weights only; gradients start zeroed).
func cloneNet(m *MLP) *MLP {
	c := &MLP{}
	for _, l := range m.Layers {
		c.Layers = append(c.Layers, &Dense{
			In: l.In, Out: l.Out, Act: l.Act,
			W:  append([]float64(nil), l.W...),
			B:  append([]float64(nil), l.B...),
			GW: make([]float64, len(l.GW)),
			GB: make([]float64, len(l.GB)),
		})
	}
	return c
}

func TestBatchForwardMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	// Sizes chosen so hidden layers cross parallelThreshold at B=8 and the
	// tiled path (including odd remainder rows) is exercised.
	net := NewMLP([]int{37, 129, 64, 5}, ReLU, Sigmoid, rng)
	const B = 9
	x := randVec(rng, B*37)
	s := NewScratch(net, B)
	got := net.BatchForward(x, B, s)
	for b := 0; b < B; b++ {
		want := net.Forward(x[b*37 : (b+1)*37])
		for o := range want {
			if got[b*5+o] != want[o] {
				t.Fatalf("sample %d output %d: batch %v, sequential %v", b, o, got[b*5+o], want[o])
			}
		}
	}
}

// TestForwardKernelsMatchDot checks the forward kernels against dot(), not
// against each other: Forward is the batch-1 wrapper of the same kernels,
// so TestBatchForwardMatchesSequential compares dotRows with dotRows.
// Every y[b][o] must be act(dot(W[o], x[b]) + B[o]) bit for bit over
// every remainder path — the 4-wide inner loop and its column blocks (In,
// up to three colBlocks and a remainder of 3), the row walk of a batch-1
// pass, with every mix of eight-row, four-row and Go rows (Out 1–9, 12,
// 15–17, and 71, whose second tile holds 7), and the row-pair walk of a
// batch-major one (Out, also split into tileOuts tiles), every padding
// width of an 8-lane group and more than one group (b), and on an AVX-512
// CPU every mix of whole 16-lane groups and a trailing 8-lane one (b from
// 9 to 33) — below and above parallelThreshold, serial and over even and
// uneven worker counts. A batch-major pass must also leave its output
// column-major in yc, with +0 in the padding lanes, also where a +Inf
// weight meets a padding lane's +0 input (a NaN need only be a NaN). The
// layers take turns at Identity, which keeps the raw sums visible, ReLU
// and Sigmoid, whose batch-major exps go through ExpInto. On an AVX-512 CPU the table runs twice, the
// second time with the AVX-512 bodies switched off (forEachForwardBody).
func TestForwardKernelsMatchDot(t *testing.T) {
	forEachForwardBody(t, func() { checkForwardKernels(t) })
}

func checkForwardKernels(t *testing.T) {
	t.Helper()
	rng := rand.New(rand.NewSource(8))
	var below, above int
	for _, in := range []int{1, 2, 3, 4, 5, 7, 8, 129, 2*colBlock + 259} {
		for _, out := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 12, 15, 16, 17, 64, 67, 71} {
			act := []Activation{Identity, ReLU, Sigmoid}[(in+out)%3]
			d := NewDense(in, out, act, rng)
			copy(d.B, randVec(rng, out))
			if out == 67 {
				d.W[in/2] = math.Inf(1) // 0·Inf in a padding lane must not reach yc
			}
			for _, b := range []int{1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 24, 25, 32, 33} {
				if b*in*out < parallelThreshold {
					below++
				} else {
					above++
				}
				x := randVec(rng, b*in)
				y := make([]float64, b*out)
				var xc, yc []float64
				if b > 1 {
					xc, yc = make([]float64, in*lanes(b)), make([]float64, out*lanes(b))
					packColumns(nil, xc, x, b, in, 0, in)
				}
				for _, workers := range []int{1, 2, 3} {
					clear(y)
					for i := range yc {
						yc[i] = math.NaN() // every slot must be written
					}
					d.batchForward(x, xc, y, yc, b, workers)
					for bi := 0; bi < b; bi++ {
						for o := 0; o < out; o++ {
							want := d.Act.apply(dot(d.W[o*in:(o+1)*in], x[bi*in:(bi+1)*in]) + d.B[o])
							if got := y[bi*out+o]; math.Float64bits(got) != math.Float64bits(want) && !(math.IsNaN(got) && math.IsNaN(want)) {
								t.Fatalf("%d×%d %v layer, b=%d, workers=%d: y[%d][%d] = %v, dot() gives %v",
									in, out, act, b, workers, bi, o, got, want)
							}
						}
					}
					for i, v := range yc {
						o, bi := i/lanes(b), i%lanes(b)
						want := 0.0
						if bi < b {
							want = y[bi*out+o]
						}
						if math.Float64bits(v) != math.Float64bits(want) && !(math.IsNaN(v) && math.IsNaN(want)) {
							t.Fatalf("%d×%d layer, b=%d, workers=%d: column-major output [%d][%d] = %v, want %v",
								in, out, b, workers, o, bi, v, want)
						}
					}
				}
			}
		}
	}
	if below == 0 || above == 0 {
		t.Fatalf("table has %d cases below parallelThreshold and %d at or above it; want both", below, above)
	}
}

// FuzzForwardOne holds a batch-1 pass — the row walk of every served
// decision — against act(dot(W[o], x) + B[o]) on a layer drawn from the
// bytes: In 1–300 from the first two (every column remainder, short of a
// 4-group and past many), Out 1–40 from the third (every mix of
// eight-row, four-row and Go rows), the activation from the fourth and a
// seed for the normals from the fifth. The bytes after those mark, in
// turn, each weight, then each input, then each bias: a byte below
// len(specials) puts that special there (±0, denormals, ±1e300, ±Inf,
// NaN), any other keeps the normal. Serial and at two workers, the same
// bits; a NaN need only be a NaN. Seeds in testdata/fuzz/FuzzForwardOne.
func FuzzForwardOne(f *testing.F) {
	f.Add([]byte{71, 0, 14, 0, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 5 {
			return
		}
		specials := []float64{
			0, math.Copysign(0, -1), math.SmallestNonzeroFloat64, -3e-310,
			1e300, -1e300, math.Inf(1), math.Inf(-1), math.NaN(),
		}
		in := 1 + int(binary.LittleEndian.Uint16(data))%300
		out := 1 + int(data[2])%40
		act := []Activation{Identity, ReLU, Sigmoid}[data[3]%3]
		rng := rand.New(rand.NewSource(int64(data[4])))
		marks := data[5:]
		k := 0
		draw := func(v []float64) {
			for i := range v {
				v[i] = rng.NormFloat64()
				if len(marks) > 0 {
					if m := int(marks[k%len(marks)]); m < len(specials) {
						v[i] = specials[m]
					}
					k++
				}
			}
		}
		d := &Dense{In: in, Out: out, Act: act, W: make([]float64, in*out), B: make([]float64, out)}
		x := make([]float64, in)
		draw(d.W)
		draw(x)
		draw(d.B)
		y := make([]float64, out)
		for _, workers := range []int{1, 2} {
			for o := range y {
				y[o] = math.NaN() // every output must be written
			}
			d.batchForward(x, nil, y, nil, 1, workers)
			for o, got := range y {
				want := act.apply(dot(d.W[o*in:(o+1)*in], x) + d.B[o])
				if math.Float64bits(got) != math.Float64bits(want) && !(math.IsNaN(got) && math.IsNaN(want)) {
					t.Fatalf("%d×%d %v layer, workers=%d: y[%d] = %v (%#x), dot() gives %v (%#x)",
						in, out, act, workers, o, got, math.Float64bits(got), want, math.Float64bits(want))
				}
			}
		}
	})
}

// TestWeightGradSkipsZeroDeltas pins pass 1's batch-major walk: every GW
// and GB element must carry the bits of a scalar walk that, for each
// output row, adds g·x over the batch rows in ascending order and skips a
// g of ±0 — from accumulators that already hold a sum, some of it −0.
// The layer is wider than two colBlocks and b reaches past gradChunk, so
// column blocks, several batch chunks and both 4-group remainders run.
// Input rows hold ±Inf and NaN where other rows' deltas are ±0: adding
// those as +0·x would turn −0 into +0 and 0·Inf into NaN. Identity makes
// the deltas the given dy; ReLU zeroes those of its dead units. Serial
// and with the tiles split over workers; a NaN need only be a NaN.
func TestWeightGradSkipsZeroDeltas(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	negZero := math.Copysign(0, -1)
	specials := []float64{math.Inf(1), math.Inf(-1), math.NaN()}
	for _, c := range []struct {
		in, out int
		act     Activation
	}{{5, 3, Identity}, {2*colBlock + 7, 67, Identity}, {130, 70, ReLU}} {
		for _, b := range []int{1, 2, 9, 16, 33, 70} {
			d := NewDense(c.in, c.out, c.act, rng)
			x := randVec(rng, b*c.in)
			for i := range x {
				if rng.Intn(50) == 0 {
					x[i] = specials[rng.Intn(len(specials))]
				}
			}
			dy := randVec(rng, b*c.out)
			y := randVec(rng, b*c.out)
			for i := range dy {
				switch rng.Intn(4) {
				case 0:
					dy[i] = 0
				case 1:
					dy[i] = negZero
				}
				if c.act == ReLU && rng.Intn(3) == 0 {
					y[i] = 0
				}
			}
			gw0, gb0 := randVec(rng, c.in*c.out), randVec(rng, c.out)
			for i := range gw0 {
				if rng.Intn(3) == 0 {
					gw0[i] = negZero
				}
			}
			gb0[0] = negZero
			wantW, wantB := append([]float64(nil), gw0...), append([]float64(nil), gb0...)
			for o := 0; o < c.out; o++ {
				for bi := 0; bi < b; bi++ {
					g := dy[bi*c.out+o] * c.act.derivFromOutput(y[bi*c.out+o])
					if g == 0 {
						continue
					}
					wantB[o] += g
					for i := 0; i < c.in; i++ {
						wantW[o*c.in+i] += g * x[bi*c.in+i]
					}
				}
			}
			for _, workers := range []int{1, 2, 3} {
				copy(d.GW, gw0)
				copy(d.GB, gb0)
				d.batchBackward(x, y, append([]float64(nil), dy...), nil, b, workers)
				for _, p := range []struct {
					name      string
					got, want []float64
				}{{"GW", d.GW, wantW}, {"GB", d.GB, wantB}} {
					for i, v := range p.got {
						if w := p.want[i]; math.Float64bits(v) != math.Float64bits(w) && !(math.IsNaN(v) && math.IsNaN(w)) {
							t.Fatalf("%d×%d %v layer, b=%d, workers=%d: %s[%d] = %v (%#x), scalar walk gives %v (%#x)",
								c.in, c.out, c.act, b, workers, p.name, i, v, math.Float64bits(v), w, math.Float64bits(w))
						}
					}
				}
			}
		}
	}
}

func TestBatchBackwardMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	net := NewMLP([]int{23, 130, 67, 4}, ReLU, Sigmoid, rng)
	ref := cloneNet(net)
	const B = 11
	x := randVec(rng, B*23)
	dOut := randVec(rng, B*4)

	// Reference: B sequential forward/backward calls accumulating grads.
	dxWant := make([][]float64, B)
	for b := 0; b < B; b++ {
		ref.Forward(x[b*23 : (b+1)*23])
		dxWant[b] = append([]float64(nil), ref.Backward(dOut[b*4:(b+1)*4])...)
	}

	s := NewScratch(net, B)
	net.BatchForward(x, B, s)
	dx := net.BatchBackward(dOut, B, s)

	// Gradient accumulation must be bitwise identical to the sequential
	// sample-order sums.
	for li := range net.Layers {
		for i, g := range net.Layers[li].GW {
			if g != ref.Layers[li].GW[i] {
				t.Fatalf("layer %d GW[%d]: batch %v, sequential %v", li, i, g, ref.Layers[li].GW[i])
			}
		}
		for i, g := range net.Layers[li].GB {
			if g != ref.Layers[li].GB[i] {
				t.Fatalf("layer %d GB[%d]: batch %v, sequential %v", li, i, g, ref.Layers[li].GB[i])
			}
		}
	}
	for b := 0; b < B; b++ {
		for i, v := range dxWant[b] {
			if dx[b*23+i] != v {
				t.Fatalf("sample %d dx[%d]: batch %v, sequential %v", b, i, dx[b*23+i], v)
			}
		}
	}
}

// TestBatchBackwardStillReturnsInputGrad: only the training engine skips
// layer 0's dL/dx. The public path still computes it — split over batch
// rows once the layer reaches parallelThreshold — bitwise as b sequential
// Backward calls do, also on a network the engine has just been through.
func TestBatchBackwardStillReturnsInputGrad(t *testing.T) {
	const in, out = 1201, 1101
	for _, b := range []int{1, 2, 15, 16, 33} {
		net := wideNet(5)
		ref := cloneNet(net)
		rng := rand.New(rand.NewSource(int64(b)))
		x := randVec(rng, b*in)
		dOut := randVec(rng, b*out)

		eng := NewDataParallel(net, 4)
		eng.Accumulate(x, b, quadScore(out))
		net.ZeroGrads()

		s := NewScratch(net, b)
		net.BatchForward(x, b, s)
		dx := net.BatchBackward(dOut, b, s)
		if len(dx) != b*in {
			t.Fatalf("b=%d: BatchBackward returned %d input gradients, want %d", b, len(dx), b*in)
		}
		for bi := 0; bi < b; bi++ {
			ref.Forward(x[bi*in : (bi+1)*in])
			for i, v := range ref.Backward(dOut[bi*out : (bi+1)*out]) {
				if dx[bi*in+i] != v {
					t.Fatalf("b=%d sample %d dx[%d]: batch %v, sequential %v", b, bi, i, dx[bi*in+i], v)
				}
			}
		}
	}
}

// TestInputGradSkipsZeroDeltas pins pass 2's per-(row, output) skip of a
// zero delta, which the output-pair-outermost walk must keep: an output
// row holds +Inf, and the rows whose delta for it is ±0 must not pick up
// 0·Inf = NaN. The deltas mix ±0 into both slots of output pairs in
// different rows, the odd last output included, and every dx element must
// carry the bits of a one-row scalar walk over ascending outputs, skipping
// zeros (a NaN need only be a NaN), serial and with the rows split over
// workers. Identity makes the deltas the given dy.
func TestInputGradSkipsZeroDeltas(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	const in, out, inf = 130, 67, 5
	d := NewDense(in, out, Identity, rng)
	d.W[inf*in+7] = math.Inf(1)
	for _, b := range []int{3, 9} {
		x := randVec(rng, b*in)
		dy := randVec(rng, b*out)
		for i := range dy {
			switch rng.Intn(4) {
			case 0:
				dy[i] = 0
			case 1:
				dy[i] = math.Copysign(0, -1)
			}
		}
		for bi := 0; bi < b; bi++ {
			if bi%2 == 0 {
				dy[bi*out+inf] = 0
			} else if dy[bi*out+inf] == 0 {
				dy[bi*out+inf] = 1.5
			}
		}
		want := make([]float64, b*in)
		for bi := 0; bi < b; bi++ {
			for o := 0; o < out; o++ {
				if g := dy[bi*out+o]; g != 0 {
					for i := 0; i < in; i++ {
						want[bi*in+i] += g * d.W[o*in+i]
					}
				}
			}
		}
		y := make([]float64, b*out)
		for _, workers := range []int{1, 2, 3} {
			dx := make([]float64, b*in)
			for i := range dx {
				dx[i] = math.NaN() // every entry must be written
			}
			d.ZeroGrads()
			d.batchBackward(x, y, append([]float64(nil), dy...), dx, b, workers)
			for i, v := range dx {
				if math.Float64bits(v) != math.Float64bits(want[i]) && !(math.IsNaN(v) && math.IsNaN(want[i])) {
					t.Fatalf("b=%d workers=%d: dx[%d][%d] = %v, scalar walk gives %v", b, workers, i/in, i%in, v, want[i])
				}
				if bi := i / in; bi%2 == 0 && i%in == 7 && math.IsNaN(v) {
					t.Fatalf("b=%d workers=%d: row %d took the +Inf weight through a zero delta", b, workers, bi)
				}
			}
		}
	}
}

func TestBatchBackwardFiniteDifference(t *testing.T) {
	// One layer, batch loss L = Σ_b ½‖y_b − t_b‖²: analytic batch gradient
	// must match central differences.
	rng := rand.New(rand.NewSource(3))
	d := NewDense(7, 5, Sigmoid, rng)
	const B = 6
	x := randVec(rng, B*7)
	target := randVec(rng, B*5)
	y := make([]float64, B*5)
	dy := make([]float64, B*5)
	dx := make([]float64, B*7)

	loss := func() float64 {
		d.BatchForward(x, y, B)
		s := 0.0
		for i := range y {
			diff := y[i] - target[i]
			s += 0.5 * diff * diff
		}
		return s
	}
	loss()
	for i := range y {
		dy[i] = y[i] - target[i]
	}
	d.ZeroGrads()
	d.BatchBackward(x, y, dy, dx, B)

	const h = 1e-6
	for _, idx := range []int{0, 3, 17, len(d.W) - 1} {
		orig := d.W[idx]
		d.W[idx] = orig + h
		lp := loss()
		d.W[idx] = orig - h
		lm := loss()
		d.W[idx] = orig
		want := (lp - lm) / (2 * h)
		if got := d.GW[idx]; math.Abs(got-want) > 1e-5*(1+math.Abs(want)) {
			t.Errorf("GW[%d]: analytic %v, numeric %v", idx, got, want)
		}
	}
	for _, idx := range []int{0, len(d.B) - 1} {
		orig := d.B[idx]
		d.B[idx] = orig + h
		lp := loss()
		d.B[idx] = orig - h
		lm := loss()
		d.B[idx] = orig
		want := (lp - lm) / (2 * h)
		if got := d.GB[idx]; math.Abs(got-want) > 1e-5*(1+math.Abs(want)) {
			t.Errorf("GB[%d]: analytic %v, numeric %v", idx, got, want)
		}
	}
	// dL/dx against input perturbation.
	loss()
	for _, idx := range []int{0, 11, B*7 - 1} {
		orig := x[idx]
		x[idx] = orig + h
		lp := loss()
		x[idx] = orig - h
		lm := loss()
		x[idx] = orig
		want := (lp - lm) / (2 * h)
		if got := dx[idx]; math.Abs(got-want) > 1e-5*(1+math.Abs(want)) {
			t.Errorf("dx[%d]: analytic %v, numeric %v", idx, got, want)
		}
	}
}

func TestForwardInputBufferReuseSafe(t *testing.T) {
	// Regression test for the aliasing hazard: Forward used to cache the
	// caller's input slice by reference, so mutating it before Backward
	// silently corrupted the weight gradients.
	rng := rand.New(rand.NewSource(4))
	net := NewMLP([]int{4, 8, 2}, ReLU, Identity, rng)
	ref := cloneNet(net)
	x := []float64{0.5, -1, 2, 0.25}
	dy := []float64{1, -1}

	ref.Forward(append([]float64(nil), x...))
	ref.Backward(dy)

	buf := append([]float64(nil), x...)
	net.Forward(buf)
	for i := range buf {
		buf[i] = 1e9 // caller reuses its buffer before Backward
	}
	net.Backward(dy)

	for li := range net.Layers {
		for i, g := range net.Layers[li].GW {
			if g != ref.Layers[li].GW[i] {
				t.Fatalf("layer %d GW[%d] corrupted by input-buffer reuse: %v vs %v",
					li, i, g, ref.Layers[li].GW[i])
			}
		}
	}
}

func TestBackwardDoesNotClobberCallerGrad(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	net := NewMLP([]int{3, 6, 2}, ReLU, Sigmoid, rng)
	net.Forward([]float64{1, 2, 3})
	dy := []float64{0.3, -0.7}
	want := append([]float64(nil), dy...)
	net.Backward(dy)
	for i := range dy {
		if dy[i] != want[i] {
			t.Fatalf("Backward modified caller's gradient slice: %v vs %v", dy, want)
		}
	}
}

func TestScratchSmallerBatches(t *testing.T) {
	// A scratch sized for B must serve any batch size 1..B, and a smaller
	// batch must find +0 in the padding lanes of every column-major copy
	// that a larger one filled.
	rng := rand.New(rand.NewSource(6))
	net := NewMLP([]int{5, 9, 3}, ReLU, Sigmoid, rng)
	s := NewScratch(net, 8)
	if s.batch != 8 {
		t.Fatalf("batch capacity %d, want 8", s.batch)
	}
	for _, b := range []int{1, 8, 3} {
		x := randVec(rng, b*5)
		y := net.BatchForward(x, b, s)
		if len(y) != b*3 {
			t.Fatalf("batch %d output len %d", b, len(y))
		}
		want := net.Forward(x[:5])
		for o := range want {
			if y[o] != want[o] {
				t.Fatalf("batch %d sample 0 mismatch", b)
			}
		}
		for i, w := range s.sizes {
			for k, v := range s.cols[i][:w*lanes(b)] {
				if k%lanes(b) >= b && math.Float64bits(v) != 0 {
					t.Fatalf("batch %d: column-major copy %d holds %v in padding lane %d", b, i, v, k%lanes(b))
				}
			}
		}
	}
}

func TestScratchValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	net := NewMLP([]int{4, 6, 2}, ReLU, Sigmoid, rng)
	other := NewMLP([]int{5, 6, 2}, ReLU, Sigmoid, rng)
	narrow := NewMLP([]int{4, 3, 2}, ReLU, Sigmoid, rng)
	wide := NewMLP([]int{4, 9, 2}, ReLU, Sigmoid, rng)
	s := NewScratch(net, 2)
	for _, tc := range []struct {
		name string
		fn   func()
	}{
		{"zero batch", func() { NewScratch(net, 0) }},
		{"over capacity", func() { net.BatchForward(make([]float64, 3*4), 3, s) }},
		{"wrong arch", func() { other.BatchForward(make([]float64, 2*5), 2, s) }},
		{"narrower hidden layer", func() { narrow.BatchForward(make([]float64, 2*4), 2, s) }},
		{"wider hidden layer", func() { wide.BatchForward(make([]float64, 2*4), 2, s) }},
		{"wrong input", func() { net.BatchForward(make([]float64, 7), 2, s) }},
		{"wrong gradient", func() { net.BatchBackward(make([]float64, 3), 2, s) }},
	} {
		name, fn := tc.name, tc.fn
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			fn()
		}()
	}
}
