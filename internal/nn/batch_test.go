package nn

import (
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
// so TestBatchForwardMatchesSequential compares dot1x4 with dot1x4. Every
// y[b][o] must be act(dot(W[o], x[b]) + B[o]) bit for bit over every
// remainder path — the 4-wide inner loop (In), the quad walk over outputs
// (Out, also split into tileOuts tiles), the row-pair walk (b, also split
// into tileRows tiles) — below and above parallelThreshold, serial and over
// even and uneven worker counts. Identity keeps the raw sums visible.
func TestForwardKernelsMatchDot(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	var below, above int
	for _, in := range []int{1, 2, 3, 4, 5, 7, 8, 129} {
		for _, out := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 64, 67} {
			d := NewDense(in, out, Identity, rng)
			copy(d.B, randVec(rng, out))
			for _, b := range []int{1, 2, 3, 16, 17} {
				if b*in*out < parallelThreshold {
					below++
				} else {
					above++
				}
				x := randVec(rng, b*in)
				y := make([]float64, b*out)
				for _, workers := range []int{1, 2, 3} {
					clear(y)
					d.batchForward(x, y, b, workers)
					for bi := 0; bi < b; bi++ {
						for o := 0; o < out; o++ {
							want := d.Act.apply(dot(d.W[o*in:(o+1)*in], x[bi*in:(bi+1)*in]) + d.B[o])
							if got := y[bi*out+o]; got != want {
								t.Fatalf("%d×%d layer, b=%d, workers=%d: y[%d][%d] = %v, dot() gives %v",
									in, out, b, workers, bi, o, got, want)
							}
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
	for _, b := range []int{1, 2, tileRows - 1, tileRows, 2*tileRows + 1} {
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
	// A scratch sized for B must serve any batch size 1..B.
	rng := rand.New(rand.NewSource(6))
	net := NewMLP([]int{5, 9, 3}, ReLU, Sigmoid, rng)
	s := NewScratch(net, 8)
	if s.Batch() != 8 {
		t.Fatalf("Batch() = %d, want 8", s.Batch())
	}
	for _, b := range []int{1, 3, 8} {
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
	}
}

func TestScratchValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	net := NewMLP([]int{4, 6, 2}, ReLU, Sigmoid, rng)
	other := NewMLP([]int{5, 6, 2}, ReLU, Sigmoid, rng)
	s := NewScratch(net, 2)
	for _, tc := range []struct {
		name string
		fn   func()
	}{
		{"zero batch", func() { NewScratch(net, 0) }},
		{"over capacity", func() { net.BatchForward(make([]float64, 3*4), 3, s) }},
		{"wrong arch", func() { other.BatchForward(make([]float64, 2*5), 2, s) }},
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
