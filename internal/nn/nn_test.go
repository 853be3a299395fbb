package nn

import (
	"encoding/json"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestActivations(t *testing.T) {
	if ReLU.apply(-3) != 0 || ReLU.apply(2) != 2 {
		t.Error("ReLU wrong")
	}
	if s := Sigmoid.apply(0); math.Abs(s-0.5) > 1e-12 {
		t.Errorf("Sigmoid(0) = %v", s)
	}
	if Identity.apply(7) != 7 {
		t.Error("Identity wrong")
	}
	// Derivative-from-output identities.
	if ReLU.derivFromOutput(0) != 0 || ReLU.derivFromOutput(5) != 1 {
		t.Error("ReLU derivative wrong")
	}
	y := Sigmoid.apply(1.3)
	if d := Sigmoid.derivFromOutput(y); math.Abs(d-y*(1-y)) > 1e-12 {
		t.Errorf("Sigmoid derivative %v", d)
	}
}

func TestDenseForwardExact(t *testing.T) {
	d := &Dense{In: 2, Out: 1, Act: Identity,
		W: []float64{2, 3}, B: []float64{1},
		GW: make([]float64, 2), GB: make([]float64, 1)}
	y := d.Forward([]float64{4, 5})
	if y[0] != 2*4+3*5+1 {
		t.Errorf("forward = %v", y[0])
	}
}

// numericGrad estimates dL/dθ by central differences for loss L(net(x)).
func numericGrad(net *MLP, x []float64, loss func([]float64) float64, param []float64, i int) float64 {
	const h = 1e-6
	orig := param[i]
	param[i] = orig + h
	lp := loss(net.Forward(x))
	param[i] = orig - h
	lm := loss(net.Forward(x))
	param[i] = orig
	return (lp - lm) / (2 * h)
}

func TestBackpropMatchesNumericGradient(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	net := NewMLP([]int{3, 5, 4, 2}, ReLU, Sigmoid, rng)
	x := []float64{0.3, -0.7, 1.1}
	target := []float64{0.2, 0.9}
	loss := func(y []float64) float64 {
		s := 0.0
		for i := range y {
			d := y[i] - target[i]
			s += 0.5 * d * d
		}
		return s
	}
	y := net.Forward(x)
	dOut := make([]float64, len(y))
	for i := range y {
		dOut[i] = y[i] - target[i]
	}
	net.ZeroGrads()
	net.Backward(dOut)

	checked := 0
	for li, l := range net.Layers {
		for _, idx := range []int{0, len(l.W) / 2, len(l.W) - 1} {
			want := numericGrad(net, x, loss, l.W, idx)
			got := l.GW[idx]
			if math.Abs(want-got) > 1e-5*(1+math.Abs(want)) {
				t.Errorf("layer %d W[%d]: analytic %v numeric %v", li, idx, got, want)
			}
			checked++
		}
		want := numericGrad(net, x, loss, l.B, 0)
		if got := l.GB[0]; math.Abs(want-got) > 1e-5*(1+math.Abs(want)) {
			t.Errorf("layer %d B[0]: analytic %v numeric %v", li, got, want)
		}
	}
	if checked == 0 {
		t.Fatal("no gradients checked")
	}
}

func TestBackwardInputGradient(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	net := NewMLP([]int{4, 6, 3}, ReLU, Identity, rng)
	x := []float64{0.1, 0.2, -0.3, 0.4}
	sumLoss := func(y []float64) float64 {
		s := 0.0
		for _, v := range y {
			s += v
		}
		return s
	}
	_ = net.Forward(x)
	dOut := []float64{1, 1, 1}
	dx := net.Backward(dOut)
	const h = 1e-6
	for i := range x {
		xp := append([]float64(nil), x...)
		xp[i] += h
		xm := append([]float64(nil), x...)
		xm[i] -= h
		want := (sumLoss(net.Forward(xp)) - sumLoss(net.Forward(xm))) / (2 * h)
		if math.Abs(dx[i]-want) > 1e-5*(1+math.Abs(want)) {
			t.Errorf("dx[%d]: analytic %v numeric %v", i, dx[i], want)
		}
	}
}

func TestParallelMatchesSerial(t *testing.T) {
	// A layer big enough to trigger the parallel path must match a small
	// equivalent computation.
	rng := rand.New(rand.NewSource(3))
	in, out := 400, 256 // 102400 > parallelThreshold
	d := NewDense(in, out, Identity, rng)
	x := make([]float64, in)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	y := append([]float64(nil), d.Forward(x)...)
	for o := 0; o < out; o += 37 {
		want := d.B[o]
		for i := 0; i < in; i++ {
			want += d.W[o*in+i] * x[i]
		}
		if math.Abs(y[o]-want) > 1e-9 {
			t.Fatalf("parallel forward row %d: %v vs %v", o, y[o], want)
		}
	}
	// Parallel backward gradient check on a few entries.
	dy := make([]float64, out)
	for i := range dy {
		dy[i] = rng.NormFloat64()
	}
	d.ZeroGrads()
	dx := d.Backward(dy)
	for _, i := range []int{0, 100, in - 1} {
		want := 0.0
		for o := 0; o < out; o++ {
			want += dy[o] * d.W[o*in+i]
		}
		if math.Abs(dx[i]-want) > 1e-9 {
			t.Fatalf("parallel backward dx[%d]: %v vs %v", i, dx[i], want)
		}
	}
}

func TestAdamConvergesOnRegression(t *testing.T) {
	// Fit y = sigmoid(2x1 - x2) with a small net; loss must fall sharply.
	rng := rand.New(rand.NewSource(4))
	net := NewMLP([]int{2, 16, 1}, ReLU, Sigmoid, rng)
	opt := NewAdam(0.01)
	sample := func() ([]float64, float64) {
		x := []float64{rng.NormFloat64(), rng.NormFloat64()}
		return x, 1 / (1 + math.Exp(-(2*x[0] - x[1])))
	}
	avgLoss := func() float64 {
		s := 0.0
		r2 := rand.New(rand.NewSource(99))
		for i := 0; i < 200; i++ {
			x := []float64{r2.NormFloat64(), r2.NormFloat64()}
			want := 1 / (1 + math.Exp(-(2*x[0] - x[1])))
			y := net.Forward(x)[0]
			s += (y - want) * (y - want)
		}
		return s / 200
	}
	before := avgLoss()
	for it := 0; it < 2000; it++ {
		x, want := sample()
		y := net.Forward(x)
		net.Backward([]float64{y[0] - want})
		opt.Step(net)
	}
	after := avgLoss()
	if after > before/10 {
		t.Errorf("Adam failed to converge: %v -> %v", before, after)
	}
	if after > 0.001 {
		t.Errorf("final loss too high: %v", after)
	}
}

func TestMLPJSONRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	net := NewMLP([]int{3, 7, 2}, ReLU, Sigmoid, rng)
	x := []float64{0.5, -0.5, 1}
	want := append([]float64(nil), net.Forward(x)...)
	data, err := json.Marshal(net)
	if err != nil {
		t.Fatal(err)
	}
	var back MLP
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	got := back.Forward(x)
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Fatalf("round-trip output differs: %v vs %v", got, want)
		}
	}
	// Malformed JSON rejected.
	var bad MLP
	if err := json.Unmarshal([]byte(`{"sizes":[2],"acts":[],"w":[],"b":[]}`), &bad); err == nil {
		t.Error("malformed MLP accepted")
	}
}

// TestMLPUnmarshalRejectsMalformed: checkpoint bytes come from outside the
// program (served's upload endpoint), so every shape the decoder would
// otherwise build a panicking or silently wrong network from is an error.
func TestMLPUnmarshalRejectsMalformed(t *testing.T) {
	for _, c := range []struct{ name, json string }{
		{"valid", `{"sizes":[2,1],"acts":[2],"w":[[1,2]],"b":[[0]]}`},
		// -1 × -1 = 1 passes the in*out length check.
		{"negative sizes", `{"sizes":[-1,-1],"acts":[1],"w":[[1]],"b":[[]]}`},
		{"zero input", `{"sizes":[0,1],"acts":[1],"w":[[]],"b":[[0]]}`},
		{"zero output", `{"sizes":[2,0],"acts":[1],"w":[[]],"b":[[]]}`},
		{"product wraps to the weight count", `{"sizes":[4611686018427387904,4],"acts":[1],"w":[[]],"b":[[0,0,0,0]]}`},
		{"unknown activation", `{"sizes":[2,1],"acts":[3],"w":[[1,2]],"b":[[0]]}`},
		{"negative activation", `{"sizes":[2,1],"acts":[-1],"w":[[1,2]],"b":[[0]]}`},
		{"weight count", `{"sizes":[2,1],"acts":[1],"w":[[1,2,3]],"b":[[0]]}`},
		{"bias count", `{"sizes":[2,1],"acts":[1],"w":[[1,2]],"b":[[0,0]]}`},
		{"one size", `{"sizes":[2],"acts":[],"w":[],"b":[]}`},
	} {
		var m MLP
		err := json.Unmarshal([]byte(c.json), &m)
		if want := c.name != "valid"; (err != nil) != want {
			t.Errorf("%s: error %v, want rejected=%v", c.name, err, want)
		}
	}
}

// TestMLPSnapshot: Snapshot yields the network the JSON round trip
// yields (after a training step, so gradients and forward state are
// dirty on the source and must not travel), shares no tensor with its
// source, and refuses what json.Marshal refuses.
func TestMLPSnapshot(t *testing.T) {
	src := NewMLP([]int{3, 5, 2}, ReLU, Sigmoid, rand.New(rand.NewSource(11)))
	src.Forward([]float64{1, 2, 3})
	src.Backward([]float64{1, -1})
	data, err := json.Marshal(src)
	if err != nil {
		t.Fatal(err)
	}
	var back MLP
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	snap, err := src.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(snap, &back) {
		t.Fatal("Snapshot differs from the MarshalJSON/UnmarshalJSON round trip")
	}
	src.VisitParams(func(params, _ []float64) {
		for i := range params {
			params[i] = 42
		}
	})
	if !reflect.DeepEqual(snap, &back) {
		t.Fatal("overwriting the source reached its snapshot")
	}
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		src.Layers[1].B[1] = bad
		if _, err := src.Snapshot(); err == nil {
			t.Errorf("Snapshot accepted a %v bias", bad)
		}
		if _, err := json.Marshal(src); err == nil {
			t.Errorf("json.Marshal accepted a %v bias: the round trip no longer refuses it", bad)
		}
	}
}

func TestDeterministicInit(t *testing.T) {
	a := NewMLP([]int{4, 8, 2}, ReLU, Sigmoid, rand.New(rand.NewSource(7)))
	b := NewMLP([]int{4, 8, 2}, ReLU, Sigmoid, rand.New(rand.NewSource(7)))
	for li := range a.Layers {
		for i := range a.Layers[li].W {
			if a.Layers[li].W[i] != b.Layers[li].W[i] {
				t.Fatal("same seed produced different weights")
			}
		}
	}
}

func TestNumParams(t *testing.T) {
	net := NewMLP([]int{3, 5, 2}, ReLU, Sigmoid, rand.New(rand.NewSource(8)))
	want := 3*5 + 5 + 5*2 + 2
	if net.NumParams() != want {
		t.Errorf("NumParams = %d, want %d", net.NumParams(), want)
	}
}

// Property: sigmoid outputs always lie in [0,1] for any finite input
// (saturation to exactly 0 or 1 is possible in float64 for extreme
// pre-activations and is acceptable: Normalize repairs all-zero pairs).
func TestSigmoidRangeProperty(t *testing.T) {
	net := NewMLP([]int{6, 128, 128, 128, 128, 128, 3}, ReLU, Sigmoid, rand.New(rand.NewSource(10)))
	f := func(a, b, c, d, e, g float64) bool {
		clamp := func(v float64) float64 {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return 0
			}
			return math.Mod(v, 100)
		}
		x := []float64{clamp(a), clamp(b), clamp(c), clamp(d), clamp(e), clamp(g)}
		for _, v := range net.Forward(x) {
			if math.IsNaN(v) || v < 0 || v > 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestInvalidConstruction(t *testing.T) {
	for _, fn := range []func(){
		func() { NewDense(0, 1, ReLU, rand.New(rand.NewSource(1))) },
		func() { NewMLP([]int{3}, ReLU, Sigmoid, rand.New(rand.NewSource(1))) },
		func() { NewAdam(0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
}
