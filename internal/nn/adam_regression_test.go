package nn

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// mapAdam is a verbatim copy of the pre-flattening Adam implementation
// (moment buffers in map[*float64][]float64 keyed by each tensor's first
// element), kept as the regression oracle: the index-addressed optimizer
// must produce bitwise-identical parameter updates.
type mapAdam struct {
	LR      float64
	Beta1   float64
	Beta2   float64
	Epsilon float64

	t int
	m map[*float64][]float64
	v map[*float64][]float64
}

func newMapAdam(lr float64) *mapAdam {
	return &mapAdam{
		LR: lr, Beta1: 0.9, Beta2: 0.999, Epsilon: 1e-8,
		m: make(map[*float64][]float64),
		v: make(map[*float64][]float64),
	}
}

func (a *mapAdam) Step(net *MLP) {
	a.t++
	c1 := 1 - math.Pow(a.Beta1, float64(a.t))
	c2 := 1 - math.Pow(a.Beta2, float64(a.t))
	net.VisitParams(func(params, grads []float64) {
		key := &params[0]
		mBuf, ok := a.m[key]
		if !ok {
			mBuf = make([]float64, len(params))
			a.m[key] = mBuf
			a.v[key] = make([]float64, len(params))
		}
		vBuf := a.v[key]
		for i := range params {
			g := grads[i]
			mBuf[i] = a.Beta1*mBuf[i] + (1-a.Beta1)*g
			vBuf[i] = a.Beta2*vBuf[i] + (1-a.Beta2)*g*g
			mh := mBuf[i] / c1
			vh := vBuf[i] / c2
			params[i] -= a.LR * mh / (math.Sqrt(vh) + a.Epsilon)
		}
	})
	net.ZeroGrads()
}

// TestAdamMatchesMapImplementation drives two identical networks through
// the same gradient sequence, one stepped by the flattened Adam and one
// by the historical map-keyed version, and requires bitwise-equal
// parameters after every step. The second network has one tensor above
// parallelThreshold (300×230), which Step updates in chunks — uneven ones
// at 3 and 7 workers.
func TestAdamMatchesMapImplementation(t *testing.T) {
	small := func() *MLP { return testNet(t, 11) }
	big := func() *MLP {
		return NewMLP([]int{300, 230, 5}, ReLU, Sigmoid, rand.New(rand.NewSource(11)))
	}
	adamMatchesMap(t, "small", 25, small(), small(), (*Adam).Step)
	adamMatchesMap(t, "big", 5, big(), big(), (*Adam).Step)
	for _, w := range []int{1, 3, 7} {
		adamMatchesMap(t, fmt.Sprintf("big workers=%d", w), 5, big(), big(),
			func(opt *Adam, m *MLP) { opt.step(m, w) })
	}
}

func adamMatchesMap(t *testing.T, label string, steps int, a, b *MLP, stepA func(*Adam, *MLP)) {
	t.Helper()
	optA := NewAdam(3e-3)
	optB := newMapAdam(3e-3)
	rng := rand.New(rand.NewSource(4))

	setGrads := func(m *MLP, seed int64) {
		r := rand.New(rand.NewSource(seed))
		m.VisitParams(func(_, grads []float64) {
			for i := range grads {
				grads[i] = r.NormFloat64()
			}
		})
	}

	for step := 0; step < steps; step++ {
		seed := rng.Int63()
		setGrads(a, seed)
		setGrads(b, seed)
		stepA(optA, a)
		optB.Step(b)
		for li := range a.Layers {
			la, lb := a.Layers[li], b.Layers[li]
			for i := range la.W {
				if la.W[i] != lb.W[i] {
					t.Fatalf("%s: step %d layer %d W[%d]: %v vs %v", label, step, li, i, la.W[i], lb.W[i])
				}
				if la.GW[i] != 0 {
					t.Fatalf("%s: step %d layer %d GW[%d] = %v after Step, want cleared", label, step, li, i, la.GW[i])
				}
			}
			for i := range la.B {
				if la.B[i] != lb.B[i] {
					t.Fatalf("%s: step %d layer %d B[%d]: %v vs %v", label, step, li, i, la.B[i], lb.B[i])
				}
				if la.GB[i] != 0 {
					t.Fatalf("%s: step %d layer %d GB[%d] = %v after Step, want cleared", label, step, li, i, la.GB[i])
				}
			}
		}
	}
}

// TestAdamRejectsArchitectureChange verifies the positional binding is
// checked: an optimizer bound to one network panics on a differently
// shaped one instead of silently mixing moment buffers.
func TestAdamRejectsArchitectureChange(t *testing.T) {
	a := testNet(t, 1)
	opt := NewAdam(1e-3)
	opt.Step(a)

	other := NewMLP([]int{3, 4, 2}, ReLU, Sigmoid, rand.New(rand.NewSource(1)))
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic stepping a different architecture")
		}
	}()
	opt.Step(other)
}
