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
	adamMatchesMap(t, "small", 25, small(), small(), (*Adam).Step)
	adamMatchesMap(t, "big", 5, bigAdamNet(), bigAdamNet(), (*Adam).Step)
	for _, w := range []int{1, 3, 7} {
		adamMatchesMap(t, fmt.Sprintf("big workers=%d", w), 5, bigAdamNet(), bigAdamNet(),
			func(opt *Adam, m *MLP) { opt.step(m, w) })
	}
}

func bigAdamNet() *MLP {
	return NewMLP([]int{300, 230, 5}, ReLU, Sigmoid, rand.New(rand.NewSource(11)))
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
		adamStateEqual(t, fmt.Sprintf("%s: step %d", label, step), a, b, optA, optB)
	}
}

// adamStateEqual requires everything a step leaves behind to agree bit for
// bit — compared as bits, because −0 == +0 and a skipped update must not
// even flip a sign: parameters, both moment buffers, and gradients cleared
// to +0.
func adamStateEqual(t *testing.T, label string, a, b *MLP, optA *Adam, optB *mapAdam) {
	t.Helper()
	var pb [][]float64
	b.VisitParams(func(params, _ []float64) { pb = append(pb, params) })
	ti := 0
	a.VisitParams(func(pa, ga []float64) {
		key := &pb[ti][0]
		for _, c := range []struct {
			name      string
			got, want []float64
		}{
			{"param", pa, pb[ti]},
			{"m", optA.m[ti], optB.m[key]},
			{"v", optA.v[ti], optB.v[key]},
			{"cleared gradient", ga, make([]float64, len(ga))},
		} {
			for i := range c.got {
				if math.Float64bits(c.got[i]) != math.Float64bits(c.want[i]) {
					t.Fatalf("%s tensor %d %s[%d]: %v (%#x), want %v (%#x)", label, ti, c.name, i,
						c.got[i], math.Float64bits(c.got[i]), c.want[i], math.Float64bits(c.want[i]))
				}
			}
		}
		ti++
	})
}

// TestAdamSkipIsIdentity holds the skip in update — pass over a parameter
// whose g, m and v are all +0 — against the reference that never skips, on
// the states training produces and random gradients never do. Every tensor
// is cut into runs of 100 elements of six kinds: never any gradient (a dead
// unit's weight row); zeros interleaved with non-zeros; g = −0, which the
// rule clears to +0; asleep for three steps, awake for two, then asleep
// again on live moments, which must go on decaying and moving the
// parameter; always live; and no gradient but moments at the smallest
// denormal. Some parameters of every kind start at −0. The 300×230 tensor
// is above parallelThreshold, so workers 3 and 7 cut it mid-run. Runs of 7
// elements put kinds side by side inside the assembly's 4-groups, so a
// group mixes dead and live lanes, and the 10→5→3 net's tensors (50, 5,
// 15 and 3 parameters) end in remainders of 2, 1, 3 and 3 that the Go body
// takes after the assembly.
func TestAdamSkipIsIdentity(t *testing.T) {
	for _, c := range []struct {
		net func() *MLP
		run int
	}{
		{bigAdamNet, 100},
		{bigAdamNet, 7},
		{func() *MLP { return NewMLP([]int{10, 5, 3}, ReLU, Sigmoid, rand.New(rand.NewSource(11))) }, 7},
	} {
		adamSkipIsIdentity(t, c.net, c.run)
	}
}

func adamSkipIsIdentity(t *testing.T, net func() *MLP, run int) {
	t.Helper()
	negZero := math.Copysign(0, -1)
	const kinds, denormalKind = 6, 5
	mk := func() *MLP {
		m := net()
		m.VisitParams(func(params, _ []float64) {
			for i := range params {
				if i%3 == 0 {
					params[i] = negZero
				}
			}
		})
		return m
	}
	setGrads := func(m *MLP, step int) {
		r := rand.New(rand.NewSource(int64(step)))
		m.VisitParams(func(_, grads []float64) {
			for i := range grads {
				x := r.NormFloat64()
				switch (i / run) % kinds {
				case 0, denormalKind:
					x = 0
				case 1:
					if i%2 == 0 {
						x = 0
					}
				case 2:
					x = negZero
				case 3:
					if step < 3 || step >= 5 {
						x = 0
					}
				}
				grads[i] = x
			}
		})
	}
	// tiny plants denormal moments where the buffers are still +0: m alone,
	// v alone, both.
	tiny := func(mBuf, vBuf []float64) {
		for i := range mBuf {
			if (i/run)%kinds != denormalKind {
				continue
			}
			if i%3 != 1 {
				mBuf[i] = math.SmallestNonzeroFloat64
			}
			if i%3 != 0 {
				vBuf[i] = math.SmallestNonzeroFloat64
			}
		}
	}
	for _, w := range []int{0, 1, 3, 7} {
		a, b := mk(), mk()
		optA, optB := NewAdam(3e-3), newMapAdam(3e-3)
		for step := 0; step < 8; step++ {
			setGrads(a, step)
			setGrads(b, step)
			optA.step(a, w)
			optB.Step(b)
			if step == 0 { // the first step made the buffers
				ti := 0
				b.VisitParams(func(params, _ []float64) {
					tiny(optA.m[ti], optA.v[ti])
					tiny(optB.m[&params[0]], optB.v[&params[0]])
					ti++
				})
			}
			adamStateEqual(t, fmt.Sprintf("%d params, run %d, workers=%d step %d", a.NumParams(), run, w, step),
				a, b, optA, optB)
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

// TestAdamStepVecBindsLength: StepVec binds the optimizer to one flat
// tensor of the first call's length; another length, or a Step over a
// network, panics instead of re-keying the moments.
func TestAdamStepVecBindsLength(t *testing.T) {
	for _, c := range []struct {
		name   string
		misuse func(*Adam)
	}{
		{"other length", func(opt *Adam) { opt.StepVec(make([]float64, 6), make([]float64, 6)) }},
		{"network", func(opt *Adam) { opt.Step(testNet(t, 1)) }},
	} {
		name, misuse := c.name, c.misuse
		opt := NewAdam(1e-3)
		opt.StepVec(make([]float64, 5), []float64{1, -1, 0, 2, 0.5})
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected a panic after StepVec bound 5 parameters", name)
				}
			}()
			misuse(opt)
		}()
	}
}
