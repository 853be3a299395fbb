package nn

import (
	"fmt"
	"math"
)

// Adam implements the Adam optimizer (Kingma & Ba 2014), the optimizer
// FIGRET trains with (Appendix D.4). Moment buffers are index-addressed
// per-tensor slices in VisitParams order, allocated on the first Step, so
// the hot loop touches no maps and the optimizer's identity contract is
// positional (tensor i of the visited network).
type Adam struct {
	LR      float64
	Beta1   float64
	Beta2   float64
	Epsilon float64

	t int
	m [][]float64 // first-moment buffers, VisitParams order
	v [][]float64 // second-moment buffers
}

// NewAdam returns an Adam optimizer with the standard defaults
// (β1=0.9, β2=0.999, ε=1e-8) and the given learning rate, which must be
// positive and finite: a NaN or +Inf rate would make every live parameter
// non-finite on the first Step.
func NewAdam(lr float64) *Adam {
	if !(lr > 0) || math.IsInf(lr, 1) {
		panic(fmt.Sprintf("nn: learning rate %v must be positive and finite", lr))
	}
	return &Adam{LR: lr, Beta1: 0.9, Beta2: 0.999, Epsilon: 1e-8}
}

// Step applies one Adam update to every parameter tensor of net using the
// gradients accumulated since the last ZeroGrads, then clears them. The
// first Step binds the optimizer to net's shape; reusing it on a
// different architecture panics instead of silently re-keying.
func (a *Adam) Step(net *MLP) { a.step(net, 0) }

// step is Step with the fan-out made explicit: a tensor of at least
// parallelThreshold parameters is updated in chunks over at most workers
// goroutines (0 means GOMAXPROCS, 1 starts none). Each parameter's update
// reads and writes only its own slot of the four buffers, so chunking
// cannot change a bit. The gradient is cleared in the same sweep that
// consumes it.
func (a *Adam) step(net *MLP, workers int) {
	c1, c2 := a.tick()
	if a.m == nil {
		net.VisitParams(func(params, _ []float64) {
			a.m = append(a.m, make([]float64, len(params)))
			a.v = append(a.v, make([]float64, len(params)))
		})
	}
	ti := 0
	net.VisitParams(func(params, grads []float64) {
		if ti >= len(a.m) || len(a.m[ti]) != len(params) {
			panic("nn: Adam state bound to a different architecture")
		}
		mBuf, vBuf := a.m[ti], a.v[ti]
		ti++
		if workers == 1 || len(params) < parallelThreshold {
			a.update(params, grads, mBuf, vBuf, c1, c2)
			return
		}
		parallelFor(fanOut(workers), len(params), func(_, lo, hi int) {
			a.update(params[lo:hi], grads[lo:hi], mBuf[lo:hi], vBuf[lo:hi], c1, c2)
		})
	})
	if ti != len(a.m) {
		panic("nn: Adam state bound to a different architecture")
	}
}

// StepVec applies one Adam update to the flat parameter vector x from its
// gradient g (at least as long as x), then clears g: Step's rule on a
// single tensor, without fan-out. The first StepVec binds the optimizer to
// len(x); a later StepVec of another length, or a Step, panics.
func (a *Adam) StepVec(x, g []float64) {
	c1, c2 := a.tick()
	if a.m == nil {
		a.m = [][]float64{make([]float64, len(x))}
		a.v = [][]float64{make([]float64, len(x))}
	}
	if len(a.m) != 1 || len(a.m[0]) != len(x) {
		panic("nn: Adam state bound to a different architecture")
	}
	a.update(x, g, a.m[0], a.v[0], c1, c2)
}

// tick advances the step count and returns the step's bias corrections
// 1−β₁ᵗ and 1−β₂ᵗ.
func (a *Adam) tick() (c1, c2 float64) {
	a.t++
	return 1 - math.Pow(a.Beta1, float64(a.t)), 1 - math.Pow(a.Beta2, float64(a.t))
}

// update is the Adam rule over one run of parameters, zeroing each
// gradient once read; c1, c2 are the step's bias corrections. A parameter
// whose g, m and v are all +0 is passed over: the rule would store +0 back
// to all three and subtract lr·(+0/c1)/(√(+0/c2)+ε) = +0 from p, which
// leaves every p — −0 included — as it was. Any other bit pattern (g = −0,
// a denormal moment, a unit that just woke) takes the rule (DESIGN.md §10).
// With AVX2 the whole 4-groups run in assembly, one parameter a lane, and
// updateGo takes the remainder.
func (a *Adam) update(params, grads, mBuf, vBuf []float64, c1, c2 float64) {
	if useAVX2 {
		n := len(params)
		grads, mBuf, vBuf = grads[:n], mBuf[:n], vBuf[:n]
		adamAVX2(params, grads, mBuf, vBuf, a.Beta1, 1-a.Beta1, a.Beta2, 1-a.Beta2, c1, c2, a.LR, a.Epsilon)
		k := n &^ 3
		params, grads, mBuf, vBuf = params[k:], grads[k:], mBuf[k:], vBuf[k:]
	}
	a.updateGo(params, grads, mBuf, vBuf, c1, c2)
}

// updateGo is update in Go, one parameter at a time.
func (a *Adam) updateGo(params, grads, mBuf, vBuf []float64, c1, c2 float64) {
	n := len(params)
	grads = grads[:n]
	mBuf = mBuf[:n]
	vBuf = vBuf[:n]
	for i := range params {
		g := grads[i]
		if math.Float64bits(g)|math.Float64bits(mBuf[i])|math.Float64bits(vBuf[i]) == 0 {
			continue
		}
		grads[i] = 0
		mBuf[i] = a.Beta1*mBuf[i] + (1-a.Beta1)*g
		vBuf[i] = a.Beta2*vBuf[i] + (1-a.Beta2)*g*g
		mh := mBuf[i] / c1
		vh := vBuf[i] / c2
		params[i] -= a.LR * mh / (math.Sqrt(vh) + a.Epsilon)
	}
}
