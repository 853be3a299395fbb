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
// (β1=0.9, β2=0.999, ε=1e-8) and the given learning rate.
func NewAdam(lr float64) *Adam {
	if lr <= 0 {
		panic(fmt.Sprintf("nn: learning rate %v must be positive", lr))
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
	a.t++
	c1 := 1 - math.Pow(a.Beta1, float64(a.t))
	c2 := 1 - math.Pow(a.Beta2, float64(a.t))
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
		parallelFor(fanOut(workers), len(params), func(lo, hi int) {
			a.update(params[lo:hi], grads[lo:hi], mBuf[lo:hi], vBuf[lo:hi], c1, c2)
		})
	})
	if ti != len(a.m) {
		panic("nn: Adam state bound to a different architecture")
	}
}

// update is the Adam rule over one run of parameters, zeroing each
// gradient once read; c1, c2 are the step's bias corrections.
func (a *Adam) update(params, grads, mBuf, vBuf []float64, c1, c2 float64) {
	n := len(params)
	grads = grads[:n]
	mBuf = mBuf[:n]
	vBuf = vBuf[:n]
	for i := range params {
		g := grads[i]
		grads[i] = 0
		mBuf[i] = a.Beta1*mBuf[i] + (1-a.Beta1)*g
		vBuf[i] = a.Beta2*vBuf[i] + (1-a.Beta2)*g*g
		mh := mBuf[i] / c1
		vh := vBuf[i] / c2
		params[i] -= a.LR * mh / (math.Sqrt(vh) + a.Epsilon)
	}
}

// SGD is a plain stochastic-gradient-descent optimizer, provided as a
// baseline for the optimizer ablation.
type SGD struct {
	LR float64
}

// Step applies one SGD update and clears gradients.
func (s SGD) Step(net *MLP) {
	net.VisitParams(func(params, grads []float64) {
		for i := range params {
			params[i] -= s.LR * grads[i]
		}
	})
	net.ZeroGrads()
}
