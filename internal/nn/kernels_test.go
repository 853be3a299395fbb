package nn

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// TestSIMDKernelsBitwise holds the AVX2 bodies of dot2x4, axpy, axpy2 and
// Adam's update, reached through the dispatchers, against the Go bodies
// they replace, over every length 0–70: every remainder of the 4-groups,
// and n < 4, which never enters assembly. Inputs mix ±0, denormals, values
// near ±1e±300 and ±Inf into normal ones, and every result must carry the
// same bits, except that a NaN need only be a NaN on both sides. The Adam
// cases include groups that mix dead (g, m, v all +0) and live lanes, and
// hyperparameters under which computing a dead lane would not be the
// identity. Beyond this pairing, TestForwardKernelsMatchDot and
// figret's TestBatchedMatchesSequentialTrajectory hold the dispatched
// dot2x4 — assembly on an AVX2 CPU — against the scalar dot and dot1x4
// with no further work.
func TestSIMDKernelsBitwise(t *testing.T) {
	if !useAVX2 {
		t.Skip("no AVX2 on this CPU: only the Go kernels run")
	}
	rng := rand.New(rand.NewSource(27))
	specials := []float64{
		0, math.Copysign(0, -1),
		math.SmallestNonzeroFloat64, -3e-310, 2.5e-308,
		1e300, -1e300, 1e-300, -1e-300,
		math.Inf(1), math.Inf(-1),
	}
	// vec draws standard normals, a fraction wild of them replaced by a
	// special value.
	vec := func(n int, wild float64) []float64 {
		v := make([]float64, n)
		for i := range v {
			if rng.Float64() < wild {
				v[i] = specials[rng.Intn(len(specials))]
			} else {
				v[i] = rng.NormFloat64()
			}
		}
		return v
	}
	same := func(label string, n int, got, want []float64) {
		t.Helper()
		for i := range got {
			g, w := got[i], want[i]
			if math.Float64bits(g) != math.Float64bits(w) && !(math.IsNaN(g) && math.IsNaN(w)) {
				t.Fatalf("%s, n=%d: [%d] = %v (%#x), Go body gives %v (%#x)",
					label, n, i, g, math.Float64bits(g), w, math.Float64bits(w))
			}
		}
	}
	scalar := func() float64 { return vec(1, 0.3)[0] }

	for n := 0; n <= 70; n++ {
		for _, wild := range []float64{0, 0.1, 0.5} {
			label := fmt.Sprintf("wild=%v", wild)

			x0, x1 := vec(n, wild), vec(n, wild)
			w0, w1, w2, w3 := vec(n, wild), vec(n, wild), vec(n, wild), vec(n, wild)
			var got, want [8]float64
			got[0], got[1], got[2], got[3], got[4], got[5], got[6], got[7] = dot2x4(x0, x1, w0, w1, w2, w3)
			dot2x4Go(x0, x1, w0, w1, w2, w3, 0, &want)
			same("dot2x4 "+label, n, got[:], want[:])

			src, u, v := vec(n, wild), vec(n, wild), vec(n, wild)
			a, b := scalar(), scalar()
			dst := vec(n, wild)
			ref := append([]float64(nil), dst...)
			axpy(dst, src, a)
			axpyGo(ref, src, a)
			same("axpy "+label, n, dst, ref)
			axpy2(dst, u, v, a, b)
			axpy2Go(ref, u, v, a, b)
			same("axpy2 "+label, n, dst, ref)
		}

		for _, opt := range []*Adam{
			NewAdam(3e-3),
			{LR: 0.5, Beta1: 0.5, Beta2: 0.25, Epsilon: 0},
			{LR: math.Inf(1), Beta1: -0.5, Beta2: 1.5, Epsilon: -1e-8},
			{LR: 1e-3, Beta1: math.NaN(), Beta2: 0.999, Epsilon: 1e-8},
		} {
			for _, wild := range []float64{0, 0.2} {
				label := fmt.Sprintf("Adam lr=%v β₁=%v β₂=%v ε=%v wild=%v", opt.LR, opt.Beta1, opt.Beta2, opt.Epsilon, wild)
				p, gr, m, v := vec(n, wild), vec(n, wild), vec(n, wild), vec(n, wild)
				for i := range p {
					if rng.Intn(3) == 0 { // a dead parameter
						gr[i], m[i], v[i] = 0, 0, 0
					}
				}
				bufs := [][]float64{p, gr, m, v}
				refs := make([][]float64, len(bufs))
				for i, buf := range bufs {
					refs[i] = append([]float64(nil), buf...)
				}
				c1, c2 := 1-math.Pow(0.9, 3), 1-math.Pow(0.999, 3)
				opt.update(p, gr, m, v, c1, c2)
				opt.updateGo(refs[0], refs[1], refs[2], refs[3], c1, c2)
				for i, name := range []string{"param", "gradient", "m", "v"} {
					same(label+" "+name, n, bufs[i], refs[i])
				}
			}
		}
	}
}
