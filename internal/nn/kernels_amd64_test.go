package nn

import (
	"math"
	"math/rand"
	"testing"
)

// TestExpKernelMatchesFusedBranch holds expAVX2, called directly, against
// archExpFMA on any CPU with AVX2 and FMA, whichever branch math.Exp takes
// there, and requires ExpInto to dispatch to the kernel whenever math.Exp
// is that branch. A kernel that broke would otherwise only fail the
// init-time probe and quietly leave ExpInto on math.Exp.
func TestExpKernelMatchesFusedBranch(t *testing.T) {
	if !useAVX2 || !hasFMA() {
		t.Skip("no AVX2 and FMA on this CPU: ExpInto runs math.Exp only")
	}
	rng := rand.New(rand.NewSource(30))
	x := make([]float64, 4096)
	for i := range x {
		x[i] = 708 * (2*rng.Float64() - 1)
	}
	for i, v := range expSpecials {
		if k := math.RoundToEven(v * math.Log2E); k >= -1022 && k <= 1023 {
			x[i] = v
		}
	}
	y := make([]float64, len(x))
	if n := expAVX2(y, x); n != len(x) {
		t.Fatalf("expAVX2 stopped at %d of %d, all in range", n, len(x))
	}
	fused := true
	for i, v := range x {
		want := archExpFMA(v)
		if math.Float64bits(y[i]) != math.Float64bits(want) {
			t.Fatalf("expAVX2(%v) = %#x, archExp's FMA branch gives %#x", v, math.Float64bits(y[i]), math.Float64bits(want))
		}
		fused = fused && math.Float64bits(math.Exp(v)) == math.Float64bits(want)
	}
	if fused != useExpFMA {
		t.Fatalf("math.Exp takes the FMA branch: %v, but useExpFMA = %v", fused, useExpFMA)
	}
}

// archExpFMA is the FMA branch of Go's math.archExp (exp_amd64.s) written
// with math.FMA, for arguments whose k = round(x·log₂e) lies in
// [−1022, 1023]: the path expAVX2 runs.
func archExpFMA(x float64) float64 {
	const (
		ln2U = 0.69314718055966295651160180568695068359375
		ln2L = 0.28235290563031577122588448175013436025525412068e-12
	)
	k := math.RoundToEven(math.Log2E * x)
	r := math.FMA(-k, ln2U, x)
	r = math.FMA(-k, ln2L, r)
	r *= 0.0625
	p := 2.4801587301587301587e-5
	for _, c := range []float64{
		1.9841269841269841270e-4, 1.3888888888888888889e-3, 8.3333333333333333333e-3,
		4.1666666666666666667e-2, 1.6666666666666666667e-1, 0.5, 1,
	} {
		p = math.FMA(p, r, c)
	}
	r *= p
	for range 3 {
		r *= r + 2
	}
	r = math.FMA(r+2, r, 1)
	return r * math.Float64frombits(uint64(int64(k)+1023)<<52)
}
