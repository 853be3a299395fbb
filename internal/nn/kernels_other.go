//go:build !amd64

package nn

// Off amd64 there is no assembly: every kernel runs its Go body, and these
// stubs exist only so the dispatchers compile.
const (
	useAVX2   = false
	useExpFMA = false
)

// useAVX512 is a var, as on amd64, only so that the tests compile.
var useAVX512 = false

func dot2x8AVX2(x []float64, ld int, w0, w1 []float64, s0, s1 *[8]float64) {
	panic("nn: no assembly kernels")
}

func dot2x16AVX512(x []float64, ld int, w0, w1 []float64, s0, s1 *[16]float64) {
	panic("nn: no assembly kernels")
}

func dotRows8AVX512(s, w, x []float64) { panic("nn: no assembly kernels") }

func dotRows4AVX2(s, w, x []float64) { panic("nn: no assembly kernels") }

func gradRowsAVX2(dst, x []float64, off []int, g []float64) { panic("nn: no assembly kernels") }

func axpyAVX2(dst, src []float64, a float64) { panic("nn: no assembly kernels") }

func axpy2AVX2(dst, u, v []float64, a, b float64) { panic("nn: no assembly kernels") }

func adamAVX2(p, gr, m, v []float64, b1, b1c, b2, b2c, c1, c2, lr, eps float64) {
	panic("nn: no assembly kernels")
}

func expAVX2(dst, src []float64) int { panic("nn: no assembly kernels") }

func quadSumAVX2(out, x []float64, ids, start []int32) { panic("nn: no assembly kernels") }

func quadScaledSumAVX2(out, x, scale []float64, ids, start []int32) {
	panic("nn: no assembly kernels")
}

func quadDotAVX2(out, x, y []float64, ids, start []int32) { panic("nn: no assembly kernels") }

func quadMaxAVX2(out, x []float64, ids, start []int32) { panic("nn: no assembly kernels") }

func subAtAVX2(dst, x, v []float64, at []int32) { panic("nn: no assembly kernels") }

func mulAtAVX2(dst, v []float64, at []int32) { panic("nn: no assembly kernels") }

func chainAtAVX2(dst, r, g, v []float64, at []int32) { panic("nn: no assembly kernels") }
