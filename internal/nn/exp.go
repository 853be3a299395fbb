package nn

import "math"

// ExpInto sets dst[i] = math.Exp(src[i]) for every i < len(dst), bit for
// bit; src must be at least as long as dst. dst may be src, but must not
// otherwise overlap it. Where math.Exp takes its fused-multiply-add branch
// (useExpFMA), whole 4-groups run in assembly, one element a lane; a group
// with a lane off the common path (underflow, a denormal or overflowing
// result, ±Inf, NaN) and the remainder go through math.Exp itself.
func ExpInto(dst, src []float64) { expInto(dst, src, useExpFMA) }

// expInto is ExpInto with the dispatch made explicit, so that tests reach
// the math.Exp-only path on any CPU.
func expInto(dst, src []float64, kernel bool) {
	src = src[:len(dst)]
	for kernel && len(dst) >= 4 {
		n := expAVX2(dst, src)
		dst, src = dst[n:], src[n:]
		if len(dst) < 4 {
			break
		}
		for i := range 4 { // the group the kernel stopped at
			dst[i] = math.Exp(src[i])
		}
		dst, src = dst[4:], src[4:]
	}
	for i := range dst {
		dst[i] = math.Exp(src[i])
	}
}
