package nn

import "math"

// useAVX2 selects the four-lane assembly bodies of dot2x8, dotRows,
// gradRows, axpy, axpy2, Adam's update and the gathers of gather.go
// (kernels_amd64.s). It is decided once, from CPUID and XGETBV alone: the
// CPU must report AVX and AVX2, and the OS must save the YMM registers
// across context switches. Without it every kernel runs its Go body,
// which the assembly matches bit for bit (DESIGN.md §3).
var useAVX2 = hasAVX2()

func hasAVX2() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	const osxsave, avx, avx2 = 1 << 27, 1 << 28, 1 << 5
	if _, _, ecx, _ := cpuid(1, 0); ecx&osxsave == 0 || ecx&avx == 0 {
		return false
	}
	if xcr0, _ := xgetbv(); xcr0&6 != 6 { // XMM and YMM state enabled
		return false
	}
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&avx2 != 0
}

// useAVX512 selects the 512-bit bodies: dot2x16's, which forwardCols runs
// on each whole sixteen-lane group of a pass, and dotRows8AVX512, which a
// batch-1 pass runs on each whole eight-row group. It is decided as
// useAVX2 is: the CPU must report AVX-512F (CPUID.7:EBX bit 16), and the
// OS must save the opmask and all 512 bits of the 32 vector registers
// (XCR0 bits 1, 2 and 5–7). A var, not a const, so that the tests can switch it off and cover
// the AVX2 path on the same CPU.
var useAVX512 = useAVX2 && hasAVX512()

func hasAVX512() bool {
	const avx512f = 1 << 16
	if xcr0, _ := xgetbv(); xcr0&0xe6 != 0xe6 {
		return false
	}
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&avx512f != 0
}

// useExpFMA selects ExpInto's assembly body. It is expAVX2's bit-for-bit
// contract with math.Exp: math's amd64 exponential fuses its multiply-adds
// exactly when the CPU has AVX and FMA (CPUID.1:ECX bit 12), and expAVX2
// runs that fused branch. GODEBUG=cpu.fma=off or cpu.avx=off sends math to
// its unfused branch instead, so the kernel must also reproduce math.Exp
// on four inputs where the two branches round differently.
var useExpFMA = useAVX2 && hasFMA() && expAgreesWithMath()

func hasFMA() bool {
	const fma = 1 << 12
	_, _, ecx, _ := cpuid(1, 0)
	return ecx&fma != 0
}

func expAgreesWithMath() bool {
	x := []float64{44.05090880450124, 16.456005321849045, -28.57361274176251, -11.9342810700314}
	var y [4]float64
	if expAVX2(y[:], x) != len(x) {
		return false
	}
	for i := range x {
		if math.Float64bits(y[i]) != math.Float64bits(math.Exp(x[i])) {
			return false
		}
	}
	return true
}

func cpuid(leaf, subleaf uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)

// dot2x8AVX2 runs dot2x8 over the first len(w0)&^3 columns, continuing
// the accumulators in s0 and s1. len(w1) >= len(w0), and x holds at least
// (len(w0)-1)·ld + 8 elements.
//
//go:noescape
func dot2x8AVX2(x []float64, ld int, w0, w1 []float64, s0, s1 *[8]float64)

// dot2x16AVX512 runs dot2x16 over the first len(w0)&^3 columns,
// continuing the accumulators in s0 and s1. len(w1) >= len(w0), and x
// holds at least (len(w0)-1)·ld + 16 elements.
//
//go:noescape
func dot2x16AVX512(x []float64, ld int, w0, w1 []float64, s0, s1 *[16]float64)

// dotRows8AVX512 runs dotRows over the first len(x)&^3 columns of every
// row: s[r] = the row's sum over its whole 4-groups, from +0. len(s) is a
// multiple of 8, and w holds at least len(s)·len(x) elements.
//
//go:noescape
func dotRows8AVX512(s, w, x []float64)

// dotRows4AVX2 is dotRows8AVX512 four rows a pass: len(s) is a multiple
// of 4.
//
//go:noescape
func dotRows4AVX2(s, w, x []float64)

// gradRowsAVX2 runs gradRows over the first len(dst)&^3 elements; len(g)
// = len(off) and every x[off[k]:] holds len(dst) elements.
//
//go:noescape
func gradRowsAVX2(dst, x []float64, off []int, g []float64)

// axpyAVX2 runs axpy over the first len(dst)&^3 elements; len(src) >= len(dst).
//
//go:noescape
func axpyAVX2(dst, src []float64, a float64)

// axpy2AVX2 runs axpy2 over the first len(dst)&^3 elements; u and v are at
// least as long as dst.
//
//go:noescape
func axpy2AVX2(dst, u, v []float64, a, b float64)

// adamAVX2 runs Adam's update over the first len(p)&^3 parameters; gr, m
// and v are at least as long as p. b1c and b2c are 1−β₁ and 1−β₂ as the Go
// body computes them.
//
//go:noescape
func adamAVX2(p, gr, m, v []float64, b1, b1c, b2, b2c, c1, c2, lr, eps float64)

// expAVX2 runs ExpInto over whole 4-groups of dst, stopping before the
// first group with a lane outside math.Exp's common path, and returns the
// number of elements it finished; len(src) >= len(dst).
//
//go:noescape
func expAVX2(dst, src []float64) int

// The incidence-walk kernels of gather.go. Each Quad kernel covers every
// quad of (ids, start); each At kernel covers the first len(dst)&^3
// elements, and its other operands are at least as long as dst.

//go:noescape
func quadSumAVX2(out, x []float64, ids, start []int32)

//go:noescape
func quadScaledSumAVX2(out, x, scale []float64, ids, start []int32)

//go:noescape
func quadDotAVX2(out, x, y []float64, ids, start []int32)

//go:noescape
func quadMaxAVX2(out, x []float64, ids, start []int32)

//go:noescape
func subAtAVX2(dst, x, v []float64, at []int32)

//go:noescape
func mulAtAVX2(dst, v []float64, at []int32)

//go:noescape
func chainAtAVX2(dst, r, g, v []float64, at []int32)
