#include "textflag.h"

// Four-lane AVX2 bodies of the training kernels (DESIGN.md §3). Each one
// covers the whole 4-groups of its operands and leaves the remainder to
// the Go body. Every lane performs the Go body's operations on the same
// operands in the same order, as separate VMULPD / VADDPD / VSUBPD /
// VDIVPD / VSQRTPD, each correctly rounded: there is no fused
// multiply-add, which rounds once and would change bits.

// func cpuid(leaf, subleaf uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL subleaf+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET

// func dot2x4AVX2(x0, x1, w0, w1, w2, w3 []float64, s *[8]float64)
//
// Lane k of Y0 is s0k = x0·wk and lane k of Y1 is s1k = x1·wk. Per group
// of four columns the 4×4 block of W is transposed in registers, so that
// Y6..Y9 hold column i..i+3 of the four weight rows; each lane then forms
// ((wk[i]·x[i] + wk[i+1]·x[i+1]) + wk[i+2]·x[i+2]) + wk[i+3]·x[i+3] and
// adds it to its accumulator: dot()'s grouping.
TEXT ·dot2x4AVX2(SB), NOSPLIT, $0-152
	MOVQ x0_base+0(FP), SI
	MOVQ x0_len+8(FP), CX
	MOVQ x1_base+24(FP), DI
	MOVQ w0_base+48(FP), R8
	MOVQ w1_base+72(FP), R9
	MOVQ w2_base+96(FP), R10
	MOVQ w3_base+120(FP), R11
	SHLQ $3, CX
	ANDQ $-32, CX
	XORQ AX, AX
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	TESTQ CX, CX
	JEQ dot2x4done

dot2x4loop:
	VMOVUPD (R8)(AX*1), X2
	VINSERTF128 $1, (R10)(AX*1), Y2, Y2     // w0[i] w0[i+1] w2[i] w2[i+1]
	VMOVUPD (R9)(AX*1), X3
	VINSERTF128 $1, (R11)(AX*1), Y3, Y3     // w1[i] w1[i+1] w3[i] w3[i+1]
	VMOVUPD 16(R8)(AX*1), X4
	VINSERTF128 $1, 16(R10)(AX*1), Y4, Y4   // w0[i+2] w0[i+3] w2[i+2] w2[i+3]
	VMOVUPD 16(R9)(AX*1), X5
	VINSERTF128 $1, 16(R11)(AX*1), Y5, Y5   // w1[i+2] w1[i+3] w3[i+2] w3[i+3]
	VUNPCKLPD Y3, Y2, Y6                    // column i
	VUNPCKHPD Y3, Y2, Y7                    // column i+1
	VUNPCKLPD Y5, Y4, Y8                    // column i+2
	VUNPCKHPD Y5, Y4, Y9                    // column i+3

	VBROADCASTSD (SI)(AX*1), Y10
	VMULPD Y10, Y6, Y10
	VBROADCASTSD 8(SI)(AX*1), Y11
	VMULPD Y11, Y7, Y11
	VADDPD Y11, Y10, Y10
	VBROADCASTSD 16(SI)(AX*1), Y11
	VMULPD Y11, Y8, Y11
	VADDPD Y11, Y10, Y10
	VBROADCASTSD 24(SI)(AX*1), Y11
	VMULPD Y11, Y9, Y11
	VADDPD Y11, Y10, Y10
	VADDPD Y10, Y0, Y0

	VBROADCASTSD (DI)(AX*1), Y12
	VMULPD Y12, Y6, Y12
	VBROADCASTSD 8(DI)(AX*1), Y13
	VMULPD Y13, Y7, Y13
	VADDPD Y13, Y12, Y12
	VBROADCASTSD 16(DI)(AX*1), Y13
	VMULPD Y13, Y8, Y13
	VADDPD Y13, Y12, Y12
	VBROADCASTSD 24(DI)(AX*1), Y13
	VMULPD Y13, Y9, Y13
	VADDPD Y13, Y12, Y12
	VADDPD Y12, Y1, Y1

	ADDQ $32, AX
	CMPQ AX, CX
	JB dot2x4loop

dot2x4done:
	MOVQ s+144(FP), DX
	VMOVUPD Y0, (DX)
	VMOVUPD Y1, 32(DX)
	VZEROUPPER
	RET

// func axpyAVX2(dst, src []float64, a float64)
//
// dst[i] = dst[i] + a·src[i], one element a lane.
TEXT ·axpyAVX2(SB), NOSPLIT, $0-56
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ src_base+24(FP), SI
	VBROADCASTSD a+48(FP), Y0
	SHLQ $3, CX
	ANDQ $-32, CX
	XORQ AX, AX
	TESTQ CX, CX
	JEQ axpydone

axpyloop:
	VMULPD (SI)(AX*1), Y0, Y1
	VADDPD (DI)(AX*1), Y1, Y1
	VMOVUPD Y1, (DI)(AX*1)
	ADDQ $32, AX
	CMPQ AX, CX
	JB axpyloop

axpydone:
	VZEROUPPER
	RET

// func axpy2AVX2(dst, u, v []float64, a, b float64)
//
// t = dst[i] + a·u[i]; dst[i] = t + b·v[i], one element a lane.
TEXT ·axpy2AVX2(SB), NOSPLIT, $0-88
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ u_base+24(FP), SI
	MOVQ v_base+48(FP), DX
	VBROADCASTSD a+72(FP), Y0
	VBROADCASTSD b+80(FP), Y1
	SHLQ $3, CX
	ANDQ $-32, CX
	XORQ AX, AX
	TESTQ CX, CX
	JEQ axpy2done

axpy2loop:
	VMULPD (SI)(AX*1), Y0, Y2
	VADDPD (DI)(AX*1), Y2, Y2
	VMULPD (DX)(AX*1), Y1, Y3
	VADDPD Y3, Y2, Y2
	VMOVUPD Y2, (DI)(AX*1)
	ADDQ $32, AX
	CMPQ AX, CX
	JB axpy2loop

axpy2done:
	VZEROUPPER
	RET

// func adamAVX2(p, gr, m, v []float64, b1, b1c, b2, b2c, c1, c2, lr, eps float64)
//
// One parameter a lane, in the Go body's order:
//   g = 0; m = β₁m + (1−β₁)g; v = β₂v + ((1−β₂)g)g;
//   p = p − (lr·(m/c₁)) / (√(v/c₂) + ε).
// A group whose twelve g, m, v words are all zero bits is skipped. In a
// mixed group the lanes whose g, m, v are all +0 are computed too, and
// then their m, v and p are put back (m and v to +0, p to its old bits),
// so a dead lane is untouched for any hyperparameters, as in the Go body.
TEXT ·adamAVX2(SB), NOSPLIT, $0-160
	MOVQ p_base+0(FP), DI
	MOVQ p_len+8(FP), CX
	MOVQ gr_base+24(FP), SI
	MOVQ m_base+48(FP), R8
	MOVQ v_base+72(FP), R9
	VBROADCASTSD b1+96(FP), Y8
	VBROADCASTSD b1c+104(FP), Y9
	VBROADCASTSD b2+112(FP), Y11
	VBROADCASTSD b2c+120(FP), Y12
	VBROADCASTSD c1+128(FP), Y13
	VBROADCASTSD c2+136(FP), Y14
	VBROADCASTSD lr+144(FP), Y0
	VBROADCASTSD eps+152(FP), Y1
	VXORPD Y15, Y15, Y15
	SHLQ $3, CX
	ANDQ $-32, CX
	XORQ AX, AX
	TESTQ CX, CX
	JEQ adamdone

adamloop:
	VMOVUPD (SI)(AX*1), Y4           // g
	VMOVUPD (R8)(AX*1), Y5           // m
	VMOVUPD (R9)(AX*1), Y6           // v
	VORPD Y5, Y4, Y7
	VORPD Y6, Y7, Y7
	VPTEST Y7, Y7
	JEQ adamnext                     // all twelve words +0
	VPCMPEQQ Y15, Y7, Y7             // dead-lane mask
	VMOVUPD Y15, (SI)(AX*1)          // g = +0

	VMULPD Y5, Y8, Y5                // β₁m
	VMULPD Y4, Y9, Y2                // (1−β₁)g
	VADDPD Y2, Y5, Y5
	VMULPD Y6, Y11, Y6               // β₂v
	VMULPD Y4, Y12, Y2               // (1−β₂)g
	VMULPD Y4, Y2, Y2                // ((1−β₂)g)g
	VADDPD Y2, Y6, Y6
	VANDNPD Y5, Y7, Y5               // dead lanes back to +0
	VANDNPD Y6, Y7, Y6
	VMOVUPD Y5, (R8)(AX*1)
	VMOVUPD Y6, (R9)(AX*1)

	VDIVPD Y13, Y5, Y5               // m/c₁
	VDIVPD Y14, Y6, Y6               // v/c₂
	VSQRTPD Y6, Y6
	VADDPD Y1, Y6, Y6                // √(v/c₂) + ε
	VMULPD Y5, Y0, Y5                // lr·(m/c₁)
	VDIVPD Y6, Y5, Y5
	VMOVUPD (DI)(AX*1), Y3           // p
	VSUBPD Y5, Y3, Y5
	VBLENDVPD Y7, Y3, Y5, Y5         // dead lanes keep p
	VMOVUPD Y5, (DI)(AX*1)

adamnext:
	ADDQ $32, AX
	CMPQ AX, CX
	JB adamloop

adamdone:
	VZEROUPPER
	RET
