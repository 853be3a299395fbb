#include "textflag.h"

// Four-lane AVX2 bodies of the forward and training kernels, of ExpInto
// (DESIGN.md §3) and of the solver's gathers (§4), and AVX-512 bodies of
// the two forward kernels. Each one covers the whole 4-groups (or quads)
// of its operands and leaves the remainder to the Go side. Every lane of
// a forward or training kernel or of a gather performs the Go body's
// operations on the same operands in the same order, as separate
// VMULPD / VADDPD / VSUBPD / VDIVPD / VSQRTPD, each correctly rounded:
// there is no fused multiply-add, which rounds once and would change bits.
// expAVX2 fuses exactly where math.archExp does.

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

// func dot2x8AVX2(x []float64, ld int, w0, w1 []float64, s0, s1 *[8]float64)
//
// The lanes are batch rows: Y0/Y1 hold s0[0..3]/s0[4..7], Y2/Y3 hold
// s1[0..3]/s1[4..7]. Per column the eight lanes of x are loaded (Y4, Y5)
// and w0[i], w1[i] broadcast (Y6, Y7). Per group of four columns each lane
// forms T = w₀x₀, T += w₁x₁, T += w₂x₂, T += w₃x₃ in Y8..Y11 and adds it
// to its accumulator: dot()'s grouping. SI walks x one column (ld·8
// bytes) at a time.
TEXT ·dot2x8AVX2(SB), NOSPLIT, $0-96
	MOVQ x_base+0(FP), SI
	MOVQ ld+24(FP), DX
	MOVQ w0_base+32(FP), R8
	MOVQ w0_len+40(FP), CX
	MOVQ w1_base+56(FP), R9
	MOVQ s0+80(FP), DI
	MOVQ s1+88(FP), BX
	SHLQ $3, DX
	SHLQ $3, CX
	ANDQ $-32, CX
	VMOVUPD (DI), Y0
	VMOVUPD 32(DI), Y1
	VMOVUPD (BX), Y2
	VMOVUPD 32(BX), Y3
	XORQ AX, AX
	TESTQ CX, CX
	JEQ dot2x8done

dot2x8loop:
	VMOVUPD (SI), Y4
	VMOVUPD 32(SI), Y5
	VBROADCASTSD (R8)(AX*1), Y6
	VBROADCASTSD (R9)(AX*1), Y7
	VMULPD Y4, Y6, Y8
	VMULPD Y5, Y6, Y9
	VMULPD Y4, Y7, Y10
	VMULPD Y5, Y7, Y11
	ADDQ DX, SI
	VMOVUPD (SI), Y4
	VMOVUPD 32(SI), Y5
	VBROADCASTSD 8(R8)(AX*1), Y6
	VBROADCASTSD 8(R9)(AX*1), Y7
	VMULPD Y4, Y6, Y12
	VADDPD Y12, Y8, Y8
	VMULPD Y5, Y6, Y13
	VADDPD Y13, Y9, Y9
	VMULPD Y4, Y7, Y14
	VADDPD Y14, Y10, Y10
	VMULPD Y5, Y7, Y15
	VADDPD Y15, Y11, Y11
	ADDQ DX, SI
	VMOVUPD (SI), Y4
	VMOVUPD 32(SI), Y5
	VBROADCASTSD 16(R8)(AX*1), Y6
	VBROADCASTSD 16(R9)(AX*1), Y7
	VMULPD Y4, Y6, Y12
	VADDPD Y12, Y8, Y8
	VMULPD Y5, Y6, Y13
	VADDPD Y13, Y9, Y9
	VMULPD Y4, Y7, Y14
	VADDPD Y14, Y10, Y10
	VMULPD Y5, Y7, Y15
	VADDPD Y15, Y11, Y11
	ADDQ DX, SI
	VMOVUPD (SI), Y4
	VMOVUPD 32(SI), Y5
	VBROADCASTSD 24(R8)(AX*1), Y6
	VBROADCASTSD 24(R9)(AX*1), Y7
	VMULPD Y4, Y6, Y12
	VADDPD Y12, Y8, Y8
	VMULPD Y5, Y6, Y13
	VADDPD Y13, Y9, Y9
	VMULPD Y4, Y7, Y14
	VADDPD Y14, Y10, Y10
	VMULPD Y5, Y7, Y15
	VADDPD Y15, Y11, Y11
	ADDQ DX, SI
	VADDPD Y8, Y0, Y0
	VADDPD Y9, Y1, Y1
	VADDPD Y10, Y2, Y2
	VADDPD Y11, Y3, Y3
	ADDQ $32, AX
	CMPQ AX, CX
	JB dot2x8loop

dot2x8done:
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, (BX)
	VMOVUPD Y3, 32(BX)
	VZEROUPPER
	RET

// func dot2x16AVX512(x []float64, ld int, w0, w1 []float64, s0, s1 *[16]float64)
//
// dot2x8AVX2 at twice the width: Z0/Z1 hold s0[0..7]/s0[8..15], Z2/Z3
// hold s1[0..7]/s1[8..15], and per column the sixteen lanes of x are
// loaded (Z4, Z5) and w0[i], w1[i] broadcast (Z6, Z7). Each lane performs
// dot2x8AVX2's operations in its order.
TEXT ·dot2x16AVX512(SB), NOSPLIT, $0-96
	MOVQ x_base+0(FP), SI
	MOVQ ld+24(FP), DX
	MOVQ w0_base+32(FP), R8
	MOVQ w0_len+40(FP), CX
	MOVQ w1_base+56(FP), R9
	MOVQ s0+80(FP), DI
	MOVQ s1+88(FP), BX
	SHLQ $3, DX
	SHLQ $3, CX
	ANDQ $-32, CX
	VMOVUPD (DI), Z0
	VMOVUPD 64(DI), Z1
	VMOVUPD (BX), Z2
	VMOVUPD 64(BX), Z3
	XORQ AX, AX
	TESTQ CX, CX
	JEQ dot2x16done

dot2x16loop:
	VMOVUPD (SI), Z4
	VMOVUPD 64(SI), Z5
	VBROADCASTSD (R8)(AX*1), Z6
	VBROADCASTSD (R9)(AX*1), Z7
	VMULPD Z4, Z6, Z8
	VMULPD Z5, Z6, Z9
	VMULPD Z4, Z7, Z10
	VMULPD Z5, Z7, Z11
	ADDQ DX, SI
	VMOVUPD (SI), Z4
	VMOVUPD 64(SI), Z5
	VBROADCASTSD 8(R8)(AX*1), Z6
	VBROADCASTSD 8(R9)(AX*1), Z7
	VMULPD Z4, Z6, Z12
	VADDPD Z12, Z8, Z8
	VMULPD Z5, Z6, Z13
	VADDPD Z13, Z9, Z9
	VMULPD Z4, Z7, Z14
	VADDPD Z14, Z10, Z10
	VMULPD Z5, Z7, Z15
	VADDPD Z15, Z11, Z11
	ADDQ DX, SI
	VMOVUPD (SI), Z4
	VMOVUPD 64(SI), Z5
	VBROADCASTSD 16(R8)(AX*1), Z6
	VBROADCASTSD 16(R9)(AX*1), Z7
	VMULPD Z4, Z6, Z12
	VADDPD Z12, Z8, Z8
	VMULPD Z5, Z6, Z13
	VADDPD Z13, Z9, Z9
	VMULPD Z4, Z7, Z14
	VADDPD Z14, Z10, Z10
	VMULPD Z5, Z7, Z15
	VADDPD Z15, Z11, Z11
	ADDQ DX, SI
	VMOVUPD (SI), Z4
	VMOVUPD 64(SI), Z5
	VBROADCASTSD 24(R8)(AX*1), Z6
	VBROADCASTSD 24(R9)(AX*1), Z7
	VMULPD Z4, Z6, Z12
	VADDPD Z12, Z8, Z8
	VMULPD Z5, Z6, Z13
	VADDPD Z13, Z9, Z9
	VMULPD Z4, Z7, Z14
	VADDPD Z14, Z10, Z10
	VMULPD Z5, Z7, Z15
	VADDPD Z15, Z11, Z11
	ADDQ DX, SI
	VADDPD Z8, Z0, Z0
	VADDPD Z9, Z1, Z1
	VADDPD Z10, Z2, Z2
	VADDPD Z11, Z3, Z3
	ADDQ $32, AX
	CMPQ AX, CX
	JB dot2x16loop

dot2x16done:
	VMOVUPD Z0, (DI)
	VMOVUPD Z1, 64(DI)
	VMOVUPD Z2, (BX)
	VMOVUPD Z3, 64(BX)
	VZEROUPPER
	RET

// func dotRows8AVX512(s, w, x []float64)
//
// The batch-1 forward's body: s[r] = Σ over the whole 4-groups of row r of
// the row-major w (row stride len(x)), eight rows a pass, and len(s) a
// multiple of 8. The lanes are weight rows. Per 4-group of x, Z0..Z3 take
// two rows' groups each, one per 256-bit half — rows (0,2), (1,3), (4,6)
// and (5,7) of the pass — and are multiplied by the group broadcast to both
// halves (Z4). VUNPCKLPD/VUNPCKHPD and VSHUFF64X2 then transpose each half
// as a 4×4 block, so that product j of rows 0..7 lies in lanes 0..7 of one
// register. Each lane forms T = w₀x₀ + w₁x₁, T += w₂x₂, T += w₃x₃ and adds
// T to its accumulator Z9, which starts at +0: dot()'s grouping. R11 walks
// row 0 of the pass and R12 row 4; DX is the row stride in bytes and R9
// three of them.
TEXT ·dotRows8AVX512(SB), NOSPLIT, $0-72
	MOVQ s_base+0(FP), DI
	MOVQ s_len+8(FP), BX
	MOVQ w_base+24(FP), R8
	MOVQ x_base+48(FP), SI
	MOVQ x_len+56(FP), DX
	SHLQ $3, DX
	MOVQ DX, CX
	ANDQ $-32, CX
	LEAQ (DX)(DX*2), R9
	SHRQ $3, BX
	JEQ dotrows8done

dotrows8pass:
	MOVQ R8, R11
	LEAQ (R8)(DX*4), R12
	MOVQ SI, R13
	MOVQ CX, AX
	VPXORQ Z9, Z9, Z9
	TESTQ AX, AX
	JEQ dotrows8store

dotrows8loop:
	VMOVUPD (R11), Y0
	VINSERTF64X4 $1, (R11)(DX*2), Z0, Z0
	VMOVUPD (R11)(DX*1), Y1
	VINSERTF64X4 $1, (R11)(R9*1), Z1, Z1
	VMOVUPD (R12), Y2
	VINSERTF64X4 $1, (R12)(DX*2), Z2, Z2
	VMOVUPD (R12)(DX*1), Y3
	VINSERTF64X4 $1, (R12)(R9*1), Z3, Z3
	VBROADCASTF64X4 (R13), Z4
	VMULPD Z4, Z0, Z0
	VMULPD Z4, Z1, Z1
	VMULPD Z4, Z2, Z2
	VMULPD Z4, Z3, Z3
	VUNPCKLPD Z1, Z0, Z5
	VUNPCKHPD Z1, Z0, Z6
	VUNPCKLPD Z3, Z2, Z7
	VUNPCKHPD Z3, Z2, Z8
	VSHUFF64X2 $0x88, Z7, Z5, Z0
	VSHUFF64X2 $0x88, Z8, Z6, Z1
	VSHUFF64X2 $0xdd, Z7, Z5, Z2
	VSHUFF64X2 $0xdd, Z8, Z6, Z3
	VADDPD Z1, Z0, Z0
	VADDPD Z2, Z0, Z0
	VADDPD Z3, Z0, Z0
	VADDPD Z0, Z9, Z9
	ADDQ $32, R11
	ADDQ $32, R12
	ADDQ $32, R13
	SUBQ $32, AX
	JNE dotrows8loop

dotrows8store:
	VMOVUPD Z9, (DI)
	ADDQ $64, DI
	LEAQ (R8)(DX*8), R8
	DECQ BX
	JNE dotrows8pass

dotrows8done:
	VZEROUPPER
	RET

// func dotRows4AVX2(s, w, x []float64)
//
// dotRows8AVX512 at half the width: four rows a pass, len(s) a multiple of
// 4. Y0..Y3 take rows 0..3's group, VUNPCKLPD/VUNPCKHPD and VPERM2F128
// transpose the 4×4 block of products, and each lane of Y9 grows by
// ((w₀x₀ + w₁x₁) + w₂x₂) + w₃x₃ in dot()'s order.
TEXT ·dotRows4AVX2(SB), NOSPLIT, $0-72
	MOVQ s_base+0(FP), DI
	MOVQ s_len+8(FP), BX
	MOVQ w_base+24(FP), R8
	MOVQ x_base+48(FP), SI
	MOVQ x_len+56(FP), DX
	SHLQ $3, DX
	MOVQ DX, CX
	ANDQ $-32, CX
	LEAQ (DX)(DX*2), R9
	SHRQ $2, BX
	JEQ dotrows4done

dotrows4pass:
	MOVQ R8, R11
	MOVQ SI, R13
	MOVQ CX, AX
	VXORPD Y9, Y9, Y9
	TESTQ AX, AX
	JEQ dotrows4store

dotrows4loop:
	VMOVUPD (R13), Y4
	VMOVUPD (R11), Y0
	VMOVUPD (R11)(DX*1), Y1
	VMOVUPD (R11)(DX*2), Y2
	VMOVUPD (R11)(R9*1), Y3
	VMULPD Y4, Y0, Y0
	VMULPD Y4, Y1, Y1
	VMULPD Y4, Y2, Y2
	VMULPD Y4, Y3, Y3
	VUNPCKLPD Y1, Y0, Y5
	VUNPCKHPD Y1, Y0, Y6
	VUNPCKLPD Y3, Y2, Y7
	VUNPCKHPD Y3, Y2, Y8
	VPERM2F128 $0x20, Y7, Y5, Y0
	VPERM2F128 $0x20, Y8, Y6, Y1
	VPERM2F128 $0x31, Y7, Y5, Y2
	VPERM2F128 $0x31, Y8, Y6, Y3
	VADDPD Y1, Y0, Y0
	VADDPD Y2, Y0, Y0
	VADDPD Y3, Y0, Y0
	VADDPD Y0, Y9, Y9
	ADDQ $32, R11
	ADDQ $32, R13
	SUBQ $32, AX
	JNE dotrows4loop

dotrows4store:
	VMOVUPD Y9, (DI)
	ADDQ $32, DI
	LEAQ (R8)(DX*4), R8
	DECQ BX
	JNE dotrows4pass

dotrows4done:
	VZEROUPPER
	RET

// func gradRowsAVX2(dst, x []float64, off []int, g []float64)
//
// dst[i] = dst[i] + g[k]·x[off[k]+i] for k = 0, 1, … in order, one
// element a lane. The outer loop takes 32 elements at a time in eight
// accumulators (Y0..Y7), loaded once, grown by every row of the list and
// stored once; a 4-element loop (Y0) takes the rest of the whole 4-groups.
// R11 walks &x[off[k]+i].
TEXT ·gradRowsAVX2(SB), NOSPLIT, $0-96
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ x_base+24(FP), SI
	MOVQ off_base+48(FP), R8
	MOVQ off_len+56(FP), R9
	MOVQ g_base+72(FP), R10
	SHLQ $3, CX
	MOVQ CX, DX
	ANDQ $-256, DX
	ANDQ $-32, CX
	XORQ AX, AX
	TESTQ R9, R9
	JEQ gradrowsdone
	TESTQ DX, DX
	JEQ gradrows4

gradrows32:
	VMOVUPD (DI)(AX*1), Y0
	VMOVUPD 32(DI)(AX*1), Y1
	VMOVUPD 64(DI)(AX*1), Y2
	VMOVUPD 96(DI)(AX*1), Y3
	VMOVUPD 128(DI)(AX*1), Y4
	VMOVUPD 160(DI)(AX*1), Y5
	VMOVUPD 192(DI)(AX*1), Y6
	VMOVUPD 224(DI)(AX*1), Y7
	XORQ BX, BX

gradrows32row:
	MOVQ (R8)(BX*8), R11
	LEAQ (SI)(R11*8), R11
	ADDQ AX, R11
	VBROADCASTSD (R10)(BX*8), Y8
	VMULPD (R11), Y8, Y9
	VADDPD Y9, Y0, Y0
	VMULPD 32(R11), Y8, Y10
	VADDPD Y10, Y1, Y1
	VMULPD 64(R11), Y8, Y11
	VADDPD Y11, Y2, Y2
	VMULPD 96(R11), Y8, Y12
	VADDPD Y12, Y3, Y3
	VMULPD 128(R11), Y8, Y13
	VADDPD Y13, Y4, Y4
	VMULPD 160(R11), Y8, Y14
	VADDPD Y14, Y5, Y5
	VMULPD 192(R11), Y8, Y15
	VADDPD Y15, Y6, Y6
	VMULPD 224(R11), Y8, Y9
	VADDPD Y9, Y7, Y7
	INCQ BX
	CMPQ BX, R9
	JB gradrows32row

	VMOVUPD Y0, (DI)(AX*1)
	VMOVUPD Y1, 32(DI)(AX*1)
	VMOVUPD Y2, 64(DI)(AX*1)
	VMOVUPD Y3, 96(DI)(AX*1)
	VMOVUPD Y4, 128(DI)(AX*1)
	VMOVUPD Y5, 160(DI)(AX*1)
	VMOVUPD Y6, 192(DI)(AX*1)
	VMOVUPD Y7, 224(DI)(AX*1)
	ADDQ $256, AX
	CMPQ AX, DX
	JB gradrows32

gradrows4:
	CMPQ AX, CX
	JAE gradrowsdone

gradrows4group:
	VMOVUPD (DI)(AX*1), Y0
	XORQ BX, BX

gradrows4row:
	MOVQ (R8)(BX*8), R11
	LEAQ (SI)(R11*8), R11
	VBROADCASTSD (R10)(BX*8), Y8
	VMULPD (R11)(AX*1), Y8, Y9
	VADDPD Y9, Y0, Y0
	INCQ BX
	CMPQ BX, R9
	JB gradrows4row

	VMOVUPD Y0, (DI)(AX*1)
	ADDQ $32, AX
	CMPQ AX, CX
	JB gradrows4group

gradrowsdone:
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

// Constants of math.archExp (Go's $GOROOT/src/math/exp_amd64.s): the
// scalars are broadcast once per call, the two Horner terms that are not
// kept in a register are stored four wide, and the last two rows are the
// int32 bounds of the range check (1023 is also the exponent bias).
DATA expdata<>+0(SB)/8, $1.4426950408889634073599246810018920 // log₂e
DATA expdata<>+8(SB)/8, $0.69314718055966295651160180568695068359375 // LN2U
DATA expdata<>+16(SB)/8, $0.28235290563031577122588448175013436025525412068e-12 // LN2L
DATA expdata<>+24(SB)/8, $0.0625
DATA expdata<>+32(SB)/8, $2.4801587301587301587e-5
DATA expdata<>+40(SB)/8, $1.9841269841269841270e-4
DATA expdata<>+48(SB)/8, $1.3888888888888888889e-3
DATA expdata<>+56(SB)/8, $8.3333333333333333333e-3
DATA expdata<>+64(SB)/8, $4.1666666666666666667e-2
DATA expdata<>+72(SB)/8, $1.6666666666666666667e-1
DATA expdata<>+80(SB)/8, $2.0
DATA expdata<>+88(SB)/8, $0.5
DATA expdata<>+96(SB)/8, $0.5
DATA expdata<>+104(SB)/8, $0.5
DATA expdata<>+112(SB)/8, $0.5
DATA expdata<>+120(SB)/8, $1.0
DATA expdata<>+128(SB)/8, $1.0
DATA expdata<>+136(SB)/8, $1.0
DATA expdata<>+144(SB)/8, $1.0
DATA expdata<>+152(SB)/4, $1023
DATA expdata<>+156(SB)/4, $1023
DATA expdata<>+160(SB)/4, $1023
DATA expdata<>+164(SB)/4, $1023
DATA expdata<>+168(SB)/4, $-1023
DATA expdata<>+172(SB)/4, $-1023
DATA expdata<>+176(SB)/4, $-1023
DATA expdata<>+180(SB)/4, $-1023
GLOBL expdata<>(SB), RODATA|NOPTR, $184

// func expAVX2(dst, src []float64) int
//
// dst[i] = math.Exp(src[i]), one element a lane, by the FMA branch of
// math.archExp in its order:
//   k = round(x·log₂e); r = x − k·LN2U, fused; r = r − k·LN2L, fused;
//   r = r·(1/16); p = Horner(r), each step fused; r = r·p;
//   r = (r+2)·r three times; r = (r+2)·r + 1, fused; r·2^k.
// The lanes stay on archExp's common path as long as −1022 ≤ k ≤ 1023:
// the result is normal and ldexp is the one multiply. Underflow,
// denormal results, overflow, ±Inf and NaN (the last two convert to
// 0x80000000) all put k outside, and the kernel stops before the first
// group with such a lane, stores nothing of it, and returns the number of
// elements done. It covers at most len(dst)&^3 elements; len(src) >= len(dst).
TEXT ·expAVX2(SB), NOSPLIT, $0-56
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ src_base+24(FP), SI
	LEAQ expdata<>(SB), DX
	VBROADCASTSD 0(DX), Y15          // log₂e
	VBROADCASTSD 8(DX), Y14          // LN2U
	VBROADCASTSD 16(DX), Y13         // LN2L
	VBROADCASTSD 24(DX), Y12         // 1/16
	VBROADCASTSD 32(DX), Y11         // Horner, highest degree first
	VBROADCASTSD 40(DX), Y10
	VBROADCASTSD 48(DX), Y9
	VBROADCASTSD 56(DX), Y8
	VBROADCASTSD 64(DX), Y7
	VBROADCASTSD 72(DX), Y6
	VBROADCASTSD 80(DX), Y5          // 2
	SHLQ $3, CX
	ANDQ $-32, CX
	XORQ AX, AX
	TESTQ CX, CX
	JEQ expdone

exploop:
	VMOVUPD (SI)(AX*1), Y0           // x
	VMULPD Y15, Y0, Y1
	VCVTPD2DQY Y1, X1                // k, rounded to nearest
	VPCMPGTD 152(DX), X1, X2         // k > 1023
	VPCMPGTD 168(DX), X1, X3         // k > −1023
	VPANDN X3, X2, X2                // −1023 < k ≤ 1023
	VMOVMSKPS X2, BX
	CMPL BX, $15
	JNE expdone
	VPADDD 152(DX), X1, X2           // biased exponent
	VCVTDQ2PD X1, Y1                 // float64(k)
	VFNMADD231PD Y14, Y1, Y0         // x − k·LN2U
	VFNMADD231PD Y13, Y1, Y0         // − k·LN2L
	VMULPD Y12, Y0, Y0
	VMOVAPD Y11, Y1
	VFMADD213PD Y10, Y0, Y1
	VFMADD213PD Y9, Y0, Y1
	VFMADD213PD Y8, Y0, Y1
	VFMADD213PD Y7, Y0, Y1
	VFMADD213PD Y6, Y0, Y1
	VFMADD213PD 88(DX), Y0, Y1       // + 0.5
	VFMADD213PD 120(DX), Y0, Y1      // + 1
	VMULPD Y1, Y0, Y0
	VADDPD Y5, Y0, Y1
	VMULPD Y1, Y0, Y0
	VADDPD Y5, Y0, Y1
	VMULPD Y1, Y0, Y0
	VADDPD Y5, Y0, Y1
	VMULPD Y1, Y0, Y0
	VADDPD Y5, Y0, Y1
	VFMADD213PD 120(DX), Y1, Y0      // (r+2)·r + 1
	VPMOVSXDQ X2, Y2
	VPSLLQ $52, Y2, Y2               // 2^k
	VMULPD Y2, Y0, Y0
	VMOVUPD Y0, (DI)(AX*1)
	ADDQ $32, AX
	CMPQ AX, CX
	JB exploop

expdone:
	SHRQ $3, AX
	MOVQ AX, ret+48(FP)
	VZEROUPPER
	RET

// The incidence walks of gather.go. Every gather sets its mask to all ones
// first, because VGATHERDPD clears the mask as it completes, and zeroes its
// destination, which it otherwise reads, so no step waits on the last.
// A Quad kernel's lanes start each quad from +0 (−Inf for the max) and fold
// one 4-step at a time into out[4q..4q+3]; every quad is a whole number of
// 4-steps. An At kernel covers len(dst)&^3 elements and leaves the rest
// to the Go side.

// func quadSumAVX2(out, x []float64, ids, start []int32)
//
// s += x[id].
TEXT ·quadSumAVX2(SB), NOSPLIT, $0-96
	MOVQ out_base+0(FP), DI
	MOVQ x_base+24(FP), SI
	MOVQ ids_base+48(FP), R8
	MOVQ start_base+72(FP), R9
	MOVQ start_len+80(FP), CX
	SUBQ $1, CX                      // quads
	JLE qsumdone
	MOVLQSX (R9), AX

qsumquad:
	MOVLQSX 4(R9), BX
	VXORPD Y0, Y0, Y0
	CMPQ AX, BX
	JGE qsumstore

qsumstep:
	VMOVDQU (R8)(AX*4), X1
	VPCMPEQD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VGATHERDPD Y2, (SI)(X1*8), Y3
	VADDPD Y3, Y0, Y0
	ADDQ $4, AX
	CMPQ AX, BX
	JLT qsumstep

qsumstore:
	VMOVUPD Y0, (DI)
	ADDQ $32, DI
	ADDQ $4, R9
	SUBQ $1, CX
	JNZ qsumquad

qsumdone:
	VZEROUPPER
	RET

// func quadScaledSumAVX2(out, x, scale []float64, ids, start []int32)
//
// s += x[id]·c, then s = +0 in the lanes whose c is ±0.
TEXT ·quadScaledSumAVX2(SB), NOSPLIT, $0-120
	MOVQ out_base+0(FP), DI
	MOVQ x_base+24(FP), SI
	MOVQ scale_base+48(FP), DX
	MOVQ ids_base+72(FP), R8
	MOVQ start_base+96(FP), R9
	MOVQ start_len+104(FP), CX
	VXORPD Y5, Y5, Y5
	SUBQ $1, CX
	JLE qscaleddone
	MOVLQSX (R9), AX

qscaledquad:
	MOVLQSX 4(R9), BX
	VMOVUPD (DX), Y4                 // c
	VXORPD Y0, Y0, Y0
	CMPQ AX, BX
	JGE qscaledstore

qscaledstep:
	VMOVDQU (R8)(AX*4), X1
	VPCMPEQD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VGATHERDPD Y2, (SI)(X1*8), Y3
	VMULPD Y4, Y3, Y3                // x[id]·c
	VADDPD Y3, Y0, Y0
	ADDQ $4, AX
	CMPQ AX, BX
	JLT qscaledstep

qscaledstore:
	VCMPPD $0x00, Y5, Y4, Y6         // c == 0
	VANDNPD Y0, Y6, Y0
	VMOVUPD Y0, (DI)
	ADDQ $32, DI
	ADDQ $32, DX
	ADDQ $4, R9
	SUBQ $1, CX
	JNZ qscaledquad

qscaleddone:
	VZEROUPPER
	RET

// func quadDotAVX2(out, x, y []float64, ids, start []int32)
//
// s += x[id]·y[id].
TEXT ·quadDotAVX2(SB), NOSPLIT, $0-120
	MOVQ out_base+0(FP), DI
	MOVQ x_base+24(FP), SI
	MOVQ y_base+48(FP), DX
	MOVQ ids_base+72(FP), R8
	MOVQ start_base+96(FP), R9
	MOVQ start_len+104(FP), CX
	SUBQ $1, CX
	JLE qdotdone
	MOVLQSX (R9), AX

qdotquad:
	MOVLQSX 4(R9), BX
	VXORPD Y0, Y0, Y0
	CMPQ AX, BX
	JGE qdotstore

qdotstep:
	VMOVDQU (R8)(AX*4), X1
	VPCMPEQD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VGATHERDPD Y2, (SI)(X1*8), Y3
	VPCMPEQD Y2, Y2, Y2
	VXORPD Y4, Y4, Y4
	VGATHERDPD Y2, (DX)(X1*8), Y4
	VMULPD Y4, Y3, Y3                // x[id]·y[id]
	VADDPD Y3, Y0, Y0
	ADDQ $4, AX
	CMPQ AX, BX
	JLT qdotstep

qdotstore:
	VMOVUPD Y0, (DI)
	ADDQ $32, DI
	ADDQ $4, R9
	SUBQ $1, CX
	JNZ qdotquad

qdotdone:
	VZEROUPPER
	RET

// func quadMaxAVX2(out, x []float64, ids, start []int32)
//
// m = x[id] > m ? x[id] : m, from −Inf: VCMPPD's GT_OQ is false when
// either side is a NaN and for +0 > −0, which is greater's `v > mx`.
TEXT ·quadMaxAVX2(SB), NOSPLIT, $0-96
	MOVQ out_base+0(FP), DI
	MOVQ x_base+24(FP), SI
	MOVQ ids_base+48(FP), R8
	MOVQ start_base+72(FP), R9
	MOVQ start_len+80(FP), CX
	VPCMPEQD Y5, Y5, Y5
	VPSLLQ $52, Y5, Y5               // −Inf
	SUBQ $1, CX
	JLE qmaxdone
	MOVLQSX (R9), AX

qmaxquad:
	MOVLQSX 4(R9), BX
	VMOVAPD Y5, Y0
	CMPQ AX, BX
	JGE qmaxstore

qmaxstep:
	VMOVDQU (R8)(AX*4), X1
	VPCMPEQD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VGATHERDPD Y2, (SI)(X1*8), Y3
	VCMPPD $0x1e, Y0, Y3, Y6         // x[id] > m, GT_OQ
	VBLENDVPD Y6, Y3, Y0, Y0
	ADDQ $4, AX
	CMPQ AX, BX
	JLT qmaxstep

qmaxstore:
	VMOVUPD Y0, (DI)
	ADDQ $32, DI
	ADDQ $4, R9
	SUBQ $1, CX
	JNZ qmaxquad

qmaxdone:
	VZEROUPPER
	RET

// func subAtAVX2(dst, x, v []float64, at []int32)
//
// dst[i] = x[i] − v[at[i]].
TEXT ·subAtAVX2(SB), NOSPLIT, $0-96
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ x_base+24(FP), SI
	MOVQ v_base+48(FP), DX
	MOVQ at_base+72(FP), R8
	ANDQ $-4, CX
	XORQ AX, AX
	TESTQ CX, CX
	JEQ subatdone

subatloop:
	VMOVDQU (R8)(AX*4), X1
	VPCMPEQD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VGATHERDPD Y2, (DX)(X1*8), Y3
	VMOVUPD (SI)(AX*8), Y4
	VSUBPD Y3, Y4, Y4                // x − v[at]
	VMOVUPD Y4, (DI)(AX*8)
	ADDQ $4, AX
	CMPQ AX, CX
	JB subatloop

subatdone:
	VZEROUPPER
	RET

// func mulAtAVX2(dst, v []float64, at []int32)
//
// dst[i] = dst[i]·v[at[i]].
TEXT ·mulAtAVX2(SB), NOSPLIT, $0-72
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ v_base+24(FP), DX
	MOVQ at_base+48(FP), R8
	ANDQ $-4, CX
	XORQ AX, AX
	TESTQ CX, CX
	JEQ mulatdone

mulatloop:
	VMOVDQU (R8)(AX*4), X1
	VPCMPEQD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VGATHERDPD Y2, (DX)(X1*8), Y3
	VMOVUPD (DI)(AX*8), Y4
	VMULPD Y3, Y4, Y4                // dst·v[at]
	VMOVUPD Y4, (DI)(AX*8)
	ADDQ $4, AX
	CMPQ AX, CX
	JB mulatloop

mulatdone:
	VZEROUPPER
	RET

// func chainAtAVX2(dst, r, g, v []float64, at []int32)
//
// dst[i] = r[i]·(g[i] − v[at[i]]).
TEXT ·chainAtAVX2(SB), NOSPLIT, $0-120
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ r_base+24(FP), SI
	MOVQ g_base+48(FP), R9
	MOVQ v_base+72(FP), DX
	MOVQ at_base+96(FP), R8
	ANDQ $-4, CX
	XORQ AX, AX
	TESTQ CX, CX
	JEQ chainatdone

chainatloop:
	VMOVDQU (R8)(AX*4), X1
	VPCMPEQD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VGATHERDPD Y2, (DX)(X1*8), Y3
	VMOVUPD (R9)(AX*8), Y5
	VSUBPD Y3, Y5, Y5                // g − v[at]
	VMOVUPD (SI)(AX*8), Y4
	VMULPD Y5, Y4, Y4                // r·(g − v[at])
	VMOVUPD Y4, (DI)(AX*8)
	ADDQ $4, AX
	CMPQ AX, CX
	JB chainatloop

chainatdone:
	VZEROUPPER
	RET
