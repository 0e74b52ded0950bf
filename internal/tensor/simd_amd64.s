//go:build amd64

#include "textflag.h"

// CPUID/XGETBV feature probes for detectAVX2FMA.

// func cpuidAsm(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuidAsm(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv0() (eax, edx uint32)
TEXT ·xgetbv0(SB), NOSPLIT, $0-8
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET

// func fmaGemm4x16(a *float32, lda int, b *float32, ldb int, c *float32, ldc int, k int)
//
// C[r][j] = Σ_p A[r][p]·B[p][j] for r in [0,4), j in [0,16). Eight YMM
// accumulators (two per row); per k step: two B loads shared by four
// broadcast-FMA pairs.
TEXT ·fmaGemm4x16(SB), NOSPLIT, $0-56
	MOVQ a+0(FP), SI
	MOVQ lda+8(FP), DX
	MOVQ b+16(FP), DI
	MOVQ ldb+24(FP), R8
	MOVQ c+32(FP), R9
	MOVQ ldc+40(FP), R10
	MOVQ k+48(FP), CX

	SHLQ $2, DX  // strides in bytes
	SHLQ $2, R8
	SHLQ $2, R10

	MOVQ SI, R11           // A row 0
	LEAQ (SI)(DX*1), R12   // A row 1
	LEAQ (R12)(DX*1), R13  // A row 2
	LEAQ (R13)(DX*1), BX   // A row 3

	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	VXORPS Y4, Y4, Y4
	VXORPS Y5, Y5, Y5
	VXORPS Y6, Y6, Y6
	VXORPS Y7, Y7, Y7

fma_loop:
	VMOVUPS (DI), Y8
	VMOVUPS 32(DI), Y9
	VBROADCASTSS (R11), Y10
	VFMADD231PS  Y8, Y10, Y0
	VFMADD231PS  Y9, Y10, Y1
	VBROADCASTSS (R12), Y10
	VFMADD231PS  Y8, Y10, Y2
	VFMADD231PS  Y9, Y10, Y3
	VBROADCASTSS (R13), Y10
	VFMADD231PS  Y8, Y10, Y4
	VFMADD231PS  Y9, Y10, Y5
	VBROADCASTSS (BX), Y10
	VFMADD231PS  Y8, Y10, Y6
	VFMADD231PS  Y9, Y10, Y7
	ADDQ $4, R11
	ADDQ $4, R12
	ADDQ $4, R13
	ADDQ $4, BX
	ADDQ R8, DI
	DECQ CX
	JNZ  fma_loop

	VMOVUPS Y0, (R9)
	VMOVUPS Y1, 32(R9)
	ADDQ    R10, R9
	VMOVUPS Y2, (R9)
	VMOVUPS Y3, 32(R9)
	ADDQ    R10, R9
	VMOVUPS Y4, (R9)
	VMOVUPS Y5, 32(R9)
	ADDQ    R10, R9
	VMOVUPS Y6, (R9)
	VMOVUPS Y7, 32(R9)
	VZEROUPPER
	RET

// func fmaGemm4x8F64(a *float64, lda int, b *float64, ldb int, c *float64, ldc int, k int)
//
// The float64 twin of fmaGemm4x16: C[r][j] = Σ_p A[r][p]·B[p][j] for r in
// [0,4), j in [0,8), same register plan with four lanes per YMM.
TEXT ·fmaGemm4x8F64(SB), NOSPLIT, $0-56
	MOVQ a+0(FP), SI
	MOVQ lda+8(FP), DX
	MOVQ b+16(FP), DI
	MOVQ ldb+24(FP), R8
	MOVQ c+32(FP), R9
	MOVQ ldc+40(FP), R10
	MOVQ k+48(FP), CX

	SHLQ $3, DX  // strides in bytes
	SHLQ $3, R8
	SHLQ $3, R10

	MOVQ SI, R11           // A row 0
	LEAQ (SI)(DX*1), R12   // A row 1
	LEAQ (R12)(DX*1), R13  // A row 2
	LEAQ (R13)(DX*1), BX   // A row 3

	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7

fma64_loop:
	VMOVUPD (DI), Y8
	VMOVUPD 32(DI), Y9
	VBROADCASTSD (R11), Y10
	VFMADD231PD  Y8, Y10, Y0
	VFMADD231PD  Y9, Y10, Y1
	VBROADCASTSD (R12), Y10
	VFMADD231PD  Y8, Y10, Y2
	VFMADD231PD  Y9, Y10, Y3
	VBROADCASTSD (R13), Y10
	VFMADD231PD  Y8, Y10, Y4
	VFMADD231PD  Y9, Y10, Y5
	VBROADCASTSD (BX), Y10
	VFMADD231PD  Y8, Y10, Y6
	VFMADD231PD  Y9, Y10, Y7
	ADDQ $8, R11
	ADDQ $8, R12
	ADDQ $8, R13
	ADDQ $8, BX
	ADDQ R8, DI
	DECQ CX
	JNZ  fma64_loop

	VMOVUPD Y0, (R9)
	VMOVUPD Y1, 32(R9)
	ADDQ    R10, R9
	VMOVUPD Y2, (R9)
	VMOVUPD Y3, 32(R9)
	ADDQ    R10, R9
	VMOVUPD Y4, (R9)
	VMOVUPD Y5, 32(R9)
	ADDQ    R10, R9
	VMOVUPD Y6, (R9)
	VMOVUPD Y7, 32(R9)
	VZEROUPPER
	RET

// func u8GemmRow32(a *uint8, b *uint8, ldb int, c *int32, k int)
//
// c[0:32] = Σ_p a[p]·b[p·ldb + j], exact int32 (identical to the scalar
// SWAR path). Two B rows are zero-extended to words, interleaved so each
// word pair is (B[p][j], B[p+1][j]), and vpmaddwd against the broadcast
// pair (a[p], a[p+1]) advances two k steps per 32 columns. The interleave
// permutes columns within each accumulator; two vperm2i128 per accumulator
// pair restore order at the end. Odd k runs a final step against a zero
// row.
TEXT ·u8GemmRow32(SB), NOSPLIT, $0-40
	MOVQ a+0(FP), SI
	MOVQ b+8(FP), DI
	MOVQ ldb+16(FP), R8
	MOVQ c+24(FP), R9
	MOVQ k+32(FP), CX

	VPXOR Y0, Y0, Y0
	VPXOR Y1, Y1, Y1
	VPXOR Y2, Y2, Y2
	VPXOR Y3, Y3, Y3

	CMPQ CX, $2
	JL   u8_tail

u8_loop:
	VPMOVZXBW (DI), Y8           // row p, cols 0-15 as words
	VPMOVZXBW 16(DI), Y9         // row p, cols 16-31
	VPMOVZXBW (DI)(R8*1), Y10    // row p+1, cols 0-15
	VPMOVZXBW 16(DI)(R8*1), Y11  // row p+1, cols 16-31

	MOVBLZX (SI), AX     // pair (a[p], a[p+1]) packed in one dword
	MOVBLZX 1(SI), BX
	SHLL    $16, BX
	ORL     BX, AX
	VMOVD   AX, X12      // VEX move: a legacy MOVQ here stalls on dirty YMM uppers
	VPBROADCASTD X12, Y12

	VPUNPCKLWD Y10, Y8, Y13
	VPUNPCKHWD Y10, Y8, Y8
	VPUNPCKLWD Y11, Y9, Y14
	VPUNPCKHWD Y11, Y9, Y9

	VPMADDWD Y12, Y13, Y13
	VPADDD   Y13, Y0, Y0
	VPMADDWD Y12, Y8, Y8
	VPADDD   Y8, Y1, Y1
	VPMADDWD Y12, Y14, Y14
	VPADDD   Y14, Y2, Y2
	VPMADDWD Y12, Y9, Y9
	VPADDD   Y9, Y3, Y3

	ADDQ $2, SI
	LEAQ (DI)(R8*2), DI
	SUBQ $2, CX
	CMPQ CX, $2
	JGE  u8_loop

u8_tail:
	TESTQ CX, CX
	JZ    u8_done

	VPMOVZXBW (DI), Y8
	VPMOVZXBW 16(DI), Y9
	VPXOR     Y10, Y10, Y10
	VPXOR     Y11, Y11, Y11

	MOVBLZX (SI), AX  // pair (a[k-1], 0)
	VMOVD   AX, X12
	VPBROADCASTD X12, Y12

	VPUNPCKLWD Y10, Y8, Y13
	VPUNPCKHWD Y10, Y8, Y8
	VPUNPCKLWD Y11, Y9, Y14
	VPUNPCKHWD Y11, Y9, Y9

	VPMADDWD Y12, Y13, Y13
	VPADDD   Y13, Y0, Y0
	VPMADDWD Y12, Y8, Y8
	VPADDD   Y8, Y1, Y1
	VPMADDWD Y12, Y14, Y14
	VPADDD   Y14, Y2, Y2
	VPMADDWD Y12, Y9, Y9
	VPADDD   Y9, Y3, Y3

u8_done:
	// Undo the interleave permutation: Y0=[c0-3|c8-11], Y1=[c4-7|c12-15],
	// Y2=[c16-19|c24-27], Y3=[c20-23|c28-31].
	VPERM2I128 $0x20, Y1, Y0, Y8
	VPERM2I128 $0x31, Y1, Y0, Y9
	VPERM2I128 $0x20, Y3, Y2, Y10
	VPERM2I128 $0x31, Y3, Y2, Y11
	VMOVDQU Y8, (R9)
	VMOVDQU Y9, 32(R9)
	VMOVDQU Y10, 64(R9)
	VMOVDQU Y11, 96(R9)
	VZEROUPPER
	RET

// func u8Gemm2x32(a *uint8, lda int, b *uint8, ldb int, c *int32, ldc int, k int)
//
// Two-row variant of u8GemmRow32: C[r][0:32] = Σ_p A[r][p]·B[p][j] for rows
// r and r+1 sharing one zero-extend + interleave of the B block, which
// halves the port-5 shuffle pressure that bounds the single-row kernel.
// Bit-identical int32 results to the scalar path.
TEXT ·u8Gemm2x32(SB), NOSPLIT, $0-56
	MOVQ a+0(FP), SI
	MOVQ lda+8(FP), R11
	MOVQ b+16(FP), DI
	MOVQ ldb+24(FP), R8
	MOVQ c+32(FP), R9
	MOVQ ldc+40(FP), R10
	MOVQ k+48(FP), CX

	ADDQ SI, R11       // A row 1
	SHLQ $2, R10
	ADDQ R9, R10       // C row 1

	VPXOR Y0, Y0, Y0
	VPXOR Y1, Y1, Y1
	VPXOR Y2, Y2, Y2
	VPXOR Y3, Y3, Y3
	VPXOR Y4, Y4, Y4
	VPXOR Y5, Y5, Y5
	VPXOR Y6, Y6, Y6
	VPXOR Y7, Y7, Y7

	CMPQ CX, $2
	JL   u2_tail

u2_loop:
	VPMOVZXBW (DI), Y8           // B row p, cols 0-15 as words
	VPMOVZXBW 16(DI), Y9         // B row p, cols 16-31
	VPMOVZXBW (DI)(R8*1), Y10    // B row p+1, cols 0-15
	VPMOVZXBW 16(DI)(R8*1), Y11  // B row p+1, cols 16-31

	MOVBLZX (SI), AX     // row 0 pair (a[p], a[p+1])
	MOVBLZX 1(SI), BX
	SHLL    $16, BX
	ORL     BX, AX
	VMOVD   AX, X14
	VPBROADCASTD X14, Y14
	MOVBLZX (R11), AX    // row 1 pair
	MOVBLZX 1(R11), BX
	SHLL    $16, BX
	ORL     BX, AX
	VMOVD   AX, X15
	VPBROADCASTD X15, Y15

	VPUNPCKLWD Y10, Y8, Y12
	VPUNPCKHWD Y10, Y8, Y8
	VPUNPCKLWD Y11, Y9, Y13
	VPUNPCKHWD Y11, Y9, Y9

	VPMADDWD Y14, Y12, Y10  // row 0 into Y0-Y3 (Y10/Y11 free as temps)
	VPADDD   Y10, Y0, Y0
	VPMADDWD Y14, Y8, Y10
	VPADDD   Y10, Y1, Y1
	VPMADDWD Y14, Y13, Y10
	VPADDD   Y10, Y2, Y2
	VPMADDWD Y14, Y9, Y10
	VPADDD   Y10, Y3, Y3

	VPMADDWD Y15, Y12, Y12  // row 1 into Y4-Y7, consuming the interleaves
	VPADDD   Y12, Y4, Y4
	VPMADDWD Y15, Y8, Y8
	VPADDD   Y8, Y5, Y5
	VPMADDWD Y15, Y13, Y13
	VPADDD   Y13, Y6, Y6
	VPMADDWD Y15, Y9, Y9
	VPADDD   Y9, Y7, Y7

	ADDQ $2, SI
	ADDQ $2, R11
	LEAQ (DI)(R8*2), DI
	SUBQ $2, CX
	CMPQ CX, $2
	JGE  u2_loop

u2_tail:
	TESTQ CX, CX
	JZ    u2_done

	VPMOVZXBW (DI), Y8
	VPMOVZXBW 16(DI), Y9
	VPXOR     Y10, Y10, Y10
	VPXOR     Y11, Y11, Y11

	MOVBLZX (SI), AX   // pair (a[k-1], 0)
	VMOVD   AX, X14
	VPBROADCASTD X14, Y14
	MOVBLZX (R11), AX
	VMOVD   AX, X15
	VPBROADCASTD X15, Y15

	VPUNPCKLWD Y10, Y8, Y12
	VPUNPCKHWD Y10, Y8, Y8
	VPUNPCKLWD Y11, Y9, Y13
	VPUNPCKHWD Y11, Y9, Y9

	VPMADDWD Y14, Y12, Y10
	VPADDD   Y10, Y0, Y0
	VPMADDWD Y14, Y8, Y10
	VPADDD   Y10, Y1, Y1
	VPMADDWD Y14, Y13, Y10
	VPADDD   Y10, Y2, Y2
	VPMADDWD Y14, Y9, Y10
	VPADDD   Y10, Y3, Y3

	VPMADDWD Y15, Y12, Y12
	VPADDD   Y12, Y4, Y4
	VPMADDWD Y15, Y8, Y8
	VPADDD   Y8, Y5, Y5
	VPMADDWD Y15, Y13, Y13
	VPADDD   Y13, Y6, Y6
	VPMADDWD Y15, Y9, Y9
	VPADDD   Y9, Y7, Y7

u2_done:
	VPERM2I128 $0x20, Y1, Y0, Y8
	VPERM2I128 $0x31, Y1, Y0, Y9
	VPERM2I128 $0x20, Y3, Y2, Y10
	VPERM2I128 $0x31, Y3, Y2, Y11
	VMOVDQU Y8, (R9)
	VMOVDQU Y9, 32(R9)
	VMOVDQU Y10, 64(R9)
	VMOVDQU Y11, 96(R9)
	VPERM2I128 $0x20, Y5, Y4, Y8
	VPERM2I128 $0x31, Y5, Y4, Y9
	VPERM2I128 $0x20, Y7, Y6, Y10
	VPERM2I128 $0x31, Y7, Y6, Y11
	VMOVDQU Y8, (R10)
	VMOVDQU Y9, 32(R10)
	VMOVDQU Y10, 64(R10)
	VMOVDQU Y11, 96(R10)
	VZEROUPPER
	RET

// func u8ConvTaps2x32(w *uint32, ldw int, b *uint8, ldb int, c *int32, ldc int, kf int, kw int)
//
// The direct convolution's 2×32 block over every kernel tap:
// C[r][j] = Σ_t Σ_s w[r·ldw + t·kf + s] ⋅ B[s·ldb + 2(j+t)], r ∈ {0, 1},
// j in [0,32), where each weight is a dword (w[c] | w[c+1]<<16) and each
// B row holds channels c, c+1 of a column in adjacent bytes, so one
// vpmaddwd of the zero-extended bytes against the broadcast dword forms
// both channels' products of 8 columns. The words are in column order,
// hence the plain stores. Per step: 4 zero-extends, 2 broadcasts from
// memory, 8 vpmaddwd + vpaddd. Exact int32 arithmetic: products and pair
// sums are non-negative and bounded by MaxQuantK·255².
TEXT ·u8ConvTaps2x32(SB), NOSPLIT, $0-64
	MOVQ w+0(FP), SI
	MOVQ ldw+8(FP), R11
	MOVQ b+16(FP), DI
	MOVQ ldb+24(FP), R8
	MOVQ c+32(FP), R9
	MOVQ ldc+40(FP), R10
	MOVQ kf+48(FP), DX
	MOVQ kw+56(FP), R12

	SHLQ $2, R11       // weight row stride in bytes
	SHLQ $2, R10
	ADDQ R9, R10       // C row 1

	VPXOR Y0, Y0, Y0
	VPXOR Y1, Y1, Y1
	VPXOR Y2, Y2, Y2
	VPXOR Y3, Y3, Y3
	VPXOR Y4, Y4, Y4
	VPXOR Y5, Y5, Y5
	VPXOR Y6, Y6, Y6
	VPXOR Y7, Y7, Y7

ct_tap:
	MOVQ DI, BX        // first window row at this tap
	MOVQ DX, CX

ct_step:
	VPMOVZXBW (BX), Y8     // cols 0-7, channel pairs as words
	VPMOVZXBW 16(BX), Y9   // cols 8-15
	VPMOVZXBW 32(BX), Y10  // cols 16-23
	VPMOVZXBW 48(BX), Y11  // cols 24-31
	VPBROADCASTD (SI), Y12        // row 0 weight pair
	VPBROADCASTD (SI)(R11*1), Y13 // row 1 weight pair

	VPMADDWD Y12, Y8, Y14
	VPADDD   Y14, Y0, Y0
	VPMADDWD Y12, Y9, Y15
	VPADDD   Y15, Y1, Y1
	VPMADDWD Y12, Y10, Y14
	VPADDD   Y14, Y2, Y2
	VPMADDWD Y12, Y11, Y15
	VPADDD   Y15, Y3, Y3

	VPMADDWD Y13, Y8, Y8
	VPADDD   Y8, Y4, Y4
	VPMADDWD Y13, Y9, Y9
	VPADDD   Y9, Y5, Y5
	VPMADDWD Y13, Y10, Y10
	VPADDD   Y10, Y6, Y6
	VPMADDWD Y13, Y11, Y11
	VPADDD   Y11, Y7, Y7

	ADDQ $4, SI
	ADDQ R8, BX
	DECQ CX
	JNZ  ct_step

	ADDQ $2, DI        // next tap: the window shifts one column
	DECQ R12
	JNZ  ct_tap

	VMOVDQU Y0, (R9)
	VMOVDQU Y1, 32(R9)
	VMOVDQU Y2, 64(R9)
	VMOVDQU Y3, 96(R9)
	VMOVDQU Y4, (R10)
	VMOVDQU Y5, 32(R10)
	VMOVDQU Y6, 64(R10)
	VMOVDQU Y7, 96(R10)
	VZEROUPPER
	RET

// func interleaveU8AVX(d *uint8, s0 *uint8, s1 *uint8, n int)
//
// d[2x] = s0[x], d[2x+1] = s1[x] for x in [0, n), n a multiple of 8: the
// direct convolution's channel-pair rows, 16 columns per unpack pair.
TEXT ·interleaveU8AVX(SB), NOSPLIT, $0-32
	MOVQ d+0(FP), DI
	MOVQ s0+8(FP), SI
	MOVQ s1+16(FP), DX
	MOVQ n+24(FP), CX
	CMPQ CX, $16
	JL   il_tail

il_loop:
	VMOVDQU    (SI), X0
	VMOVDQU    (DX), X1
	VPUNPCKLBW X1, X0, X2
	VPUNPCKHBW X1, X0, X3
	VMOVDQU    X2, (DI)
	VMOVDQU    X3, 16(DI)
	ADDQ $16, SI
	ADDQ $16, DX
	ADDQ $32, DI
	SUBQ $16, CX
	CMPQ CX, $16
	JGE  il_loop

il_tail:
	TESTQ CX, CX
	JZ    il_done
	VMOVQ      (SI), X0
	VMOVQ      (DX), X1
	VPUNPCKLBW X1, X0, X2
	VMOVDQU    X2, (DI)

il_done:
	RET

// quantPerm<> reorders the dword groups left interleaved by the
// VPACKSSDW/VPACKUSWB lane structure back to linear element order.
DATA quantPerm<>+0(SB)/4, $0
DATA quantPerm<>+4(SB)/4, $4
DATA quantPerm<>+8(SB)/4, $1
DATA quantPerm<>+12(SB)/4, $5
DATA quantPerm<>+16(SB)/4, $2
DATA quantPerm<>+20(SB)/4, $6
DATA quantPerm<>+24(SB)/4, $3
DATA quantPerm<>+28(SB)/4, $7
GLOBL quantPerm<>(SB), RODATA, $32

// func quantizeU8AVX(dst *uint8, src *float32, n int, invScale float32, z float32)
//
// dst[i] = clamp(trunc(src[i]·invScale + z + 0.5), 0, 255), n a multiple of
// 32. Mul and the two adds run in the scalar code's association order and
// VCVTTPS2DQ truncates exactly like Go's int32() on amd64 (out-of-range →
// INT_MIN), so the bytes are bit-identical to the scalar loop — the
// signed-saturate word pack then unsigned-saturate byte pack reproduce the
// [0, 255] clamp, including the huge-input and NaN cases.
TEXT ·quantizeU8AVX(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), R9
	MOVQ src+8(FP), SI
	MOVQ n+16(FP), CX
	VBROADCASTSS invScale+24(FP), Y5
	VBROADCASTSS z+28(FP), Y6
	MOVL         $0x3F000000, AX  // 0.5f
	VMOVD        AX, X7
	VPBROADCASTD X7, Y7
	VMOVDQU      quantPerm<>(SB), Y13

q8_loop:
	VMOVUPS    (SI), Y0
	VMOVUPS    32(SI), Y1
	VMOVUPS    64(SI), Y2
	VMOVUPS    96(SI), Y3
	VMULPS     Y5, Y0, Y0
	VMULPS     Y5, Y1, Y1
	VMULPS     Y5, Y2, Y2
	VMULPS     Y5, Y3, Y3
	VADDPS     Y6, Y0, Y0
	VADDPS     Y6, Y1, Y1
	VADDPS     Y6, Y2, Y2
	VADDPS     Y6, Y3, Y3
	VADDPS     Y7, Y0, Y0
	VADDPS     Y7, Y1, Y1
	VADDPS     Y7, Y2, Y2
	VADDPS     Y7, Y3, Y3
	VCVTTPS2DQ Y0, Y0
	VCVTTPS2DQ Y1, Y1
	VCVTTPS2DQ Y2, Y2
	VCVTTPS2DQ Y3, Y3
	VPACKSSDW  Y1, Y0, Y0
	VPACKSSDW  Y3, Y2, Y2
	VPACKUSWB  Y2, Y0, Y0
	VPERMD     Y0, Y13, Y0
	VMOVDQU    Y0, (R9)
	ADDQ       $128, SI
	ADDQ       $32, R9
	SUBQ       $32, CX
	JNZ        q8_loop
	VZEROUPPER
	RET

// func dequantRowAVX(dst *float32, c *int32, cs *int32, n int, corr int32, scale float32, bias float32)
//
// dst[i] = float32(c[i] − 128·cs[i] − corr)·scale + bias, n a multiple of
// 8. Separate VMULPS/VADDPS (no FMA) keep it bit-identical to the scalar
// loop.
TEXT ·dequantRowAVX(SB), NOSPLIT, $0-44
	MOVQ dst+0(FP), R9
	MOVQ c+8(FP), SI
	MOVQ cs+16(FP), DX
	MOVQ n+24(FP), CX
	MOVL  corr+32(FP), AX
	VMOVD AX, X4
	VPBROADCASTD X4, Y4
	VBROADCASTSS scale+36(FP), Y5
	VBROADCASTSS bias+40(FP), Y6

dq_loop:
	VMOVDQU   (SI), Y0
	VMOVDQU   (DX), Y1
	VPSLLD    $7, Y1, Y1
	VPSUBD    Y1, Y0, Y0
	VPSUBD    Y4, Y0, Y0
	VCVTDQ2PS Y0, Y0
	VMULPS    Y5, Y0, Y0
	VADDPS    Y6, Y0, Y0
	VMOVUPS   Y0, (R9)
	ADDQ      $32, SI
	ADDQ      $32, DX
	ADDQ      $32, R9
	SUBQ      $8, CX
	JNZ       dq_loop
	VZEROUPPER
	RET

// The convolution epilogue kernels (epilogue.go). Stages run in the
// negated domain: Go lowers max(x, y) to −min(−x, −y), so a chain of maxes
// is one sign flip in, a chain of GOMIN steps and one sign flip out — the
// double negations between steps cancel bit for bit. mode bit 0 adds the
// bias, bit 1 rectifies (min against −0, the sign mask itself).

// GOMINPD(x, y, t, u) sets x = min(x, y) exactly as Go lowers the float min
// builtin, lane by lane: t = x < y ? x : y; u = t < x ? t : x; x = u | t.
// Clobbers t and u.
#define GOMINPD(x, y, t, u) VMINPD y, x, t; VMINPD x, t, u; VORPD t, u, x
#define GOMINPS(x, y, t, u) VMINPS y, x, t; VMINPS x, t, u; VORPS t, u, x

// func rectifyF64AVX(dst *float64, src *float64, n int, bias float64, mode int)
//
// dst[i] = s(src[i]) with s(v) = max(v+bias, 0) (stages per mode), n a
// multiple of 4. dst may equal src.
TEXT ·rectifyF64AVX(SB), NOSPLIT, $0-40
	MOVQ         dst+0(FP), R9
	MOVQ         src+8(FP), SI
	MOVQ         n+16(FP), CX
	VBROADCASTSD bias+24(FP), Y14
	MOVQ         mode+32(FP), DX
	MOVQ         $0x8000000000000000, AX
	VMOVQ        AX, X15
	VPBROADCASTQ X15, Y15

rf64_loop:
	VMOVUPD (SI), Y0
	TESTQ   $1, DX
	JZ      rf64_relu
	VADDPD  Y14, Y0, Y0

rf64_relu:
	TESTQ  $2, DX
	JZ     rf64_store
	VXORPD Y15, Y0, Y0
	GOMINPD(Y0, Y15, Y1, Y2)
	VXORPD Y15, Y0, Y0

rf64_store:
	VMOVUPD Y0, (R9)
	ADDQ    $32, SI
	ADDQ    $32, R9
	SUBQ    $4, CX
	JNZ     rf64_loop
	VZEROUPPER
	RET

// func rectifyF32AVX(dst *float32, src *float32, n int, bias float32, mode int)
//
// The float32 twin of rectifyF64AVX; n a multiple of 8.
TEXT ·rectifyF32AVX(SB), NOSPLIT, $0-40
	MOVQ         dst+0(FP), R9
	MOVQ         src+8(FP), SI
	MOVQ         n+16(FP), CX
	VBROADCASTSS bias+24(FP), Y14
	MOVQ         mode+32(FP), DX
	MOVL         $0x80000000, AX
	VMOVD        AX, X15
	VPBROADCASTD X15, Y15

rf32_loop:
	VMOVUPS (SI), Y0
	TESTQ   $1, DX
	JZ      rf32_relu
	VADDPS  Y14, Y0, Y0

rf32_relu:
	TESTQ  $2, DX
	JZ     rf32_store
	VXORPS Y15, Y0, Y0
	GOMINPS(Y0, Y15, Y1, Y2)
	VXORPS Y15, Y0, Y0

rf32_store:
	VMOVUPS Y0, (R9)
	ADDQ    $32, SI
	ADDQ    $32, R9
	SUBQ    $8, CX
	JNZ     rf32_loop
	VZEROUPPER
	RET

// func rectifyPoolF64AVX(dst *float64, src *float64, rows, n, lds, ldd int, bias float64, mode int)
//
// For each of rows output rows y and each of n output columns x (n a
// multiple of 4): dst[y·ldd+x] = max(max(s(a), s(b)), max(s(c), s(d))) over
// a, b = src row 2y at columns 2x, 2x+1 and c, d = row 2y+1 (rows at stride
// lds). Per 4 outputs: two YMM loads per source row, stages lane-wise, an
// even/odd column split (VSHUFPD leaves the pairs in order 0 2 1 3), the
// horizontal then vertical min, and one VPERMPD to restore the order.
TEXT ·rectifyPoolF64AVX(SB), NOSPLIT, $0-64
	MOVQ         dst+0(FP), R9
	MOVQ         src+8(FP), SI
	MOVQ         rows+16(FP), BX
	MOVQ         n+24(FP), R8
	MOVQ         lds+32(FP), R10
	SHLQ         $3, R10
	MOVQ         ldd+40(FP), R11
	SHLQ         $3, R11
	VBROADCASTSD bias+48(FP), Y14
	MOVQ         mode+56(FP), DX
	MOVQ         $0x8000000000000000, AX
	VMOVQ        AX, X15
	VPBROADCASTQ X15, Y15

rp64_row:
	MOVQ SI, AX
	LEAQ (SI)(R10*1), DI
	MOVQ R9, R12
	MOVQ R8, CX

rp64_col:
	VMOVUPD (AX), Y0
	VMOVUPD 32(AX), Y1
	VMOVUPD (DI), Y2
	VMOVUPD 32(DI), Y3
	TESTQ   $1, DX
	JZ      rp64_neg
	VADDPD  Y14, Y0, Y0
	VADDPD  Y14, Y1, Y1
	VADDPD  Y14, Y2, Y2
	VADDPD  Y14, Y3, Y3

rp64_neg:
	VXORPD Y15, Y0, Y0
	VXORPD Y15, Y1, Y1
	VXORPD Y15, Y2, Y2
	VXORPD Y15, Y3, Y3
	TESTQ  $2, DX
	JZ     rp64_pool
	GOMINPD(Y0, Y15, Y4, Y5)
	GOMINPD(Y1, Y15, Y4, Y5)
	GOMINPD(Y2, Y15, Y4, Y5)
	GOMINPD(Y3, Y15, Y4, Y5)

rp64_pool:
	VSHUFPD $0x0, Y1, Y0, Y6
	VSHUFPD $0xF, Y1, Y0, Y7
	VSHUFPD $0x0, Y3, Y2, Y8
	VSHUFPD $0xF, Y3, Y2, Y9
	GOMINPD(Y6, Y7, Y4, Y5)
	GOMINPD(Y8, Y9, Y4, Y5)
	GOMINPD(Y6, Y8, Y4, Y5)
	VXORPD  Y15, Y6, Y6
	VPERMPD $0xD8, Y6, Y6
	VMOVUPD Y6, (R12)
	ADDQ    $64, AX
	ADDQ    $64, DI
	ADDQ    $32, R12
	SUBQ    $4, CX
	JNZ     rp64_col
	LEAQ    (SI)(R10*2), SI
	ADDQ    R11, R9
	DECQ    BX
	JNZ     rp64_row
	VZEROUPPER
	RET

// func rectifyPoolF32AVX(dst *float32, src *float32, rows, n, lds, ldd int, bias float32, mode int)
//
// The float32 twin of rectifyPoolF64AVX; n a multiple of 4. VSHUFPS splits
// even and odd columns per 128-bit lane, leaving the pooled pairs in order
// (0 1)(4 5)(2 3)(6 7), which the same VPERMPD restores. Groups of 8
// outputs, then at most one group of 4.
TEXT ·rectifyPoolF32AVX(SB), NOSPLIT, $0-64
	MOVQ         dst+0(FP), R9
	MOVQ         src+8(FP), SI
	MOVQ         rows+16(FP), BX
	MOVQ         n+24(FP), R8
	MOVQ         lds+32(FP), R10
	SHLQ         $2, R10
	MOVQ         ldd+40(FP), R11
	SHLQ         $2, R11
	VBROADCASTSS bias+48(FP), Y14
	MOVQ         mode+56(FP), DX
	MOVL         $0x80000000, AX
	VMOVD        AX, X15
	VPBROADCASTD X15, Y15

rp32_row:
	MOVQ SI, AX
	LEAQ (SI)(R10*1), DI
	MOVQ R9, R12
	MOVQ R8, CX
	CMPQ CX, $8
	JLT  rp32_half

rp32_col:
	VMOVUPS (AX), Y0
	VMOVUPS 32(AX), Y1
	VMOVUPS (DI), Y2
	VMOVUPS 32(DI), Y3
	TESTQ   $1, DX
	JZ      rp32_neg
	VADDPS  Y14, Y0, Y0
	VADDPS  Y14, Y1, Y1
	VADDPS  Y14, Y2, Y2
	VADDPS  Y14, Y3, Y3

rp32_neg:
	VXORPS Y15, Y0, Y0
	VXORPS Y15, Y1, Y1
	VXORPS Y15, Y2, Y2
	VXORPS Y15, Y3, Y3
	TESTQ  $2, DX
	JZ     rp32_pool
	GOMINPS(Y0, Y15, Y4, Y5)
	GOMINPS(Y1, Y15, Y4, Y5)
	GOMINPS(Y2, Y15, Y4, Y5)
	GOMINPS(Y3, Y15, Y4, Y5)

rp32_pool:
	VSHUFPS $0x88, Y1, Y0, Y6
	VSHUFPS $0xDD, Y1, Y0, Y7
	VSHUFPS $0x88, Y3, Y2, Y8
	VSHUFPS $0xDD, Y3, Y2, Y9
	GOMINPS(Y6, Y7, Y4, Y5)
	GOMINPS(Y8, Y9, Y4, Y5)
	GOMINPS(Y6, Y8, Y4, Y5)
	VXORPS  Y15, Y6, Y6
	VPERMPD $0xD8, Y6, Y6
	VMOVUPS Y6, (R12)
	ADDQ    $64, AX
	ADDQ    $64, DI
	ADDQ    $32, R12
	SUBQ    $8, CX
	CMPQ    CX, $8
	JGE     rp32_col

rp32_half:
	// A last group of 4 outputs: one YMM per source row, rows 2y and
	// 2y+1 split into even/odd columns together, so the horizontal min
	// leaves row 2y's pairs in dwords 0 1 4 5 and row 2y+1's in 2 3 6 7;
	// a half-lane swap lines them up for the vertical min.
	TESTQ   CX, CX
	JZ      rp32_next
	VMOVUPS (AX), Y0
	VMOVUPS (DI), Y2
	TESTQ   $1, DX
	JZ      rp32_hneg
	VADDPS  Y14, Y0, Y0
	VADDPS  Y14, Y2, Y2

rp32_hneg:
	VXORPS Y15, Y0, Y0
	VXORPS Y15, Y2, Y2
	TESTQ  $2, DX
	JZ     rp32_hpool
	GOMINPS(Y0, Y15, Y4, Y5)
	GOMINPS(Y2, Y15, Y4, Y5)

rp32_hpool:
	VSHUFPS $0x88, Y2, Y0, Y6
	VSHUFPS $0xDD, Y2, Y0, Y7
	GOMINPS(Y6, Y7, Y4, Y5)
	VSHUFPS $0x4E, Y6, Y6, Y8
	GOMINPS(Y6, Y8, Y4, Y5)
	VXORPS  Y15, Y6, Y6
	VPERMPD $0x08, Y6, Y6
	VMOVUPS X6, (R12)

rp32_next:
	LEAQ    (SI)(R10*2), SI
	ADDQ    R11, R9
	DECQ    BX
	JNZ     rp32_row
	VZEROUPPER
	RET

// func axpyRowF32AVX(dst *float32, src *float32, n int, alpha float32)
//
// dst[i] += alpha·src[i], n a multiple of 8 — the float32 ABFT checksum
// prediction pass. FMA reassociates nothing here (one product per element);
// the fused rounding only tightens the checksum.
TEXT ·axpyRowF32AVX(SB), NOSPLIT, $0-28
	MOVQ dst+0(FP), R9
	MOVQ src+8(FP), SI
	MOVQ n+16(FP), CX
	VBROADCASTSS alpha+24(FP), Y4

axf32_loop:
	VMOVUPS     (SI), Y0
	VMOVUPS     (R9), Y1
	VFMADD231PS Y4, Y0, Y1
	VMOVUPS     Y1, (R9)
	ADDQ        $32, SI
	ADDQ        $32, R9
	SUBQ        $8, CX
	JNZ         axf32_loop
	VZEROUPPER
	RET

// func axpyRowF64AVX(dst *float64, src *float64, n int, alpha float64)
//
// dst[i] += alpha·src[i], n a multiple of 4 — float64 variant.
TEXT ·axpyRowF64AVX(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), R9
	MOVQ src+8(FP), SI
	MOVQ n+16(FP), CX
	VBROADCASTSD alpha+24(FP), Y4

axf64_loop:
	VMOVUPD     (SI), Y0
	VMOVUPD     (R9), Y1
	VFMADD231PD Y4, Y0, Y1
	VMOVUPD     Y1, (R9)
	ADDQ        $32, SI
	ADDQ        $32, R9
	SUBQ        $4, CX
	JNZ         axf64_loop
	VZEROUPPER
	RET

// func sumAbsRowF32AVX(sum *float32, sumAbs *float32, row *float32, n int)
//
// sum[i] += row[i]; sumAbs[i] += |row[i]| (sign-bit mask), n a multiple of
// 8 — the ABFT measurement pass. NaN propagates into both accumulators.
TEXT ·sumAbsRowF32AVX(SB), NOSPLIT, $0-32
	MOVQ sum+0(FP), R9
	MOVQ sumAbs+8(FP), DX
	MOVQ row+16(FP), SI
	MOVQ n+24(FP), CX
	MOVL $0x7FFFFFFF, AX
	VMOVD AX, X5
	VPBROADCASTD X5, Y5

saf32_loop:
	VMOVUPS (SI), Y0
	VMOVUPS (R9), Y1
	VADDPS  Y0, Y1, Y1
	VMOVUPS Y1, (R9)
	VANDPS  Y5, Y0, Y0
	VMOVUPS (DX), Y2
	VADDPS  Y0, Y2, Y2
	VMOVUPS Y2, (DX)
	ADDQ    $32, SI
	ADDQ    $32, R9
	ADDQ    $32, DX
	SUBQ    $8, CX
	JNZ     saf32_loop
	VZEROUPPER
	RET

// func sumAbsRowF64AVX(sum *float64, sumAbs *float64, row *float64, n int)
//
// float64 variant of sumAbsRowF32AVX, n a multiple of 4.
TEXT ·sumAbsRowF64AVX(SB), NOSPLIT, $0-32
	MOVQ sum+0(FP), R9
	MOVQ sumAbs+8(FP), DX
	MOVQ row+16(FP), SI
	MOVQ n+24(FP), CX
	MOVQ $0x7FFFFFFFFFFFFFFF, AX
	VMOVQ AX, X5
	VPBROADCASTQ X5, Y5

saf64_loop:
	VMOVUPD (SI), Y0
	VMOVUPD (R9), Y1
	VADDPD  Y0, Y1, Y1
	VMOVUPD Y1, (R9)
	VANDPD  Y5, Y0, Y0
	VMOVUPD (DX), Y2
	VADDPD  Y0, Y2, Y2
	VMOVUPD Y2, (DX)
	ADDQ    $32, SI
	ADDQ    $32, R9
	ADDQ    $32, DX
	SUBQ    $4, CX
	JNZ     saf64_loop
	VZEROUPPER
	RET

// func predRowU8AVX(pred *int32, csRef *int32, b *uint8, n int, s int32)
//
// pred[j] += s·b[j]; csRef[j] += b[j], n a multiple of 8 — the int32 ABFT
// prediction pass over one uint8 B row. VPMULLD keeps the low 32 product
// bits, exactly the scalar int32 multiply, so the path is bit-equivalent
// to the pure-Go loop even when a corrupted operand wraps.
TEXT ·predRowU8AVX(SB), NOSPLIT, $0-36
	MOVQ pred+0(FP), R9
	MOVQ csRef+8(FP), DX
	MOVQ b+16(FP), SI
	MOVQ n+24(FP), CX
	MOVL s+32(FP), AX
	VMOVD AX, X5
	VPBROADCASTD X5, Y5

pru8_loop:
	VPMOVZXBD (SI), Y0
	VMOVDQU   (DX), Y2
	VPADDD    Y0, Y2, Y2
	VMOVDQU   Y2, (DX)
	VPMULLD   Y5, Y0, Y0
	VMOVDQU   (R9), Y1
	VPADDD    Y0, Y1, Y1
	VMOVDQU   Y1, (R9)
	ADDQ      $8, SI
	ADDQ      $32, R9
	ADDQ      $32, DX
	SUBQ      $8, CX
	JNZ       pru8_loop
	VZEROUPPER
	RET

// func sumRowI32AVX(acc *int32, row *int32, n int)
//
// acc[i] += row[i] with int32 wraparound, n a multiple of 8 — the int32
// ABFT measurement pass.
TEXT ·sumRowI32AVX(SB), NOSPLIT, $0-24
	MOVQ acc+0(FP), R9
	MOVQ row+8(FP), SI
	MOVQ n+16(FP), CX

sri32_loop:
	VMOVDQU (SI), Y0
	VMOVDQU (R9), Y1
	VPADDD  Y0, Y1, Y1
	VMOVDQU Y1, (R9)
	ADDQ    $32, SI
	ADDQ    $32, R9
	SUBQ    $8, CX
	JNZ     sri32_loop
	VZEROUPPER
	RET

// func scaleSetRowF32AVX(dst *float32, src *float32, n int, alpha float32)
//
// dst[i] = alpha·src[i], n a multiple of 8 — seeds the ABFT prediction
// buffer from the first B row so the pooled scratch never needs zeroing.
TEXT ·scaleSetRowF32AVX(SB), NOSPLIT, $0-28
	MOVQ dst+0(FP), R9
	MOVQ src+8(FP), SI
	MOVQ n+16(FP), CX
	VBROADCASTSS alpha+24(FP), Y4

ssf32_loop:
	VMOVUPS (SI), Y0
	VMULPS  Y4, Y0, Y0
	VMOVUPS Y0, (R9)
	ADDQ    $32, SI
	ADDQ    $32, R9
	SUBQ    $8, CX
	JNZ     ssf32_loop
	VZEROUPPER
	RET

// func setAbsRowF32AVX(sum *float32, sumAbs *float32, row *float32, n int)
//
// sum[i] = row[i]; sumAbs[i] = |row[i]|, n a multiple of 8 — seeds the
// ABFT measurement buffers from the first C row.
TEXT ·setAbsRowF32AVX(SB), NOSPLIT, $0-32
	MOVQ sum+0(FP), R9
	MOVQ sumAbs+8(FP), DX
	MOVQ row+16(FP), SI
	MOVQ n+24(FP), CX
	MOVL $0x7FFFFFFF, AX
	VMOVD AX, X5
	VPBROADCASTD X5, Y5

sab32_loop:
	VMOVUPS (SI), Y0
	VMOVUPS Y0, (R9)
	VANDPS  Y5, Y0, Y1
	VMOVUPS Y1, (DX)
	ADDQ    $32, SI
	ADDQ    $32, R9
	ADDQ    $32, DX
	SUBQ    $8, CX
	JNZ     sab32_loop
	VZEROUPPER
	RET

// func proxyScanF32AVX(pred *float32, act *float32, actAbs *float32, start int, n int, scale float32, floor float32) int
//
// Scans the fast verification tier eight columns at a time from index
// start (a multiple of 8) to n (a multiple of 8): a lane passes when
// |pred−act| ≤ scale·actAbs + floor and that tolerance is finite. Returns
// the first index whose 8-lane block contains a failing lane (the caller
// re-judges those columns exactly), or n when every remaining lane passes.
// The LE_OQ predicate is false on NaN in either operand, so non-finite
// data always fails a lane rather than passing it.
TEXT ·proxyScanF32AVX(SB), NOSPLIT, $0-56
	MOVQ pred+0(FP), DI
	MOVQ act+8(FP), SI
	MOVQ actAbs+16(FP), DX
	MOVQ start+24(FP), CX
	MOVQ n+32(FP), BX
	VBROADCASTSS scale+40(FP), Y1
	VBROADCASTSS floor+44(FP), Y2
	MOVL $0x7FFFFFFF, AX
	VMOVD AX, X5
	VPBROADCASTD X5, Y3 // |x| mask
	MOVL $0x7F7FFFFF, AX
	VMOVD AX, X5
	VPBROADCASTD X5, Y4 // MaxFloat32
	CMPQ CX, BX
	JGE  pscan_done

pscan_loop:
	VMOVUPS   (DI)(CX*4), Y5
	VSUBPS    (SI)(CX*4), Y5, Y5
	VANDPS    Y3, Y5, Y5 // d = |pred − act|
	VMOVUPS   (DX)(CX*4), Y6
	VMULPS    Y1, Y6, Y6
	VADDPS    Y2, Y6, Y6 // t = scale·actAbs + floor
	VCMPPS    $0x12, Y6, Y5, Y7 // d ≤ t (LE_OQ)
	VCMPPS    $0x12, Y4, Y6, Y8 // t ≤ MaxFloat32
	VANDPS    Y8, Y7, Y7
	VMOVMSKPS Y7, AX
	CMPL      AX, $0xFF
	JNE       pscan_done
	ADDQ      $8, CX
	CMPQ      CX, BX
	JLT       pscan_loop

pscan_done:
	MOVQ CX, ret+48(FP)
	VZEROUPPER
	RET
