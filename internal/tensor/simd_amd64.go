//go:build amd64

package tensor

// AVX2/FMA microkernels for every inference backend (DESIGN.md §7, §9).
// The assembly routines below are drop-in accelerations of the innermost
// blocks of the pure-Go kernels in gemm.go and int8.go, dispatched at
// runtime behind a CPUID check (AVX2 + FMA + OS YMM state support). The
// integer kernel computes bit-for-bit the same int32 results as the scalar
// SWAR path — vpmaddwd over zero-extended bytes is exact
// (TestGemmU8IntoSIMDExact). The float GEMM kernels are the AVX2 body of
// fmaGemm4 and fuse each multiply-add (one rounding instead of the Go
// body's two), so an AVX2 machine serves different float bits from a
// pure-Go target; on one machine every float product runs the same
// microkernel chain (gemm.go). There is no switch: a machine with the
// features runs these kernels, any other runs the pure-Go bodies, and
// both serve the same lowering.

//go:noescape
func cpuidAsm(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

//go:noescape
func xgetbv0() (eax, edx uint32)

// fmaGemm4x16 computes the 4×16 float32 block C[0:4][0:16] (row stride ldc
// elements, overwritten) = A[0:4][0:k] (row stride lda) × B[0:k][0:16]
// (row stride ldb) with two-YMM FMA accumulators per row. k must be ≥ 1.
//
//go:noescape
func fmaGemm4x16(a *float32, lda int, b *float32, ldb int, c *float32, ldc int, k int)

// fmaGemm4x8F64 is the float64 twin of fmaGemm4x16: the 4×8 block
// C[0:4][0:8] = A[0:4][0:k] × B[0:k][0:8], two YMM accumulators per row.
//
//go:noescape
func fmaGemm4x8F64(a *float64, lda int, b *float64, ldb int, c *float64, ldc int, k int)

// u8GemmRow32 computes one GEMM row block c[0:32] (int32, overwritten) =
// Σ_p a[p]·b[p·ldb : p·ldb+32] over uint8 operands. The products are formed
// with vpmaddwd on zero-extended bytes and accumulated in int32 lanes —
// exactly the scalar arithmetic of gemmU8Quad, including its overflow
// bound (k ≤ MaxQuantK). k must be ≥ 1; odd k is handled with a zero row.
//
//go:noescape
func u8GemmRow32(a *uint8, b *uint8, ldb int, c *int32, k int)

// u8Gemm2x32 is the two-row variant of u8GemmRow32: rows i and i+1 of A
// (row stride lda bytes) against the same 32-column B block, written to two
// C rows (stride ldc elements). Sharing one zero-extend + interleave of B
// between the rows halves the shuffle-port pressure that bounds the
// single-row kernel. Same exact-arithmetic contract.
//
//go:noescape
func u8Gemm2x32(a *uint8, lda int, b *uint8, ldb int, c *int32, ldc int, k int)

// u8ConvTaps2x32 computes the direct convolution's 2×32 block: C rows 0
// and 1 (stride ldc elements, overwritten) = the weight dword rows at w and
// w+ldw, each [kw][kf], against the kf channel-pair rows of b (stride ldb
// bytes) read at column offsets 0..kw-1 — every kernel tap in one sweep.
// Exact int32 arithmetic, as u8Gemm2x32; kf and kw must be ≥ 1.
//
//go:noescape
func u8ConvTaps2x32(w *uint32, ldw int, b *uint8, ldb int, c *int32, ldc int, kf int, kw int)

// interleaveU8AVX writes d[2x] = s0[x] and d[2x+1] = s1[x] for x in
// [0, n); n must be a multiple of 8.
//
//go:noescape
func interleaveU8AVX(d *uint8, s0 *uint8, s1 *uint8, n int)

// quantizeU8AVX quantizes n float32 values (n a multiple of 32) to uint8:
// dst[i] = clamp(trunc(src[i]·invScale + z + 0.5), 0, 255), bit-identical
// to QuantizeU8's scalar loop including its out-of-range and NaN behavior.
//
//go:noescape
func quantizeU8AVX(dst *uint8, src *float32, n int, invScale float32, z float32)

// dequantRowAVX computes dst[i] = float32(c[i] − 128·cs[i] − corr)·scale +
// bias for i in [0, n); n must be a multiple of 8. Multiply and add are
// separate (no FMA) so the result is bit-identical to the scalar loop.
//
//go:noescape
func dequantRowAVX(dst *float32, c *int32, cs *int32, n int, corr int32, scale float32, bias float32)

// rectifyF64AVX computes dst[i] = s(src[i]) for i in [0, n), n a multiple
// of 4, where s adds bias (mode bit 0) and rectifies (mode bit 1) — the
// element stages of RectifyPool, bit-identical to its scalar loop.
//
//go:noescape
func rectifyF64AVX(dst *float64, src *float64, n int, bias float64, mode int)

// rectifyF32AVX is the float32 rectifyF64AVX; n must be a multiple of 8.
//
//go:noescape
func rectifyF32AVX(dst *float32, src *float32, n int, bias float32, mode int)

// rectifyPoolF64AVX computes rows×n outputs (n a multiple of 4) of
// RectifyPool's 2×2 pooling stage: output row y (stride ldd) from source
// rows 2y and 2y+1 (stride lds), element stages as rectifyF64AVX.
//
//go:noescape
func rectifyPoolF64AVX(dst *float64, src *float64, rows, n, lds, ldd int, bias float64, mode int)

// rectifyPoolF32AVX is the float32 rectifyPoolF64AVX; n must be a
// multiple of 4.
//
//go:noescape
func rectifyPoolF32AVX(dst *float32, src *float32, rows, n, lds, ldd int, bias float32, mode int)

// axpyRowF32AVX computes dst[i] += alpha·src[i] for i in [0, n); n must be
// a multiple of 8. The ABFT float32 checksum prediction pass.
//
//go:noescape
func axpyRowF32AVX(dst *float32, src *float32, n int, alpha float32)

// axpyRowF64AVX computes dst[i] += alpha·src[i] for i in [0, n); n must be
// a multiple of 4.
//
//go:noescape
func axpyRowF64AVX(dst *float64, src *float64, n int, alpha float64)

// sumAbsRowF32AVX computes sum[i] += row[i] and sumAbs[i] += |row[i]| for
// i in [0, n); n must be a multiple of 8. The ABFT measurement pass.
//
//go:noescape
func sumAbsRowF32AVX(sum *float32, sumAbs *float32, row *float32, n int)

// sumAbsRowF64AVX is the float64 variant of sumAbsRowF32AVX; n must be a
// multiple of 4.
//
//go:noescape
func sumAbsRowF64AVX(sum *float64, sumAbs *float64, row *float64, n int)

// predRowU8AVX computes pred[j] += s·b[j] and csRef[j] += b[j] for j in
// [0, n); n must be a multiple of 8. Identical int32 wraparound arithmetic
// to the scalar loop.
//
//go:noescape
func predRowU8AVX(pred *int32, csRef *int32, b *uint8, n int, s int32)

// sumRowI32AVX computes acc[i] += row[i] (int32 wraparound) for i in
// [0, n); n must be a multiple of 8.
//
//go:noescape
func sumRowI32AVX(acc *int32, row *int32, n int)

// scaleSetRowF32AVX computes dst[i] = alpha·src[i] for i in [0, n); n must
// be a multiple of 8. Seeds the ABFT prediction buffer without a zero pass.
//
//go:noescape
func scaleSetRowF32AVX(dst *float32, src *float32, n int, alpha float32)

// setAbsRowF32AVX computes sum[i] = row[i] and sumAbs[i] = |row[i]| for i
// in [0, n); n must be a multiple of 8.
//
//go:noescape
func setAbsRowF32AVX(sum *float32, sumAbs *float32, row *float32, n int)

// proxyScanF32AVX scans the ABFT fast tier from column start to n (both
// multiples of 8) and returns the first index whose 8-lane block holds a
// column with |pred[j]−act[j]| > scale·actAbs[j]+floor (or a non-finite
// tolerance), or n when all remaining lanes pass.
//
//go:noescape
func proxyScanF32AVX(pred *float32, act *float32, actAbs *float32, start int, n int, scale float32, floor float32) int

// simdAvailable reports hardware+OS support for the AVX2/FMA kernels.
var simdAvailable = detectAVX2FMA()

func detectAVX2FMA() bool {
	maxLeaf, _, _, _ := cpuidAsm(0, 0)
	if maxLeaf < 7 {
		return false
	}
	_, _, ecx1, _ := cpuidAsm(1, 0)
	const osxsave, fma = 1 << 27, 1 << 12
	if ecx1&osxsave == 0 || ecx1&fma == 0 {
		return false
	}
	if lo, _ := xgetbv0(); lo&0x6 != 0x6 { // OS saves XMM+YMM state
		return false
	}
	_, ebx7, _, _ := cpuidAsm(7, 0)
	return ebx7&(1<<5) != 0 // AVX2
}
