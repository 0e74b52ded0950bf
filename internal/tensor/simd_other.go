//go:build !amd64

package tensor

// Non-amd64 targets run the pure-Go kernels unconditionally. The stubs
// below are never reached (simdAvailable is constant false), they exist
// only to satisfy the shared call sites.

const simdAvailable = false

func fmaGemm4x16(a *float32, lda int, b *float32, ldb int, c *float32, ldc int, k int) {
	panic("tensor: SIMD kernel called on non-amd64 target")
}

func fmaGemm4x8F64(a *float64, lda int, b *float64, ldb int, c *float64, ldc int, k int) {
	panic("tensor: SIMD kernel called on non-amd64 target")
}

func u8GemmRow32(a *uint8, b *uint8, ldb int, c *int32, k int) {
	panic("tensor: SIMD kernel called on non-amd64 target")
}

func u8Gemm2x32(a *uint8, lda int, b *uint8, ldb int, c *int32, ldc int, k int) {
	panic("tensor: SIMD kernel called on non-amd64 target")
}

func u8ConvTaps2x32(w *uint32, ldw int, b *uint8, ldb int, c *int32, ldc int, kf int, kw int) {
	panic("tensor: SIMD kernel called on non-amd64 target")
}

func interleaveU8AVX(d *uint8, s0 *uint8, s1 *uint8, n int) {
	panic("tensor: SIMD kernel called on non-amd64 target")
}

func quantizeU8AVX(dst *uint8, src *float32, n int, invScale float32, z float32) {
	panic("tensor: SIMD kernel called on non-amd64 target")
}

func dequantRowAVX(dst *float32, c *int32, cs *int32, n int, corr int32, scale float32, bias float32) {
	panic("tensor: SIMD kernel called on non-amd64 target")
}

func rectifyF64AVX(dst *float64, src *float64, n int, bias float64, mode int) {
	panic("tensor: SIMD kernel called on non-amd64 target")
}

func rectifyF32AVX(dst *float32, src *float32, n int, bias float32, mode int) {
	panic("tensor: SIMD kernel called on non-amd64 target")
}

func rectifyPoolF64AVX(dst *float64, src *float64, rows, n, lds, ldd int, bias float64, mode int) {
	panic("tensor: SIMD kernel called on non-amd64 target")
}

func rectifyPoolF32AVX(dst *float32, src *float32, rows, n, lds, ldd int, bias float32, mode int) {
	panic("tensor: SIMD kernel called on non-amd64 target")
}

func axpyRowF32AVX(dst *float32, src *float32, n int, alpha float32) {
	panic("tensor: SIMD kernel called on non-amd64 target")
}

func axpyRowF64AVX(dst *float64, src *float64, n int, alpha float64) {
	panic("tensor: SIMD kernel called on non-amd64 target")
}

func sumAbsRowF32AVX(sum *float32, sumAbs *float32, row *float32, n int) {
	panic("tensor: SIMD kernel called on non-amd64 target")
}

func sumAbsRowF64AVX(sum *float64, sumAbs *float64, row *float64, n int) {
	panic("tensor: SIMD kernel called on non-amd64 target")
}

func predRowU8AVX(pred *int32, csRef *int32, b *uint8, n int, s int32) {
	panic("tensor: SIMD kernel called on non-amd64 target")
}

func sumRowI32AVX(acc *int32, row *int32, n int) {
	panic("tensor: SIMD kernel called on non-amd64 target")
}

func scaleSetRowF32AVX(dst *float32, src *float32, n int, alpha float32) {
	panic("tensor: SIMD kernel called on non-amd64 target")
}

func setAbsRowF32AVX(sum *float32, sumAbs *float32, row *float32, n int) {
	panic("tensor: SIMD kernel called on non-amd64 target")
}

func proxyScanF32AVX(pred *float32, act *float32, actAbs *float32, start int, n int, scale float32, floor float32) int {
	panic("tensor: SIMD kernel called on non-amd64 target")
}
