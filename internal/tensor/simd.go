package tensor

import "sync/atomic"

// Architecture-independent surface of the SIMD acceleration layer: the
// runtime switch, and the dispatching wrappers the reduced-precision
// backends call. Each wrapper runs the assembly microkernel when available
// and falls back to the pure-Go reference otherwise; see simd_amd64.go for
// what is accelerated and which wrappers preserve bit-identity.

// simdOff is the runtime kill-switch, stored inverted so the zero value
// means "on". Tests toggle it via SetSIMD to cover both implementations.
var simdOff atomic.Bool

// SIMDAvailable reports whether this binary can use the vector kernels on
// this machine (amd64 with AVX2+FMA and OS vector-state support).
func SIMDAvailable() bool { return simdAvailable }

// SIMDEnabled reports whether the vector kernels are available AND not
// disabled via SetSIMD — i.e. whether dispatching wrappers will take the
// assembly route right now. Kernel selection heuristics (e.g. Winograd vs
// im2col+FMA in the f32 convolution) key off this.
func SIMDEnabled() bool { return useSIMD() }

// SetSIMD enables or disables the vector kernels at runtime and returns
// the previous effective state. Enabling on unsupported hardware is a
// no-op: the pure-Go kernels keep running.
func SetSIMD(on bool) bool {
	prev := simdAvailable && !simdOff.Load()
	simdOff.Store(!on)
	return prev
}

// GemmInto32Fast computes C = A×B like GemmInto32, dispatching to the FMA
// microkernel when available. Unlike GemmInto32 it does NOT guarantee
// bit-identical results to the naive i-k-j kernel: the 4×16 FMA blocks
// accumulate in a different association (fused, 16 lanes). Every column
// of rows < m&^3 takes that microkernel — the n mod 16 tail through
// fmaGemmTail16 — and the remaining rows are scalar for every column, so a
// column's result does not depend on how many columns sit beside it. It is
// the GEMM of the f32 backend's convolution path, where float32 rounding
// already bounds accuracy (DESIGN.md §9).
func GemmInto32Fast(c, a, b *T32) {
	m, k := a.Shape[0], a.Shape[1]
	n := b.Shape[1]
	if b.Shape[0] != k || c.Shape[0] != m || c.Shape[1] != n {
		panic("tensor: GemmInto32Fast shape mismatch")
	}
	if !useSIMD() || k == 0 {
		GemmInto32(c, a, b)
		return
	}
	cd, ad, bd := c.Data, a.Data, b.Data
	mb, nb := m&^3, n&^15
	for j := 0; j < nb; j += 16 {
		for i := 0; i < mb; i += 4 {
			fmaGemm4x16(&ad[i*k], k, &bd[j], n, &cd[i*n+j], n, k)
		}
	}
	if nb < n {
		fmaGemmTail16(cd, ad, bd, mb, nb, n-nb, k, n, n)
	}
	if mb < m {
		gemm32ScalarRegion(cd, ad, bd, mb, m, 0, n, k, n, n)
	}
}

// fmaGemmTail16 computes the C sub-block [0,mb)×[j0,j0+w), w < 16 and mb a
// multiple of 4, with the same fused microkernel as the full 16-column
// panels: the k×w tail of B is copied into a zero-padded k×16 scratch,
// fmaGemm4x16 runs into a 4×16 scratch C, and the w valid columns are
// copied out. Lanes are independent, so a tail column gets exactly the
// arithmetic it would get inside a full panel — which is what makes an
// image's output independent of where in the batch it sits (the columns
// are B·OH·OW, so the tail is the last image's). ldc/ldb as in
// gemm32ScalarRegion.
func fmaGemmTail16(cd, ad, bd []float32, mb, j0, w, k, ldc, ldb int) {
	if mb == 0 {
		return
	}
	sp := getBlk32(k*16 + 4*16)
	bp, cp := (*sp)[:k*16], (*sp)[k*16:]
	for p := 0; p < k; p++ {
		row := bp[p*16 : (p+1)*16]
		clear(row[copy(row, bd[p*ldb+j0:p*ldb+j0+w]):])
	}
	for i := 0; i < mb; i += 4 {
		fmaGemm4x16(&ad[i*k], k, &bp[0], 16, &cp[0], 16, k)
		for r := 0; r < 4; r++ {
			copy(cd[(i+r)*ldc+j0:(i+r)*ldc+j0+w], cp[r*16:])
		}
	}
	putBlk32(sp)
}

// gemm32ScalarRegion computes the C sub-block [i0,i1)×[j0,j1) with the
// scalar i-k-j kernel — the row remainder (m mod 4) of GemmInto32Fast,
// which runs scalar for every column so no column is treated differently
// from its neighbours. ldc/ldb are C's and B's row strides (both n on the
// explicit path; the implicit conv path passes a generated block with
// ldb = block width).
func gemm32ScalarRegion(cd, ad, bd []float32, i0, i1, j0, j1, k, ldc, ldb int) {
	for i := i0; i < i1; i++ {
		crow := cd[i*ldc+j0 : i*ldc+j1]
		for x := range crow {
			crow[x] = 0
		}
		for p := 0; p < k; p++ {
			av := ad[i*k+p]
			brow := bd[p*ldb+j0 : p*ldb+j1]
			for x, bv := range brow {
				crow[x] += av * bv
			}
		}
	}
}

// DequantRow computes dst[i] = float32(c[i] − 128·cs[i] − corr)·scale +
// bias — the fused dequantize + bias epilogue of the int8 convolution and
// dense kernels (c holds biased GEMM accumulators, cs the matching column
// sums). Results are bit-identical between the vector and scalar paths.
func DequantRow(dst []float32, c, cs []int32, corr int32, scale, bias float32) {
	n := len(dst)
	i := 0
	if useSIMD() {
		if nb := n &^ 7; nb > 0 {
			dequantRowAVX(&dst[0], &c[0], &cs[0], nb, corr, scale, bias)
			i = nb
		}
	}
	for ; i < n; i++ {
		dst[i] = float32(c[i]-128*cs[i]-corr)*scale + bias
	}
}

// AddBiasRow computes dst[i] = src[i] + bias — the bias + transpose
// epilogue of the f32 convolution path. Bit-identical between paths.
func AddBiasRow(dst, src []float32, bias float32) {
	n := len(dst)
	i := 0
	if useSIMD() {
		if nb := n &^ 7; nb > 0 {
			addBiasRowAVX(&dst[0], &src[0], nb, bias)
			i = nb
		}
	}
	for ; i < n; i++ {
		dst[i] = src[i] + bias
	}
}
