package tensor

import (
	"fmt"
	"unsafe"
)

// Architecture-independent surface of the SIMD acceleration layer: the
// dispatching wrappers the inference backends call. The machine picks the
// kernels: each wrapper runs the assembly microkernel where the CPU has
// AVX2+FMA (simdAvailable, a CPUID result on amd64 and false elsewhere)
// and its pure-Go body otherwise; see simd_amd64.go for what is
// accelerated and which wrappers preserve bit-identity.

// SIMDAvailable reports whether this binary uses the vector kernels on
// this machine (amd64 with AVX2+FMA and OS vector-state support).
func SIMDAvailable() bool { return simdAvailable }

// GemmInto32Fast computes C = A×B for float32 tensors with the GEMM of
// the explicit conv lowering (gemmServed). Its only caller is the
// benchmark kernel probe; the served convolution reaches the same GEMM
// through Conv.
func GemmInto32Fast(c, a, b *T32) {
	as, bs, cs := a.Shape, b.Shape, c.Shape
	if len(as) != 2 || len(bs) != 2 || len(cs) != 2 || bs[0] != as[1] || cs[0] != as[0] || cs[1] != bs[1] {
		panic(fmt.Sprintf("tensor: GemmInto32Fast shape mismatch: C%v = A%v × B%v", cs, as, bs))
	}
	gemmServed(c.Data, a.Data, b.Data, as[0], as[1], bs[1])
}

// gemmServed computes the m×n product C = A×B (A m×k, B k×n) with the FMA
// driver on AVX2 machines and the bit-exact blocked GEMM gemmMain (its
// pure-Go body) elsewhere. It does NOT match the naive i-k-j kernel bit
// for bit: each column is still one ascending-k chain, but every step is a
// fused multiply-add (one rounding, not two). A column's bits depend only
// on its own A rows and B column, never on how many columns sit beside it
// (see gemmFMA).
func gemmServed[F Float](cd, ad, bd []F, m, k, n int) {
	if !simdAvailable || k == 0 {
		gemmMain(cd, ad, bd, m, k, n)
		return
	}
	gemmFMA(cd, ad, bd, m, k, n, n, n)
}

// fmaLanes is the column width of F's FMA microkernel. Both kernels hold
// a 4-row block in two YMM registers (64 bytes) per row: 16 float32 or 8
// float64 columns.
func fmaLanes[F Float]() int {
	var z F
	return 64 / int(unsafe.Sizeof(z))
}

// fmaGemm4 runs F's microkernel — fmaGemm4x16 for float32, fmaGemm4x8F64
// for float64 — on C[0:4][0:fmaLanes] = A[0:4][0:k] × B[0:k][0:fmaLanes]
// (row strides lda/ldb/ldc in elements, k ≥ 1). The size test is a
// constant in each instantiation.
func fmaGemm4[F Float](a *F, lda int, b *F, ldb int, c *F, ldc int, k int) {
	if unsafe.Sizeof(*a) == 4 {
		fmaGemm4x16((*float32)(unsafe.Pointer(a)), lda, (*float32)(unsafe.Pointer(b)), ldb, (*float32)(unsafe.Pointer(c)), ldc, k)
		return
	}
	fmaGemm4x8F64((*float64)(unsafe.Pointer(a)), lda, (*float64)(unsafe.Pointer(b)), ldb, (*float64)(unsafe.Pointer(c)), ldc, k)
}

// gemmFMA is the one FMA GEMM driver of both float widths: it computes
// C[0:m][0:n] = A×B for A m×k (row stride k, k ≥ 1), B k×n (row stride
// ldb) and C row stride ldc — both n on the explicit path; the implicit
// conv path passes a generated block with ldb = block width. Every column
// of rows < m&^3 takes the microkernel, the n mod fmaLanes tail through
// fmaGemmTail, and the remaining rows are scalar for every column, so a
// column's result does not depend on how many columns sit beside it.
func gemmFMA[F Float](cd, ad, bd []F, m, k, n, ldc, ldb int) {
	w := fmaLanes[F]()
	mb, nb := m&^3, n-n%w
	for j := 0; j < nb; j += w {
		for i := 0; i < mb; i += 4 {
			fmaGemm4(&ad[i*k], k, &bd[j], ldb, &cd[i*ldc+j], ldc, k)
		}
	}
	if nb < n {
		fmaGemmTail(cd, ad, bd, mb, nb, n-nb, k, ldc, ldb)
	}
	if mb < m {
		gemmScalarRegion(cd, ad, bd, mb, m, 0, n, k, ldc, ldb)
	}
}

// fmaGemmTail computes the C sub-block [0,mb)×[j0,j0+tw), tw < fmaLanes
// and mb a multiple of 4, with the same fused microkernel as the full
// panels: the k×tw tail of B is copied into a zero-padded k×fmaLanes
// scratch, the microkernel runs into a 4×fmaLanes scratch C, and the tw
// valid columns are copied out. Lanes are independent, so a tail column
// gets exactly the arithmetic it would get inside a full panel — which is
// what makes an image's output independent of where in the batch it sits
// (the columns are B·OH·OW, so the tail is the last image's). ldc/ldb as
// in gemmFMA.
func fmaGemmTail[F Float](cd, ad, bd []F, mb, j0, tw, k, ldc, ldb int) {
	if mb == 0 {
		return
	}
	w := fmaLanes[F]()
	sp := implicitBlk[F](k*w + 4*w)
	bp, cp := (*sp)[:k*w], (*sp)[k*w:]
	for p := 0; p < k; p++ {
		row := bp[p*w : (p+1)*w]
		clear(row[copy(row, bd[p*ldb+j0:p*ldb+j0+tw]):])
	}
	for i := 0; i < mb; i += 4 {
		fmaGemm4(&ad[i*k], k, &bp[0], w, &cp[0], w, k)
		for r := 0; r < 4; r++ {
			copy(cd[(i+r)*ldc+j0:(i+r)*ldc+j0+tw], cp[r*w:])
		}
	}
	implicitBlkPut(sp)
}

// gemmScalarRegion computes the C sub-block [i0,i1)×[j0,j1) with the
// scalar i-k-j kernel — the row remainder (m mod 4) of gemmFMA, which runs
// scalar for every column so no column is treated differently from its
// neighbours. ldc/ldb as in gemmFMA.
func gemmScalarRegion[F Float](cd, ad, bd []F, i0, i1, j0, j1, k, ldc, ldb int) {
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
// sums). Results are bit-identical between the vector body and
// dequantRowGo, its pure-Go body.
func DequantRow(dst []float32, c, cs []int32, corr int32, scale, bias float32) {
	i := 0
	if simdAvailable {
		if nb := len(dst) &^ 7; nb > 0 {
			dequantRowAVX(&dst[0], &c[0], &cs[0], nb, corr, scale, bias)
			i = nb
		}
	}
	dequantRowGo(dst[i:], c[i:], cs[i:], corr, scale, bias)
}

// dequantRowGo is DequantRow's pure-Go body.
func dequantRowGo(dst []float32, c, cs []int32, corr int32, scale, bias float32) {
	for i := range dst {
		dst[i] = float32(c[i]-128*cs[i]-corr)*scale + bias
	}
}
