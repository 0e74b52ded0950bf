package tensor

import (
	"fmt"
	"unsafe"
)

// Implicit-GEMM convolution (DESIGN.md §14). The explicit lowering
// materializes the whole [InC·KH·KW, B·OutH·OutW] im2col matrix — for a
// B=32 convnet stem that is a multi-megabyte intermediate written once
// and then streamed back through the GEMM, twice over the memory bus for
// data that is pure index permutation of the input images. The drivers
// here instead generate each cache-blocked B panel on the fly, directly
// from the image tensor, into a small block of the caller's arena that
// stays L1/L2 resident while every row group of the weight matrix sweeps
// it, and is released when the driver returns. The full column matrix
// never exists.
//
// Bit-identity contract: the float driver runs each generated block
// through the one float GEMM driver (gemmFMA), and a column's bits depend
// only on its own A rows and B column, not on the block it sits in — so
// the implicit results are bit-identical to im2col followed by the served
// GEMM (gemmServed) at both widths, on either microkernel body. The int8
// drivers' integer accumulation is exact in any order, so they match
// Im2ColBatchU8+GemmU8Into. TestImplicitGemm* lock both.

// ConvGemmIm2Col computes cm = weight × im2col(batch) for the f64 path
// without materializing the column matrix: cm is [OutC, bsz·OutH·OutW],
// weight [OutC, InC·KH·KW], src the packed image-major batch. Results are
// bit-identical to Im2ColBatch followed by the served GEMM (see convGemm).
// Its only caller is the benchmark kernel probe; served convolutions reach
// the driver through Conv. It draws its scratch from a private arena.
func ConvGemmIm2Col(cm, weight *T, src []float64, bsz int, g ConvGeom) {
	m, k, n := implicitCheck(cm.Shape, weight.Shape, len(src), bsz, g, "ConvGemmIm2Col")
	convGemm(cm.Data, weight.Data, src, m, k, n, bsz, g, NewArena())
}

// implicitJW is the column width of the generation blocks of the implicit
// paths. Wide blocks matter: im2colBlock pays a fixed setup per block row
// and per image run in it, and at stride 1 with OutW == InW copies each
// run as one band, so 256-column blocks spend their time in long copies
// as the explicit lowering does — while the block still fits L1/L2 for
// every zoo K. Any width preserves bit-identity (each output element
// remains one k-chain; only the block row stride changes).
const implicitJW = 256

// ImplicitConvMinN is the minimum GEMM width bsz·OutH·OutW at which
// Conv runs the float implicit-GEMM driver instead of the explicit
// lowering. At the engine's tile widths the two cost the same within
// noise on most zoo convs, and explicit leads on the one- and
// three-channel stems (DESIGN.md §7 has the table). The int8 direct
// driver has no such floor: it never generates columns at all.
const ImplicitConvMinN = 4096

// ConvGemmIm2Col32 is ConvGemmIm2Col for float32: bit-identical to
// Im2ColBatch32 followed by GemmInto32Fast. Like it, its only caller is
// the benchmark kernel probe.
func ConvGemmIm2Col32(cm, weight *T32, src []float32, bsz int, g ConvGeom) {
	m, k, n := implicitCheck(cm.Shape, weight.Shape, len(src), bsz, g, "ConvGemmIm2Col32")
	convGemm(cm.Data, weight.Data, src, m, k, n, bsz, g, NewArena())
}

// convGemm is the implicit-GEMM driver of both float widths: it generates
// implicitJW-column panels into scratch from a and runs each through
// gemmFMA, so every column is the chain the explicit lowering feeding the
// served GEMM computes.
func convGemm[F Float](cd, ad, src []F, m, k, n, bsz int, g ConvGeom, a *Arena) {
	if k == 0 {
		clear(cd[:m*n])
		return
	}
	mk := a.Mark()
	blk := Raw[F](a, k*implicitJW)
	assertAligned64("FMA B panel", unsafe.Pointer(&blk[0]))
	for jb := 0; jb < n; jb += implicitJW {
		bw := min(implicitJW, n-jb)
		b := blk[:k*bw]
		im2colBlock(b, src, g, 0, k, jb, bw, bw, 0)
		gemmFMA(cd[jb:], ad, b, m, k, bw, n, bw, a)
	}
	a.Release(mk)
}

// implicitCheck validates the operand shapes shared by the implicit conv
// drivers and returns (m, k, n).
func implicitCheck(cmShape, wShape []int, srcLen, bsz int, g ConvGeom, name string) (m, k, n int) {
	k = g.InC * g.KH * g.KW
	n = bsz * g.OutH() * g.OutW()
	chw := g.InC * g.InH * g.InW
	if len(wShape) != 2 || wShape[1] != k {
		panic(fmt.Sprintf("tensor: %s weight %v, want [_, %d]", name, wShape, k))
	}
	m = wShape[0]
	if len(cmShape) != 2 || cmShape[0] != m || cmShape[1] != n {
		panic(fmt.Sprintf("tensor: %s dst %v, want [%d %d]", name, cmShape, m, n))
	}
	if srcLen != bsz*chw {
		panic(fmt.Sprintf("tensor: %s src len %d, want %d", name, srcLen, bsz*chw))
	}
	return m, k, n
}

// ConvGemmU8Im2Col is the implicit lowering of the int8 convolution:
// c (int32, [m, bsz·OutH·OutW]) = a (biased uint8 weights, [m, k]) ×
// im2col(qsrc), with per-column sums in colsum, padding positions taking
// the zero point zp. Integer results are identical to Im2ColBatchU8
// followed by GemmU8Into for any blocking, so this is bit-identical to
// the explicit path by construction. Its only caller is the benchmark
// kernel probe (served convolutions reach the driver through ConvU8); it
// draws its scratch from a private arena.
func ConvGemmU8Im2Col(c, colsum []int32, a []uint8, m int, qsrc []uint8, bsz int, g ConvGeom, zp uint8) {
	convGemmU8(c, colsum, a, qsrc, m, g.InC*g.KH*g.KW, bsz*g.OutH()*g.OutW(), bsz, g, zp, simdAvailable, NewArena())
}

// convGemmU8 is the shape-checked implicit driver of the int8 convolution
// (simd as in gemmU8; k and n as in ConvGemmU8Im2Col): per
// implicitJW-column generation block, drawn from ar, it fills the byte
// block, derives its column sums in one pass, and runs the same kernels
// gemmU8 uses — the SWAR 2×32 tiles over the 32-aligned span, the scalar
// kernels over the remainder — with ldb = block width. Integer
// accumulation is order-independent, so any block width is exact.
func convGemmU8(c, colsum []int32, a, qsrc []uint8, m, k, n, bsz int, g ConvGeom, zp uint8, simd bool, ar *Arena) {
	if k > MaxQuantK {
		panic(fmt.Sprintf("tensor: convGemmU8 k=%d exceeds MaxQuantK=%d", k, MaxQuantK))
	}
	if chw := g.InC * g.InH * g.InW; len(a) != m*k || len(qsrc) != bsz*chw || len(c) < m*n || len(colsum) < n {
		panic(fmt.Sprintf("tensor: convGemmU8 size mismatch m=%d k=%d n=%d (a=%d src=%d c=%d colsum=%d)", m, k, n, len(a), len(qsrc), len(c), len(colsum)))
	}
	simd = simd && k > 0
	mk := ar.Mark()
	blk := Raw[uint8](ar, k*implicitJW)
	assertAligned64("u8 im2col B panel", unsafe.Pointer(&blk[0]))
	for jb := 0; jb < n; jb += implicitJW {
		je := min(jb+implicitJW, n)
		bw := je - jb
		b := blk[:k*bw]
		im2colBlock(b, qsrc, g, 0, k, jb, bw, bw, zp)
		cs := colsum[jb:je]
		for x := range cs {
			cs[x] = 0
		}
		for p := 0; p < k; p++ {
			row := b[p*bw : (p+1)*bw]
			for x, v := range row {
				cs[x] += int32(v)
			}
		}
		nb32 := 0
		if simd {
			nb32 = bw &^ 31
		}
		for jj := 0; jj < nb32; jj += 32 {
			i := 0
			for ; i+2 <= m; i += 2 {
				u8Gemm2x32(&a[i*k], k, &b[jj], bw, &c[i*n+jb+jj], n, k)
			}
			if i < m {
				u8GemmRow32(&a[i*k], &b[jj], bw, &c[i*n+jb+jj], k)
			}
		}
		if nb32 < bw {
			i := 0
			for ; i+4 <= m; i += 4 {
				j := nb32
				for ; j+4 <= bw; j += 4 {
					gemmU8Quad(c[jb:], a, b, k, n, bw, i, j)
				}
				for ; j < bw; j++ {
					gemmU8Col(c[jb:], a, b, k, n, bw, i, i+4, j)
				}
			}
			for ; i < m; i++ {
				gemmU8Row(c[jb:], a, b, k, n, bw, i, nb32, bw)
			}
		}
	}
	ar.Release(mk)
}
