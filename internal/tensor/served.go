package tensor

import "fmt"

// The served float products. Every float layer the inference graph runs
// (nn.Net, DESIGN.md §7/§9) reaches the kernels through these two entries,
// one instantiation per element width: the lowering dispatch and the
// verified-mode checksum epilogue live here once, not in each backend's
// layer bodies.

// Conv computes the convolution product cm = weight × im2col(src) of one
// batch: cm [m, bsz·OutH·OutW] channel-major, weight [m, InC·KH·KW], src
// the packed image-major batch. At GEMM widths of ImplicitConvMinN and
// above it runs the implicit GEMM (convGemm), which generates the column
// matrix panel by panel; below, the explicit lowering — im2col into arena
// scratch, then the served GEMM — which wins at small widths. The two are bit-identical. When a carries an ABFT
// sink, the checksum epilogue then checks and repairs cm, whichever kernel
// ran. cm is fully overwritten; it panics on mismatched lengths.
func Conv[F Float](cm, weight, src []F, m, bsz int, g ConvGeom, a *Arena) {
	k := g.InC * g.KH * g.KW
	n := bsz * g.OutH() * g.OutW()
	chw := g.InC * g.InH * g.InW
	if len(cm) != m*n || len(weight) != m*k || len(src) != bsz*chw {
		panic(fmt.Sprintf("tensor: Conv operand lengths cm=%d weight=%d src=%d for m=%d B=%d geom %+v", len(cm), len(weight), len(src), m, bsz, g))
	}
	if n >= ImplicitConvMinN {
		convGemm(cm, weight, src, m, k, n, bsz, g)
	} else {
		cols := Raw[F](a, k*n)
		for b := 0; b < bsz; b++ {
			im2colImage(cols, src[b*chw:(b+1)*chw], b, bsz, g, 0)
		}
		gemmServed(cm, weight, cols, m, k, n)
	}
	if s := a.Abft(); s != nil {
		s.Record(verifyConv(cm, weight, src, m, bsz, g))
	}
}

// MatMulTransB computes the dense-layer product c = x × wᵀ: x [m, k], w
// [n, k], c [m, n]. When a carries an ABFT sink, the row-checksum
// epilogue then checks and repairs c. It panics on mismatched lengths.
func MatMulTransB[F Float](c, x, w []F, m, k, n int, a *Arena) {
	if len(c) != m*n || len(x) != m*k || len(w) != n*k {
		panic(fmt.Sprintf("tensor: MatMulTransB operand lengths c=%d x=%d w=%d for %d×%d×%d", len(c), len(x), len(w), m, k, n))
	}
	matMulTransB(c, x, w, m, k, n)
	if s := a.Abft(); s != nil {
		s.Record(verifyMatMulTransB(c, x, w, m, k, n))
	}
}
