package tensor

import "fmt"

// The served products. Every conv and dense layer the inference graph runs
// (nn.Net, DESIGN.md §7/§9) reaches the kernels through these entries —
// Conv and Dense at both float widths, ConvU8 and DenseU8 for int8:
// the lowering dispatch and the verified-mode checksum epilogue live here
// once, not in each backend's layer bodies. Each draws its working scratch
// from the caller's arena and hands it back before returning.

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
		convGemm(cm, weight, src, m, k, n, bsz, g, a)
	} else {
		cols := Raw[F](a, k*n)
		im2colBlock(cols, src, g, 0, k, 0, n, n, 0)
		gemmServed(cm, weight, cols, m, k, n, a)
	}
	if s := a.Abft(); s != nil {
		s.Record(verifyConv(cm, weight, src, m, bsz, g, a))
	}
}

// Dense computes the dense-layer output c [m, w.N] = x [m, w.K] × wᵀ +
// bias, x the activation rows and w the layer's compile-time pack: the
// served GEMM runs x against w.W into an arena tile [m, w.LD], so every
// output is the ascending-p chain of every other served float product.
// When a carries an ABFT sink, the conv column-checksum epilogue checks and
// repairs the tile — x × w.W is the 1×1 convolution of one w.K-channel
// 1×w.LD image (gemmGeom) — before the w.N real columns are copied out
// with the bias added. It panics on mismatched lengths.
func Dense[F Float](c, x []F, w *Packed[F], bias []F, m int, a *Arena) {
	k, n, ld := w.K, w.N, w.LD
	if len(c) != m*n || len(x) != m*k || len(bias) != n {
		panic(fmt.Sprintf("tensor: Dense operand lengths c=%d x=%d bias=%d for m=%d k=%d n=%d", len(c), len(x), len(bias), m, k, n))
	}
	mk := a.Mark()
	t := Raw[F](a, m*ld)
	gemmServed(t, x, w.W, m, k, ld, a)
	if s := a.Abft(); s != nil {
		s.Record(verifyConv(t, x, w.W, m, 1, gemmGeom(k, ld), a))
	}
	for i := 0; i < m; i++ {
		row, tr := c[i*n:(i+1)*n], t[i*ld:i*ld+n]
		for o, bv := range bias {
			row[o] = tr[o] + bv
		}
	}
	a.Release(mk)
}

// ConvU8 computes the int8 convolution product of one batch: acc (int32,
// [w.M, bsz·OutH·OutW]) = w.Bits × im2col(qsrc) and the per-column sums
// colsum, qsrc the quantized image-major batch padded with zp. shift is
// w's compile-time PackConvShiftU8 panels, nil where the conv cannot take
// the direct driver: a stride-1 conv runs the direct shift convolution
// (convDirectU8), which builds no column operand at all, and a strided
// one the implicit GEMM (convGemmU8). Integer accumulation is exact in
// any order, so both equal Im2ColBatchU8 + GemmU8Into bit for bit. When a
// carries an ABFT sink, the exact checksum epilogue then checks and
// repairs acc and colsum.
func ConvU8(acc, colsum []int32, w QuantWeights, shift *PackedConvShift, qsrc []uint8, bsz int, g ConvGeom, zp uint8, a *Arena) {
	if shift != nil {
		convDirectU8(acc, colsum, shift, qsrc, bsz, g, zp, simdAvailable, a)
	} else {
		convGemmU8(acc, colsum, w.Bits, qsrc, w.M, g.InC*g.KH*g.KW, bsz*g.OutH()*g.OutW(), bsz, g, zp, simdAvailable, a)
	}
	if s := a.Abft(); s != nil {
		s.Record(verifyConvU8(acc, colsum, w.Bits, w.M, qsrc, bsz, g, zp, a))
	}
}

// DenseU8 computes the int8 dense-layer product acc [m, w.N] = x [m, w.K]
// × the biased weight bits of w, x the quantized activation rows: Dense's
// tile-and-copy shape on the uint8 GEMM, whose integer accumulation is
// exact, so the padding changes no bit. The verified epilogue is the exact
// column checksum of the tile; the Dense product has no column-sum output
// (the dequantization corrects with the activation row sums). It panics on
// mismatched lengths.
func DenseU8(acc []int32, x []uint8, w *Packed[uint8], m int, a *Arena) {
	k, n, ld := w.K, w.N, w.LD
	if k > MaxQuantK {
		panic(fmt.Sprintf("tensor: DenseU8 k=%d exceeds MaxQuantK=%d", k, MaxQuantK))
	}
	if len(x) != m*k || len(acc) < m*n {
		panic(fmt.Sprintf("tensor: DenseU8 size mismatch m=%d k=%d n=%d (x=%d acc=%d)", m, k, n, len(x), len(acc)))
	}
	mk := a.Mark()
	t := Raw[int32](a, m*ld)
	gemmU8(t, nil, x, w.W, m, k, ld, simdAvailable)
	if s := a.Abft(); s != nil {
		s.Record(verifyGemmU8(t, nil, x, w.W, m, k, ld, a))
	}
	for i := 0; i < m; i++ {
		copy(acc[i*n:(i+1)*n], t[i*ld:])
	}
	a.Release(mk)
}
