package tensor

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"unsafe"
)

// Implicit-GEMM convolution (DESIGN.md §14). The explicit lowering
// materializes the whole [InC·KH·KW, B·OutH·OutW] im2col matrix — for a
// B=32 convnet stem that is a multi-megabyte intermediate written once
// and then streamed back through the GEMM, twice over the memory bus for
// data that is pure index permutation of the input images. The drivers
// here instead generate each cache-blocked B panel on the fly, directly
// from the image tensor, into a small pooled block that stays L1/L2
// resident while every row group of the weight matrix sweeps it. The
// full column matrix never exists.
//
// Bit-identity contract: the float driver runs each generated block
// through the one float GEMM driver (gemmFMA), and a column's bits depend
// only on its own A rows and B column, not on the block it sits in — so
// the implicit results are bit-identical to im2col followed by the served
// GEMM (gemmServed) at both widths, on either microkernel body. The int8
// drivers' integer accumulation is exact in any order, so they match
// Im2ColBatchU8+GemmU8Into. TestImplicitGemm* lock both.

// implicitBlkFloats / implicitBlkBytes are the minimum capacities of the
// pooled generation blocks, sized to the largest block any model-zoo
// layer requests so steady-state inference never allocates: float
// blocks are at most k×implicitJW elements (plus gemmEdges' padded
// scratch), byte blocks at most k×quantJB.
const (
	implicitBlkFloats = 16384
	implicitBlkBytes  = 65536
)

var (
	implicitPool64  sync.Pool // *[]float64
	implicitPool32  sync.Pool // *[]float32
	implicitPoolU8  sync.Pool // *[]uint8
	implicitPoolI32 sync.Pool // *[]int32
)

// The get/put pairs traffic in *[]T so the same heap box cycles through
// the pool — a steady-state get/put allocates nothing (Put(&local) would
// heap-allocate a slice-header box per call). An undersized cached block
// (possible only for layers beyond the implicitBlk* sizing) is dropped and
// replaced by a bigger one, which then recirculates.

func getBlk64(n int) *[]float64 {
	if v, ok := implicitPool64.Get().(*[]float64); ok && cap(*v) >= n {
		*v = (*v)[:n]
		return v
	}
	s := AlignedF64(max(n, implicitBlkFloats))[:n]
	return &s
}

func putBlk64(p *[]float64) { implicitPool64.Put(p) }

func getBlk32(n int) *[]float32 {
	if v, ok := implicitPool32.Get().(*[]float32); ok && cap(*v) >= n {
		*v = (*v)[:n]
		return v
	}
	s := AlignedF32(max(n, implicitBlkFloats))[:n]
	return &s
}

func putBlk32(p *[]float32) { implicitPool32.Put(p) }

func getBlkU8(n int) *[]uint8 {
	if v, ok := implicitPoolU8.Get().(*[]uint8); ok && cap(*v) >= n {
		*v = (*v)[:n]
		return v
	}
	s := AlignedU8(max(n, implicitBlkBytes))[:n]
	return &s
}

func putBlkU8(p *[]uint8) { implicitPoolU8.Put(p) }

func getBlkI32(n int) *[]int32 {
	if v, ok := implicitPoolI32.Get().(*[]int32); ok && cap(*v) >= n {
		*v = (*v)[:n]
		return v
	}
	s := AlignedI32(max(n, implicitBlkFloats))[:n]
	return &s
}

func putBlkI32(p *[]int32) { implicitPoolI32.Put(p) }

// implicitBlk dispatches getBlk64/getBlk32 by element type for the
// width-generic driver. The any-boxing is resolved at instantiation; the
// default arm only exists for exotic Float instantiations in tests.
func implicitBlk[F Float](n int) *[]F {
	var zero F
	switch any(zero).(type) {
	case float64:
		return any(getBlk64(n)).(*[]F)
	case float32:
		return any(getBlk32(n)).(*[]F)
	}
	s := make([]F, n)
	return &s
}

func implicitBlkPut[F Float](p *[]F) {
	switch v := any(p).(type) {
	case *[]float64:
		putBlk64(v)
	case *[]float32:
		putBlk32(v)
	}
}

// im2colBlock fills blk (kc rows × jw columns, row stride jw) with the
// sub-matrix rows [p0, p0+kc) × columns [j0, j0+jw) of the batched
// [InC·KH·KW, bsz·OutH·OutW] im2col matrix of src (packed image-major
// batch) — the same values Im2ColBatch, Im2ColBatch32 or Im2ColBatchU8
// would have written there. Padding positions take pad: 0 for the float
// batches, the zero point for a quantized one.
//
// The (b, oy, ox) decomposition of the block's first column is computed
// once — it is the same for every row — and each segment then advances it
// incrementally, so the inner loop is division-free like im2colRow's and
// generation runs at the explicit lowering's cost per element.
func im2colBlock[E Float | uint8](blk, src []E, bsz int, g ConvGeom, p0, kc, j0, jw int, pad E) {
	ow, oh := g.OutW(), g.OutH()
	ohw := oh * ow
	chw := g.InC * g.InH * g.InW
	khw := g.KH * g.KW
	b0 := j0 / ohw
	rem0 := j0 - b0*ohw
	oy0, ox0 := rem0/ow, rem0%ow
	for p := 0; p < kc; p++ {
		r := p0 + p
		c := r / khw
		rk := r - c*khw
		kh, kw := rk/g.KW, rk%g.KW
		chanOff := c * g.InH * g.InW
		drow := blk[p*jw : (p+1)*jw]
		b, oy, ox := b0, oy0, ox0
		di := 0
		for di < jw {
			seg := min(ow-ox, jw-di)
			dst := drow[di : di+seg]
			iy := oy*g.Stride + kh - g.Pad
			if iy < 0 || iy >= g.InH {
				for x := range dst {
					dst[x] = pad
				}
			} else {
				srow := src[b*chw+chanOff+iy*g.InW : b*chw+chanOff+(iy+1)*g.InW]
				if g.Stride == 1 {
					ix0 := ox + kw - g.Pad
					pre := min(max(-ix0, 0), seg)
					span := min(ix0+seg, g.InW) - max(ix0, 0)
					span = max(span, 0)
					for x := 0; x < pre; x++ {
						dst[x] = pad
					}
					if span > 0 {
						s0 := max(ix0, 0) // == ix0+pre whenever span > 0
						copy(dst[pre:pre+span], srow[s0:s0+span])
					}
					for x := pre + span; x < seg; x++ {
						dst[x] = pad
					}
				} else {
					ix := ox*g.Stride + kw - g.Pad
					for x := 0; x < seg; x++ {
						if ix >= 0 && ix < g.InW {
							dst[x] = srow[ix]
						} else {
							dst[x] = pad
						}
						ix += g.Stride
					}
				}
			}
			di += seg
			ox += seg
			if ox == ow {
				ox = 0
				oy++
				if oy == oh {
					oy = 0
					b++
				}
			}
		}
	}
}

// ConvGemmIm2Col computes cm = weight × im2col(batch) for the f64 path
// without materializing the column matrix: cm is [OutC, bsz·OutH·OutW],
// weight [OutC, InC·KH·KW], src the packed image-major batch. Results are
// bit-identical to Im2ColBatch followed by the served GEMM (see convGemm).
// Its only caller is the benchmark kernel probe; served convolutions reach
// the driver through Conv.
func ConvGemmIm2Col(cm, weight *T, src []float64, bsz int, g ConvGeom) {
	m, k, n := implicitCheck(cm.Shape, weight.Shape, len(src), bsz, g, "ConvGemmIm2Col")
	convGemm(cm.Data, weight.Data, src, m, k, n, bsz, g)
}

// implicitJW is the column width of the generation blocks of the implicit
// paths. Wide blocks matter: generation cost is dominated by
// per-segment bookkeeping (output-row decomposition, span setup), so
// 16-column blocks pay it once per 16 elements while 256-column blocks
// amortize it to the explicit im2col's long-row cost — while the block
// still fits L1/L2 for every zoo K. Any width preserves bit-identity
// (each output element remains one k-chain; only the block row stride
// changes).
const implicitJW = 256

// ImplicitConvMinN is the minimum GEMM width bsz·OutH·OutW at which the
// float implicit-GEMM drivers beat the explicit lowering. Below it the
// per-panel generation bookkeeping costs more than the one-shot im2col it
// replaces — a lone served image (bsz = 1) sits there — so the layer
// dispatch keeps the explicit path for small problems. The int8 direct
// driver has no such floor: it never generates columns at all.
const ImplicitConvMinN = 4096

// ConvGemmIm2Col32 is ConvGemmIm2Col for float32: bit-identical to
// Im2ColBatch32 followed by GemmInto32Fast. Like it, its only caller is
// the benchmark kernel probe.
func ConvGemmIm2Col32(cm, weight *T32, src []float32, bsz int, g ConvGeom) {
	m, k, n := implicitCheck(cm.Shape, weight.Shape, len(src), bsz, g, "ConvGemmIm2Col32")
	convGemm(cm.Data, weight.Data, src, m, k, n, bsz, g)
}

// convGemm is the implicit-GEMM driver of both float widths: it generates
// implicitJW-column panels and runs each through gemmFMA, so every column
// is the chain the explicit lowering feeding the served GEMM computes.
func convGemm[F Float](cd, ad, src []F, m, k, n, bsz int, g ConvGeom) {
	if k == 0 {
		clear(cd[:m*n])
		return
	}
	blkp := implicitBlk[F](k * implicitJW)
	blk := *blkp
	assertAligned64("FMA B panel", unsafe.Pointer(&blk[0]))
	for jb := 0; jb < n; jb += implicitJW {
		bw := min(implicitJW, n-jb)
		b := blk[:k*bw]
		im2colBlock(b, src, bsz, g, 0, k, jb, bw, 0)
		gemmFMA(cd[jb:], ad, b, m, k, bw, n, bw)
	}
	implicitBlkPut(blkp)
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
// the explicit path by construction.
func ConvGemmU8Im2Col(c, colsum []int32, a []uint8, m int, qsrc []uint8, bsz int, g ConvGeom, zp uint8) {
	k := g.InC * g.KH * g.KW
	n := bsz * g.OutH() * g.OutW()
	if k > MaxQuantK {
		panic(fmt.Sprintf("tensor: ConvGemmU8Im2Col k=%d exceeds MaxQuantK=%d", k, MaxQuantK))
	}
	chw := g.InC * g.InH * g.InW
	if len(a) != m*k || len(qsrc) != bsz*chw || len(c) < m*n || len(colsum) < n {
		panic(fmt.Sprintf("tensor: ConvGemmU8Im2Col size mismatch m=%d k=%d n=%d (a=%d src=%d c=%d colsum=%d)", m, k, n, len(a), len(qsrc), len(c), len(colsum)))
	}
	convGemmU8(c, colsum, a, qsrc, m, k, n, bsz, g, zp, simdAvailable)
}

// convGemmU8 is the shape-checked driver of ConvGemmU8Im2Col; simd as in
// gemmU8.
func convGemmU8(c, colsum []int32, a, qsrc []uint8, m, k, n, bsz int, g ConvGeom, zp uint8, simd bool) {
	macs := m * n * k
	workers := runtime.GOMAXPROCS(0)
	panels := (n + gemmNC - 1) / gemmNC
	if workers > panels {
		workers = panels
	}
	if macs < gemmParallelMACs || workers <= 1 {
		gemmU8Im2ColPanel(c, colsum, a, qsrc, m, k, n, bsz, g, zp, 0, n, simd)
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				p := int(next.Add(1)) - 1
				if p >= panels {
					return
				}
				j0 := p * gemmNC
				j1 := min(j0+gemmNC, n)
				gemmU8Im2ColPanel(c, colsum, a, qsrc, m, k, n, bsz, g, zp, j0, j1, simd)
			}
		}()
	}
	wg.Wait()
}

// gemmU8Im2ColPanel computes one column panel of the implicit uint8 GEMM:
// per implicitJW-column generation block it fills the byte block, derives
// its column sums in one pass, and runs the same kernels gemmU8Panel uses —
// the SWAR 2×32 tiles over the 32-aligned span, the scalar kernels over
// the remainder — with ldb = block width. Integer accumulation is
// order-independent, so any block width is exact.
func gemmU8Im2ColPanel(c, colsum []int32, a, qsrc []uint8, m, k, n, bsz int, g ConvGeom, zp uint8, j0, j1 int, simd bool) {
	simd = simd && k > 0
	blkp := getBlkU8(k * implicitJW)
	blk := *blkp
	assertAligned64("u8 im2col B panel", unsafe.Pointer(&blk[0]))
	for jb := j0; jb < j1; jb += implicitJW {
		je := min(jb+implicitJW, j1)
		bw := je - jb
		b := blk[:k*bw]
		im2colBlock(b, qsrc, bsz, g, 0, k, jb, bw, zp)
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
	putBlkU8(blkp)
}
