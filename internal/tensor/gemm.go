package tensor

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// This file implements GemmInto, the cache-blocked GEMM whose body
// (gemmMain) serves the batched convolutions of the compiled inference
// graph (nn.Net, via Conv) on targets without the FMA kernels. Batched
// im2col lowering produces matrices whose N dimension is B*OutH*OutW —
// tens of thousands of columns — where the plain i-k-j kernel leaves
// throughput on the table: it re-streams each C row from memory k times
// and carries no instruction-level parallelism across rows.
//
// GemmInto tiles the output into 4-row × 2-column register blocks (8
// accumulators + 4 A values + 2 B values fit the 16 SSE registers of
// amd64) and works K-block by K-block. Within a K-block the column range
// is swept in gemmJB-wide sub-panels so the touched B rows stay
// L1-resident while every 4-row group of A streams against them. Short
// K-blocks (kc ≤ gemmDirectK — every convolution shape in the model zoo)
// read B rows in place; longer K-blocks first pack the current column
// pair into contiguous scratch so the inner loop does not stride
// n-element rows. When the matrix is large enough to amortize goroutine
// startup, independent column panels are sharded across a bounded worker
// pool.
//
// The kernels are generic over the element type (Float: float32 or
// float64) so the f32 and f64 nets share one implementation. Each instantiation is fully
// specialized by the compiler — float32 and float64 have distinct
// gcshapes — so the float64 code is the same arithmetic, in the same
// order, as the pre-generic kernels.
//
// C is fully overwritten: the first K-block's kernels start their
// accumulators at zero and store, rather than pre-zeroing C and
// read-modify-writing it, so callers may hand in uninitialized (arena
// Raw) buffers and the whole matrix is written exactly once per
// K-block.
//
// Floating-point contract: results are bit-identical to MatMulInto's
// dense kernel for every shape, thread count and blocking choice. Each
// output element is one accumulation chain in ascending-k order starting
// from +0; K-blocks after the first resume the chain from the stored
// partial sum rather than reducing into a separate register, and workers
// own disjoint column panels. (Sole exception: the k==3 fast kernel folds
// away the leading +0, so a chain whose partial products are all exact
// zeros may differ in the sign of its zero result — unobservable
// downstream and unreachable for non-degenerate inputs.) This is
// verified by TestGemmIntoMatchesMatMul.

const (
	// gemmSmallMACs: below this many multiply-accumulates the blocked
	// kernel's bookkeeping costs more than it saves; such matrices take
	// the same single-threaded i-k-j path MatMulInto uses, keeping
	// training-sized multiplies on the code path they always had.
	gemmSmallMACs = 1 << 14
	// gemmParallelMACs: above this many multiply-accumulates the column
	// panels are sharded across a goroutine pool.
	gemmParallelMACs = 1 << 21
	// gemmNC is the width of one column panel — the unit of parallel work.
	gemmNC = 512
	// gemmKC is the K-block length: the unit in which accumulation chains
	// are built before moving down the K dimension.
	gemmKC = 256
	// gemmDirectK: K-blocks no longer than this skip B-packing and read B
	// rows in place — at most gemmDirectK row fragments are live at once,
	// which the sub-panel sweep keeps cache-resident. Packing only pays
	// for itself when the k loop is long enough to amortize copying the
	// column pair.
	gemmDirectK = 128
	// gemmJB is the direct-path column sub-panel width: kc×gemmJB B
	// elements (≤ 32 KiB at kc = gemmDirectK) stay L1-resident while all
	// m/4 row groups sweep the sub-panel.
	gemmJB = 32
)

// Float constrains the element type of the shared inference kernels: the
// reference float64 path and the reduced-precision float32 backend run the
// same generic code, specialized per width by the compiler.
type Float interface {
	float32 | float64
}

// GemmInto computes C = A×B into an existing m×n tensor, overwriting every
// element (C's prior contents are ignored, so arena Raw buffers are
// fine). It panics on any shape mismatch. Results are bit-identical to
// MatMulInto's dense kernel; only the throughput differs.
func GemmInto(c, a, b *T) {
	if a.Rank() != 2 || b.Rank() != 2 || c.Rank() != 2 {
		panic(fmt.Sprintf("tensor: GemmInto requires rank-2 operands, got C%v = A%v × B%v", c.Shape, a.Shape, b.Shape))
	}
	m, k := a.Shape[0], a.Shape[1]
	n := b.Shape[1]
	if b.Shape[0] != k || c.Shape[0] != m || c.Shape[1] != n {
		panic(fmt.Sprintf("tensor: GemmInto shape mismatch: C%v = A%v × B%v", c.Shape, a.Shape, b.Shape))
	}
	gemmMain(c.Data, a.Data, b.Data, m, k, n)
}

// gemmMain is the body of GemmInto at either width: small/serial/parallel
// dispatch over raw slices.
func gemmMain[F Float](cd, ad, bd []F, m, k, n int) {
	macs := m * n * k
	if macs <= gemmSmallMACs {
		for i := range cd[:m*n] {
			cd[i] = 0
		}
		matMulRowsDense(cd, ad, bd, 0, m, k, n)
		return
	}
	workers := runtime.GOMAXPROCS(0)
	panels := (n + gemmNC - 1) / gemmNC
	if workers > panels {
		workers = panels
	}
	if macs < gemmParallelMACs || workers <= 1 {
		pack := gemmScratch[F](k)
		gemmPanel(cd, ad, bd, m, k, n, 0, n, scratchSlice(pack))
		gemmScratchPut(pack)
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			pack := gemmScratch[F](k)
			defer gemmScratchPut(pack)
			ps := scratchSlice(pack)
			for {
				p := int(next.Add(1)) - 1
				if p >= panels {
					return
				}
				j0 := p * gemmNC
				j1 := min(j0+gemmNC, n)
				gemmPanel(cd, ad, bd, m, k, n, j0, j1, ps)
			}
		}()
	}
	wg.Wait()
}

// gemmPackPool64/32 recycle the column-pair pack buffers of the long-K
// path so steady-state GEMM calls allocate nothing (the buffers used to be
// made fresh per call). Buffers are cache-line aligned like every other
// packed panel.
var (
	gemmPackPool64 = sync.Pool{New: func() any { s := AlignedF64(2 * gemmKC); return &s }}
	gemmPackPool32 = sync.Pool{New: func() any { s := AlignedF32(2 * gemmKC); return &s }}
)

// gemmScratch returns the pack buffer for a K dimension of k, or nil when
// every K-block takes the pack-free direct path. Non-nil buffers come from
// a sync.Pool; return them with gemmScratchPut. The pooled value is the
// *pointer* to the slice and callers hand the same pointer back, so a
// steady-state get/put cycle allocates nothing — not even the slice-header
// box that Put(&local) would heap-allocate.
func gemmScratch[F Float](k int) *[]F {
	if k <= gemmDirectK {
		return nil
	}
	var zero F
	switch any(zero).(type) {
	case float64:
		return any(gemmPackPool64.Get().(*[]float64)).(*[]F)
	case float32:
		return any(gemmPackPool32.Get().(*[]float32)).(*[]F)
	}
	s := make([]F, 2*gemmKC)
	return &s
}

// gemmScratchPut recycles a buffer obtained from gemmScratch (nil is a
// no-op).
func gemmScratchPut[F Float](p *[]F) {
	if p == nil {
		return
	}
	switch v := any(p).(type) {
	case *[]float64:
		gemmPackPool64.Put(v)
	case *[]float32:
		gemmPackPool32.Put(v)
	}
}

// scratchSlice unwraps a gemmScratch result for the kernels (nil → nil).
func scratchSlice[F Float](p *[]F) []F {
	if p == nil {
		return nil
	}
	return *p
}

// gemmPanel computes the column panel C[:, j0:j1) = A×B[:, j0:j1),
// overwriting it. pack is scratch of at least 2*gemmKC floats (may be nil
// when k ≤ gemmDirectK).
func gemmPanel[F Float](cd, ad, bd []F, m, k, n, j0, j1 int, pack []F) {
	for p0 := 0; p0 < k; p0 += gemmKC {
		kc := min(p0+gemmKC, k) - p0
		first := p0 == 0
		if kc <= gemmDirectK {
			gemmBlockDirect(cd, ad, bd, m, k, n, j0, j1, p0, kc, first)
		} else {
			gemmBlockPacked(cd, ad, bd[p0*n:], m, k, n, n, j0, j1, p0, kc, first, pack)
		}
	}
}

// gemmBlockDirect applies one short K-block to the panel, reading B rows
// in place. The column range is swept in gemmJB-wide sub-panels so the kc
// live B-row fragments stay cache-resident across all row groups.
func gemmBlockDirect[F Float](cd, ad, bd []F, m, k, n, j0, j1, p0, kc int, first bool) {
	bblk := bd[p0*n:]
	for jj := j0; jj < j1; jj += gemmJB {
		je := min(jj+gemmJB, j1)
		i := 0
		for ; i+4 <= m; i += 4 {
			if kc == 3 && k == 3 {
				gemmQuadK3(cd, ad, bd, n, n, i, jj, je)
			} else {
				gemmQuadDirect(cd, ad, bblk, k, n, n, i, jj, je, p0, kc, first)
			}
		}
		for ; i < m; i++ {
			gemmRowDirect(cd, ad, bblk, k, n, n, i, jj, je, p0, kc, first)
		}
	}
}

// gemmQuadDirect computes (or, when first is false, accumulates into) the
// 4-row output strip C[i:i+4, j0:j1) over one K-block, reading B in place.
// bblk holds the B rows of the current K-block — bblk[p*ldb+j] is
// B[p0+p][j] — so both the legacy path (bblk = bd[p0*n:], ldb = n) and the
// implicit-GEMM path (bblk = a freshly generated im2col block, ldb = block
// width) feed the identical accumulation chains. ldc is C's row stride.
func gemmQuadDirect[F Float](cd, ad, bblk []F, k, ldc, ldb, i, j0, j1, p0, kc int, first bool) {
	a0 := ad[i*k+p0:][:kc]
	a1 := ad[(i+1)*k+p0:][:kc]
	a2 := ad[(i+2)*k+p0:][:kc]
	a3 := ad[(i+3)*k+p0:][:kc]
	r0 := cd[i*ldc:]
	r1 := cd[(i+1)*ldc:]
	r2 := cd[(i+2)*ldc:]
	r3 := cd[(i+3)*ldc:]
	j := j0
	for ; j+2 <= j1; j += 2 {
		var c00, c01, c10, c11, c20, c21, c30, c31 F
		if !first {
			c00, c01 = r0[j], r0[j+1]
			c10, c11 = r1[j], r1[j+1]
			c20, c21 = r2[j], r2[j+1]
			c30, c31 = r3[j], r3[j+1]
		}
		bi := j
		for p := 0; p < kc; p++ {
			b0, b1 := bblk[bi], bblk[bi+1]
			bi += ldb
			av0, av1, av2, av3 := a0[p], a1[p], a2[p], a3[p]
			c00 += av0 * b0
			c01 += av0 * b1
			c10 += av1 * b0
			c11 += av1 * b1
			c20 += av2 * b0
			c21 += av2 * b1
			c30 += av3 * b0
			c31 += av3 * b1
		}
		r0[j], r0[j+1] = c00, c01
		r1[j], r1[j+1] = c10, c11
		r2[j], r2[j+1] = c20, c21
		r3[j], r3[j+1] = c30, c31
	}
	if j < j1 { // odd trailing column
		var c0, c1, c2, c3 F
		if !first {
			c0, c1, c2, c3 = r0[j], r1[j], r2[j], r3[j]
		}
		bi := j
		for p := 0; p < kc; p++ {
			bv := bblk[bi]
			bi += ldb
			c0 += a0[p] * bv
			c1 += a1[p] * bv
			c2 += a2[p] * bv
			c3 += a3[p] * bv
		}
		r0[j], r1[j], r2[j], r3[j] = c0, c1, c2, c3
	}
}

// gemmQuadK3 is the k == 3 special case (a GEMM over the three channels
// of RGB input, as in the benchmark probe's Winograd data GEMMs, where
// k = InC): all twelve A values are hoisted into registers and each
// output column costs three B loads shared by four rows. Only valid when the whole K dimension is the single block, so the
// strip is written, not accumulated. ldb/ldc are B's and C's row strides.
func gemmQuadK3[F Float](cd, ad, bd []F, ldc, ldb, i, j0, j1 int) {
	a00, a01, a02 := ad[i*3], ad[i*3+1], ad[i*3+2]
	a10, a11, a12 := ad[(i+1)*3], ad[(i+1)*3+1], ad[(i+1)*3+2]
	a20, a21, a22 := ad[(i+2)*3], ad[(i+2)*3+1], ad[(i+2)*3+2]
	a30, a31, a32 := ad[(i+3)*3], ad[(i+3)*3+1], ad[(i+3)*3+2]
	b0 := bd[j0:j1]
	b1 := bd[ldb+j0 : ldb+j1]
	b2 := bd[2*ldb+j0 : 2*ldb+j1]
	r0 := cd[i*ldc+j0 : i*ldc+j1]
	r1 := cd[(i+1)*ldc+j0 : (i+1)*ldc+j1]
	r2 := cd[(i+2)*ldc+j0 : (i+2)*ldc+j1]
	r3 := cd[(i+3)*ldc+j0 : (i+3)*ldc+j1]
	for x, v0 := range b0 {
		v1, v2 := b1[x], b2[x]
		r0[x] = a00*v0 + a01*v1 + a02*v2
		r1[x] = a10*v0 + a11*v1 + a12*v2
		r2[x] = a20*v0 + a21*v1 + a22*v2
		r3[x] = a30*v0 + a31*v1 + a32*v2
	}
}

// gemmRowDirect handles the m%4 remainder rows of the direct path. Like
// gemmQuadDirect, bblk[p*ldb+j] is B[p0+p][j].
func gemmRowDirect[F Float](cd, ad, bblk []F, k, ldc, ldb, i, j0, j1, p0, kc int, first bool) {
	arow := ad[i*k+p0:][:kc]
	row := cd[i*ldc:]
	for j := j0; j < j1; j++ {
		var acc F
		if !first {
			acc = row[j]
		}
		bi := j
		for _, av := range arow {
			acc += av * bblk[bi]
			bi += ldb
		}
		row[j] = acc
	}
}

// gemmBlockPacked applies one long K-block to the panel, packing each B
// column pair into contiguous scratch first: the packed block is re-read
// by every 4-row group from L1 instead of striding n-element rows. As with
// gemmQuadDirect, bblk[p*ldb+j] is B[p0+p][j] (legacy: bblk = bd[p0*n:],
// ldb = n; implicit: a generated im2col block) and ldc is C's row stride.
func gemmBlockPacked[F Float](cd, ad, bblk []F, m, k, ldc, ldb, j0, j1, p0, kc int, first bool, pack []F) {
	p1 := p0 + kc
	j := j0
	for ; j+2 <= j1; j += 2 {
		bp := pack[:2*kc]
		for p := 0; p < kc; p++ {
			bp[2*p] = bblk[p*ldb+j]
			bp[2*p+1] = bblk[p*ldb+j+1]
		}
		i := 0
		for ; i+4 <= m; i += 4 {
			gemm4x2(cd, ad, bp, k, ldc, i, j, p0, kc, first)
		}
		for ; i < m; i++ {
			arow := ad[i*k+p0 : i*k+p1]
			var c0, c1 F
			if !first {
				c0, c1 = cd[i*ldc+j], cd[i*ldc+j+1]
			}
			for p, av := range arow {
				c0 += av * bp[2*p]
				c1 += av * bp[2*p+1]
			}
			cd[i*ldc+j], cd[i*ldc+j+1] = c0, c1
		}
	}
	if j < j1 { // odd trailing column
		for i := 0; i < m; i++ {
			arow := ad[i*k+p0 : i*k+p1]
			var acc F
			if !first {
				acc = cd[i*ldc+j]
			}
			for p, av := range arow {
				acc += av * bblk[p*ldb+j]
			}
			cd[i*ldc+j] = acc
		}
	}
}

// gemm4x2 computes (or, when first is false, accumulates into) the 4×2
// output block C[i:i+4, j:j+2] over the K-block [p0, p0+kc) against the
// packed column pair bp. The eight accumulators start at zero on the first
// K-block and resume from the values already in C afterwards, so the
// per-element accumulation chain is exactly the ascending-k order of the
// i-k-j kernel.
func gemm4x2[F Float](cd, ad, bp []F, k, ldc, i, j int, p0, kc int, first bool) {
	a0 := ad[i*k+p0 : i*k+p0+kc]
	a1 := ad[(i+1)*k+p0:][:kc]
	a2 := ad[(i+2)*k+p0:][:kc]
	a3 := ad[(i+3)*k+p0:][:kc]

	c0 := cd[i*ldc+j:]
	c1 := cd[(i+1)*ldc+j:]
	c2 := cd[(i+2)*ldc+j:]
	c3 := cd[(i+3)*ldc+j:]
	var c00, c01, c10, c11, c20, c21, c30, c31 F
	if !first {
		c00, c01 = c0[0], c0[1]
		c10, c11 = c1[0], c1[1]
		c20, c21 = c2[0], c2[1]
		c30, c31 = c3[0], c3[1]
	}

	for p := 0; p < kc; p++ {
		b0 := bp[2*p]
		b1 := bp[2*p+1]
		av0, av1, av2, av3 := a0[p], a1[p], a2[p], a3[p]
		c00 += av0 * b0
		c01 += av0 * b1
		c10 += av1 * b0
		c11 += av1 * b1
		c20 += av2 * b0
		c21 += av2 * b1
		c30 += av3 * b0
		c31 += av3 * b1
	}
	c0[0], c0[1] = c00, c01
	c1[0], c1[1] = c10, c11
	c2[0], c2[1] = c20, c21
	c3[0], c3[1] = c30, c31
}
