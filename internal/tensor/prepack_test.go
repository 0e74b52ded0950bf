package tensor

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"unsafe"
)

// The prepack correctness bar (DESIGN.md §14): every prepacked or implicit
// execution path is bit-identical to the explicit im2col lowering. These
// tests sweep randomized geometries plus hand-picked shapes that force
// each dispatch arm — the float GEMM's edges, the uint8 drivers' vector
// and pure-Go arms — and compare element-by-element with ==, not a
// tolerance.

// kernelLegs lists the uint8 kernel choices a bit-identity test runs: the
// pure-Go SWAR kernels (false) everywhere, and the vector kernels (true)
// on machines that have them. The test hands the choice to each driver
// explicitly; nothing switches kernels at run time.
func kernelLegs() []bool {
	if simdAvailable {
		return []bool{true, false}
	}
	return []bool{false}
}

// implicitGeoms returns the geometry × batch sweep shared by the implicit
// GEMM identity tests: random small cases for border/stride coverage plus
// fixed shapes with a long K and a wide, multi-block n (> implicitJW).
func implicitGeoms(rng *rand.Rand) []struct {
	g         ConvGeom
	bsz, outC int
} {
	cases := []struct {
		g         ConvGeom
		bsz, outC int
	}{
		// Long K: k = 16·3·3 = 144.
		{ConvGeom{InC: 16, InH: 10, InW: 10, KH: 3, KW: 3, Stride: 1, Pad: 1}, 6, 8},
		// Wide and deep: m·n·k = 32·2048·144 ≈ 9.4M MACs, n = 2048
		// spans several generation blocks.
		{ConvGeom{InC: 16, InH: 18, InW: 18, KH: 3, KW: 3, Stride: 1, Pad: 1}, 8, 32},
		// K3 direct kernel: 1-channel 3×3 stride-1 (kc == k == 3... no: k=9).
		{ConvGeom{InC: 1, InH: 8, InW: 8, KH: 3, KW: 3, Stride: 1, Pad: 1}, 2, 4},
		// 1×1 kernel, k = InC exactly.
		{ConvGeom{InC: 3, InH: 7, InW: 7, KH: 1, KW: 1, Stride: 1, Pad: 0}, 3, 5},
		// Strided, padded, rectangular kernel.
		{ConvGeom{InC: 2, InH: 11, InW: 9, KH: 5, KW: 3, Stride: 2, Pad: 2}, 4, 6},
	}
	for i := 0; i < 30; i++ {
		cases = append(cases, struct {
			g         ConvGeom
			bsz, outC int
		}{randomGeom(rng), 1 + rng.Intn(7), 1 + rng.Intn(9)})
	}
	return cases
}

// TestImplicitGemmF64BitIdentical locks ConvGemmIm2Col against the explicit
// Im2ColBatch + served GEMM pipeline, bit-exact, across the geometry sweep.
func TestImplicitGemmF64BitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(141))
	for ci, tc := range implicitGeoms(rng) {
		g, bsz := tc.g, tc.bsz
		k := g.InC * g.KH * g.KW
		n := bsz * g.OutH() * g.OutW()
		chw := g.InC * g.InH * g.InW

		weight := New(tc.outC, k)
		weight.FillNormal(rng, 0, 1)
		srcs := make([]*T, bsz)
		packed := make([]float64, bsz*chw)
		for b := range srcs {
			srcs[b] = New(g.InC, g.InH, g.InW)
			srcs[b].FillNormal(rng, 0, 1)
			copy(packed[b*chw:], srcs[b].Data)
		}

		cols := New(k, n)
		Im2ColBatch(cols, srcs, g)
		want := New(tc.outC, n)
		gemmServed(want.Data, weight.Data, cols.Data, tc.outC, k, n, NewArena())

		got := New(tc.outC, n)
		got.FillUniform(rng, -9, 9) // must be fully overwritten
		convGemm(got.Data, weight.Data, packed, tc.outC, k, n, bsz, g, NewArena())

		for i, v := range got.Data {
			if v != want.Data[i] {
				t.Fatalf("case %d (geom %+v bsz %d): element %d: implicit %v explicit %v", ci, g, bsz, i, v, want.Data[i])
			}
		}
	}
}

// TestImplicitGemm32BitIdentical locks ConvGemmIm2Col32 against
// Im2ColBatch32 + GemmInto32Fast.
func TestImplicitGemm32BitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(142))
	for ci, tc := range implicitGeoms(rng) {
		g, bsz := tc.g, tc.bsz
		k := g.InC * g.KH * g.KW
		n := bsz * g.OutH() * g.OutW()
		chw := g.InC * g.InH * g.InW

		weight := New32(tc.outC, k)
		src := New32(bsz, chw)
		for i := range weight.Data {
			weight.Data[i] = float32(rng.NormFloat64())
		}
		for i := range src.Data {
			src.Data[i] = float32(rng.NormFloat64())
		}

		cols := New32(k, n)
		Im2ColBatch32(cols, src, bsz, g)
		want := New32(tc.outC, n)
		gemmServed(want.Data, weight.Data, cols.Data, tc.outC, k, n, NewArena())

		got := New32(tc.outC, n)
		for i := range got.Data {
			got.Data[i] = 777
		}
		convGemm(got.Data, weight.Data, src.Data, tc.outC, k, n, bsz, g, NewArena())

		for i, v := range got.Data {
			if v != want.Data[i] {
				t.Fatalf("case %d (geom %+v bsz %d): element %d: implicit %v explicit %v", ci, g, bsz, i, v, want.Data[i])
			}
		}
	}
}

// TestImplicitGemmU8BitIdentical locks ConvGemmU8Im2Col (accumulators and
// column sums) against Im2ColBatchU8 + GemmU8Into on every kernel leg.
func TestImplicitGemmU8BitIdentical(t *testing.T) {
	for _, simd := range kernelLegs() {
		rng := rand.New(rand.NewSource(143))
		for ci, tc := range implicitGeoms(rng) {
			g, bsz := tc.g, tc.bsz
			k := g.InC * g.KH * g.KW
			n := bsz * g.OutH() * g.OutW()
			chw := g.InC * g.InH * g.InW
			zp := uint8(rng.Intn(256))

			a := make([]uint8, tc.outC*k)
			qsrc := make([]uint8, bsz*chw)
			rng.Read(a)
			rng.Read(qsrc)

			qcols := make([]uint8, k*n)
			Im2ColBatchU8(qcols, qsrc, bsz, g, zp)
			wantC := make([]int32, tc.outC*n)
			wantCS := make([]int32, n)
			gemmU8(wantC, wantCS, a, qcols, tc.outC, k, n, simd)

			gotC := make([]int32, tc.outC*n)
			gotCS := make([]int32, n)
			for i := range gotC {
				gotC[i] = -9
			}
			convGemmU8(gotC, gotCS, a, qsrc, tc.outC, k, n, bsz, g, zp, simd, NewArena())

			for i, v := range gotC {
				if v != wantC[i] {
					t.Fatalf("simd=%v case %d (geom %+v bsz %d zp %d): acc %d: implicit %d explicit %d", simd, ci, g, bsz, zp, i, v, wantC[i])
				}
			}
			for j, v := range gotCS {
				if v != wantCS[j] {
					t.Fatalf("simd=%v case %d: colsum %d: implicit %d explicit %d", simd, ci, j, v, wantCS[j])
				}
			}
		}
	}
}

// directCases are the named direct-convolution shapes: both channel
// parities (InC 1 and 3 pad a zero-point channel), both parities of
// OutC+1 (odd ones pad a zero weight row), 1×1, 5×5 and KH ≠ KW kernels, a
// batch sweep narrower than one 32-column block, and single-image
// forwards at the convnet's shapes.
var directCases = []struct {
	name      string
	g         ConvGeom
	bsz, outC int
}{
	{"InC1/rows5", ConvGeom{InC: 1, InH: 8, InW: 8, KH: 3, KW: 3, Stride: 1, Pad: 1}, 2, 4},
	{"InC3/rows6", ConvGeom{InC: 3, InH: 9, InW: 7, KH: 3, KW: 3, Stride: 1, Pad: 1}, 3, 5},
	{"KW1/rows7", ConvGeom{InC: 4, InH: 6, InW: 6, KH: 1, KW: 1, Stride: 1, Pad: 0}, 2, 6},
	{"KW5/rows4", ConvGeom{InC: 2, InH: 9, InW: 9, KH: 5, KW: 5, Stride: 1, Pad: 2}, 2, 3},
	{"KH3_KW5", ConvGeom{InC: 5, InH: 7, InW: 10, KH: 3, KW: 5, Stride: 1, Pad: 1}, 2, 7},
	{"KH5_KW1", ConvGeom{InC: 3, InH: 8, InW: 6, KH: 5, KW: 1, Stride: 1, Pad: 2}, 2, 4},
	{"narrow_sweep", ConvGeom{InC: 2, InH: 5, InW: 5, KH: 3, KW: 3, Stride: 1, Pad: 1}, 3, 3},
	{"bsz1/conv1", ConvGeom{InC: 3, InH: 32, InW: 32, KH: 3, KW: 3, Stride: 1, Pad: 1}, 1, 8},
	{"bsz1/conv2", ConvGeom{InC: 8, InH: 16, InW: 16, KH: 3, KW: 3, Stride: 1, Pad: 1}, 1, 12},
}

// TestConvDirectU8BitIdentical locks the direct shift convolution —
// channel-pair weight panels over the padded channel-pair image rows —
// against Im2ColBatchU8 + GemmU8Into, accumulators and column sums both,
// on every kernel leg: the named directCases, then every stride-1 shape
// of the random sweep (the qconv32 dispatch gates on the same predicate).
func TestConvDirectU8BitIdentical(t *testing.T) {
	for _, simd := range kernelLegs() {
		rng := rand.New(rand.NewSource(144))
		check := func(t *testing.T, g ConvGeom, bsz, outC int) {
			t.Helper()
			k := g.InC * g.KH * g.KW
			n := bsz * g.OutH() * g.OutW()
			chw := g.InC * g.InH * g.InW
			zp := uint8(rng.Intn(256))

			a := make([]uint8, outC*k)
			qsrc := make([]uint8, bsz*chw)
			rng.Read(a)
			rng.Read(qsrc)

			qcols := make([]uint8, k*n)
			Im2ColBatchU8(qcols, qsrc, bsz, g, zp)
			wantC := make([]int32, outC*n)
			wantCS := make([]int32, n)
			gemmU8(wantC, wantCS, a, qcols, outC, k, n, simd)

			pack := PackConvShiftU8(a, outC, g.InC, g.KH, g.KW)
			gotC := make([]int32, outC*n)
			gotCS := make([]int32, n)
			for i := range gotC {
				gotC[i] = -9
			}
			for i := range gotCS {
				gotCS[i] = -9
			}
			convDirectU8(gotC, gotCS, pack, qsrc, bsz, g, zp, simd, NewArena())

			for i, v := range gotC {
				if v != wantC[i] {
					t.Fatalf("simd=%v (geom %+v bsz %d zp %d): acc %d: direct %d explicit %d", simd, g, bsz, zp, i, v, wantC[i])
				}
			}
			for j, v := range gotCS {
				if v != wantCS[j] {
					t.Fatalf("simd=%v (geom %+v bsz %d): colsum %d: direct %d explicit %d", simd, g, bsz, j, v, wantCS[j])
				}
			}
		}
		for _, tc := range directCases {
			t.Run(fmt.Sprintf("simd=%v/%s", simd, tc.name), func(t *testing.T) { check(t, tc.g, tc.bsz, tc.outC) })
		}
		tested := 0
		for _, tc := range implicitGeoms(rng) {
			if tc.g.Stride == 1 {
				tested++
				check(t, tc.g, tc.bsz, tc.outC)
			}
		}
		if tested < 10 {
			t.Fatalf("simd=%v: only %d stride-1 geometries tested — sweep too thin", simd, tested)
		}
	}
}

// TestPackConvShiftU8Unpacks reads PackConvShiftU8's panels back into the
// QuantWeights layout: every real weight is where the direct kernel looks
// for it, the zero-point channel's and the padding row's halves are 0,
// and the colsum row is 1 exactly on real channels.
func TestPackConvShiftU8Unpacks(t *testing.T) {
	rng := rand.New(rand.NewSource(148))
	for _, tc := range directCases {
		g, outC := tc.g, tc.outC
		bits := make([]uint8, outC*g.InC*g.KH*g.KW)
		rng.Read(bits)
		p := PackConvShiftU8(bits, outC, g.InC, g.KH, g.KW)
		cp := (g.InC + 1) / 2
		kf := g.KH * cp
		if p.rows()%2 != 0 || p.rows() < outC+1 || p.rows() > outC+2 || len(p.Bits) != p.rows()*g.KW*kf {
			t.Fatalf("%s: %d rows, %d words", tc.name, p.rows(), len(p.Bits))
		}
		for o := 0; o < p.rows(); o++ {
			for dx := 0; dx < g.KW; dx++ {
				for dy := 0; dy < g.KH; dy++ {
					for c := 0; c < 2*cp; c++ {
						got := p.Bits[(o*g.KW+dx)*kf+dy*cp+c/2] >> (16 * (c & 1)) & 0xffff
						var want uint32
						switch {
						case c >= g.InC || o > outC:
						case o == outC:
							want = 1
						default:
							want = uint32(bits[((o*g.InC+c)*g.KH+dy)*g.KW+dx])
						}
						if got != want {
							t.Fatalf("%s: row %d tap (%d,%d) channel %d: %d, want %d", tc.name, o, dy, dx, c, got, want)
						}
					}
				}
			}
		}
	}
}

// TestGemmU8PreIntoMatchesGemmU8Into verifies the colsum-free uint8 GEMM
// that DenseU8 runs produces the exact accumulators of GemmU8Into.
func TestGemmU8PreIntoMatchesGemmU8Into(t *testing.T) {
	for _, simd := range kernelLegs() {
		rng := rand.New(rand.NewSource(144))
		for trial := 0; trial < 40; trial++ {
			m := 1 + rng.Intn(9)
			k := 1 + rng.Intn(200)
			n := 1 + rng.Intn(150)
			a := make([]uint8, m*k)
			b := make([]uint8, k*n)
			rng.Read(a)
			rng.Read(b)

			want := make([]int32, m*n)
			wantCS := make([]int32, n)
			gemmU8(want, wantCS, a, b, m, k, n, simd)

			got := make([]int32, m*n)
			gemmU8(got, nil, a, b, m, k, n, simd)
			for i, v := range got {
				if v != want[i] {
					t.Fatalf("simd=%v trial %d (m=%d k=%d n=%d): acc %d: pre %d legacy %d", simd, trial, m, k, n, i, v, want[i])
				}
			}

		}
	}
}

// denseWidths are the output widths the Dense tests sweep: below, at and
// between the column blocks of the three kernels (8, 16 and 32 columns).
var denseWidths = []int{1, 10, 15, 16, 17, 31, 32, 33, 40, 64, 100}

// TestDenseMatchesChains holds the served Dense entries of every width to
// their oracle, plain and verified: each float output bit for bit to the
// ascending-p chain of the served GEMM body (the chains of
// TestGemmBodiesMatchChains: fused on AVX2, unfused in gemm4Go) plus the
// bias, each int8 accumulator to the scalar SWAR GEMM. A verified call
// checks every column of the padded tile.
func TestDenseMatchesChains(t *testing.T) {
	t.Run("f64", func(t *testing.T) {
		denseChainCheck(t, 150, func(a, b, c float64) float64 { return math.FMA(a, b, c) })
	})
	t.Run("f32", func(t *testing.T) { denseChainCheck(t, 151, fma32) })
	t.Run("int8", func(t *testing.T) {
		rng := rand.New(rand.NewSource(149))
		a := NewArena()
		for _, n := range denseWidths {
			for _, sink := range []*AbftStats{nil, {}} {
				a.SetAbft(sink)
				m, k := 1+rng.Intn(33), 1+rng.Intn(300)
				x, bits := make([]uint8, m*k), make([]uint8, n*k)
				rng.Read(x)
				rng.Read(bits)
				p := PackDense(bits, n, k)
				want := make([]int32, m*n)
				gemmU8(want, nil, x, transposeU8(bits, n, k), m, k, n, false)
				got := make([]int32, m*n)
				DenseU8(got, x, p, m, a)
				for i, v := range got {
					if v != want[i] {
						t.Fatalf("n=%d m=%d k=%d verified=%v: acc %d: DenseU8 %d, scalar %d", n, m, k, sink != nil, i, v, want[i])
					}
				}
				denseCountsCheck(t, sink, a, p.LD)
			}
		}
	})
}

// denseChainCheck is TestDenseMatchesChains at float width F; fused is
// the AVX2 body's multiply-add.
func denseChainCheck[F Float](t *testing.T, seed int64, fused func(a, b, c F) F) {
	chain := func(a, b, c F) F { return c + F(a*b) }
	if simdAvailable {
		chain = fused
	}
	rng := rand.New(rand.NewSource(seed))
	norm := func(n int) []F {
		v := make([]F, n)
		for i := range v {
			v[i] = F(rng.NormFloat64())
		}
		return v
	}
	a := NewArena()
	for _, n := range denseWidths {
		for _, sink := range []*AbftStats{nil, {}} {
			a.SetAbft(sink)
			m, k := 1+rng.Intn(33), 1+rng.Intn(300)
			x, w, bias := norm(m*k), norm(n*k), norm(n)
			p := PackDense(w, n, k)
			got := make([]F, m*n)
			Dense(got, x, p, bias, m, a)
			for i := 0; i < m; i++ {
				for o := 0; o < n; o++ {
					var want F
					for q := 0; q < k; q++ {
						want = chain(x[i*k+q], w[o*k+q], want)
					}
					if want += bias[o]; float64bitsOf(got[i*n+o]) != float64bitsOf(want) {
						t.Fatalf("n=%d m=%d k=%d verified=%v: out[%d][%d] = %v, chain %v", n, m, k, sink != nil, i, o, got[i*n+o], want)
					}
				}
			}
			denseCountsCheck(t, sink, a, p.LD)
		}
	}
}

// denseCountsCheck requires a verified Dense call to have checked the ld
// columns of its tile with no detection, and every call to have handed
// its scratch back; it then resets a.
func denseCountsCheck(t *testing.T, sink *AbftStats, a *Arena, ld int) {
	t.Helper()
	if c := sink.Counts(); sink != nil && (c.Checks != uint64(ld) || c.Detected != 0) {
		t.Fatalf("ld=%d: verified counts %+v, want %d checks and no detections", ld, c, ld)
	}
	if a.Live() != 0 || a.Drawn() != 0 {
		t.Fatalf("ld=%d: %d buffers (%d bytes) left drawn", ld, a.Live(), a.Drawn())
	}
	a.Reset()
}

func transposeU8(b []uint8, k, n int) []uint8 {
	out := make([]uint8, n*k)
	for p := 0; p < k; p++ {
		for j := 0; j < n; j++ {
			out[j*k+p] = b[p*n+j]
		}
	}
	return out
}

// TestAlignedAllocators checks the cache-line contract of every aligned
// allocator: base address on a 64-byte boundary, exact length, and capacity
// clipped so appends cannot step off the aligned block.
func TestAlignedAllocators(t *testing.T) {
	for _, n := range []int{1, 7, 64, 1000, 16384} {
		f64 := AlignedF64(n)
		f32 := AlignedF32(n)
		i32 := alignedSlice[int32](n)
		u8 := alignedSlice[uint8](n)
		if !Aligned64(f64) || !Aligned64(f32) || !Aligned64(i32) || !Aligned64(u8) {
			t.Fatalf("n=%d: misaligned base (f64=%v f32=%v i32=%v u8=%v)", n, Aligned64(f64), Aligned64(f32), Aligned64(i32), Aligned64(u8))
		}
		if len(f64) != n || cap(f64) != n || len(u8) != n || cap(u8) != n {
			t.Fatalf("n=%d: len/cap not clipped (f64 %d/%d, u8 %d/%d)", n, len(f64), cap(f64), len(u8), cap(u8))
		}
		gs := alignedSlice[float32](n)
		if !Aligned64(gs) || len(gs) != n || cap(gs) != n {
			t.Fatalf("n=%d: alignedSlice misaligned or unclipped (%d/%d)", n, len(gs), cap(gs))
		}
	}
	if uintptr(unsafe.Pointer(&AlignedF64(8)[0]))&63 != 0 {
		t.Fatal("AlignedF64 base not 64-byte aligned")
	}
}

// unpackDense is the test-side inverse of PackDense: the [N, K] row-major
// weights, plus whether every padding column of the pack is zero.
func unpackDense[E Float | uint8](p *Packed[E]) (w []E, padZero bool) {
	w, padZero = make([]E, p.N*p.K), true
	for k := 0; k < p.K; k++ {
		for o, v := range p.W[k*p.LD : (k+1)*p.LD] {
			if o < p.N {
				w[o*p.K+k] = v
			} else if v != 0 {
				padZero = false
			}
		}
	}
	return w, padZero
}

// packRoundTrip packs w [n, k] and requires the pack's shape — LD the
// least multiple of the kernel's column block not below n, the buffer
// cache-line aligned — and a bit-exact unpack with zero padding.
func packRoundTrip[E Float | uint8](t *testing.T, w []E, n, k, block int) {
	t.Helper()
	p := PackDense(w, n, k)
	if p.K != k || p.N != n || p.LD%block != 0 || p.LD < n || p.LD-n >= block || len(p.W) != k*p.LD || !Aligned64(p.W) {
		t.Fatalf("pack of [%d, %d]: K=%d N=%d LD=%d len=%d aligned=%v, column block %d", n, k, p.K, p.N, p.LD, len(p.W), Aligned64(p.W), block)
	}
	back, padZero := unpackDense(p)
	if !padZero {
		t.Fatalf("pack of [%d, %d]: nonzero padding column", n, k)
	}
	for i, v := range back {
		if float64(v) != float64(w[i]) {
			t.Fatalf("pack of [%d, %d]: unpack[%d]=%v, want %v", n, k, i, v, w[i])
		}
	}
}

// TestPackDenseRoundTrip is the deterministic companion of
// FuzzPrepackRoundTrip at every width: pack → unpack reconstructs the
// weights bit-exactly, the padding is zero and LD is the kernel's block.
func TestPackDenseRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(146))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(70)
		k := 1 + rng.Intn(300)
		bits := make([]uint8, n*k)
		rng.Read(bits)
		w64, w32 := make([]float64, n*k), make([]float32, n*k)
		for i := range w64 {
			w64[i] = rng.NormFloat64()
			w32[i] = float32(rng.NormFloat64())
		}
		packRoundTrip(t, bits, n, k, 32)
		packRoundTrip(t, w64, n, k, fmaLanes[float64]())
		packRoundTrip(t, w32, n, k, fmaLanes[float32]())
	}
}

// FuzzPrepackRoundTrip throws arbitrary weight byte matrices at the Dense
// pack and demands bit-exact reconstruction with zero padding — the pack
// must be pure data movement for any shape and content. The bytes are
// packed as the int8 bits and, eight at a time, as float64 bit patterns
// (NaN and ±Inf included, compared by bits).
func FuzzPrepackRoundTrip(f *testing.F) {
	f.Add(uint8(3), []byte("prepack roundtrip"))
	f.Add(uint8(1), []byte{})
	f.Add(uint8(16), make([]byte, 400))
	f.Fuzz(func(t *testing.T, mr uint8, raw []byte) {
		n := int(mr)%40 + 1
		k := len(raw)/n + 1
		bits := make([]uint8, n*k)
		copy(bits, raw)
		packRoundTrip(t, bits, n, k, 32)

		w := make([]float64, n*(len(raw)/8/n+1))
		for i := range w {
			if (i+1)*8 <= len(raw) {
				w[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[i*8:]))
			}
		}
		p := PackDense(w, n, len(w)/n)
		back, padZero := unpackDense(p)
		if !padZero {
			t.Fatalf("n=%d: nonzero padding column", n)
		}
		for i, v := range back {
			if math.Float64bits(v) != math.Float64bits(w[i]) {
				t.Fatalf("n=%d: unpack[%d] bits %x, want %x", n, i, math.Float64bits(v), math.Float64bits(w[i]))
			}
		}
	})
}

// TestImplicitGemmZeroAlloc checks the steady-state allocation contract of
// kernel scratch: every kernel draws its blocks, padded edges, padded rows
// and checksum arrays from the caller's arena, so once the arena has grown
// to a call, the call performs zero heap allocations — plain or verified,
// and under the race detector too (there is no pool left to drop a Put).
// Every kernel hands its scratch back before it returns: only Conv's
// explicit lowering leaves a buffer live, its column matrix.
// The float shape leaves edge columns at both widths (n = 300 is 4 mod 8
// and 12 mod 16, and the second generation block is 44 wide) and edge
// rows (m = 10 is 2 mod 4). The wide int8 conv (m·k·255² > 2³¹) takes the
// int64 checksums.
func TestImplicitGemmZeroAlloc(t *testing.T) {
	g := ConvGeom{InC: 16, InH: 10, InW: 10, KH: 3, KW: 3, Stride: 1, Pad: 1}
	bsz, outC := 3, 10
	k := g.InC * g.KH * g.KW
	n := bsz * g.OutH() * g.OutW()
	chw := g.InC * g.InH * g.InW

	rng := rand.New(rand.NewSource(147))
	w64 := New(outC, k)
	w64.FillNormal(rng, 0, 1)
	src64 := New(bsz, chw)
	src64.FillNormal(rng, 0, 1)
	wd64 := New(outC, chw)
	wd64.FillNormal(rng, 0, 1)
	w32, src32, wd32 := To32(w64), To32(src64), To32(wd64)
	cm64, cm32 := make([]float64, outC*n), make([]float32, outC*n)
	d64, d32 := make([]float64, bsz*outC), make([]float32, bsz*outC)
	pd64, pd32 := PackDense(wd64.Data, outC, chw), PackDense(wd32.Data, outC, chw)
	b64, b32 := make([]float64, outC), make([]float32, outC)

	qw := QuantizeWeightsSym(w64.Data, outC, k)
	shift := PackConvShiftU8(qw.Bits, outC, g.InC, g.KH, g.KW)
	dense := PackDense(QuantizeWeightsSym(wd64.Data, outC, chw).Bits, outC, chw)
	qsrc := make([]uint8, bsz*chw)
	rng.Read(qsrc)
	acc, colsum, dacc := make([]int32, outC*n), make([]int32, n), make([]int32, bsz*outC)

	gw := ConvGeom{InC: 64, InH: 4, InW: 4, KH: 3, KW: 3, Stride: 1, Pad: 1}
	kw := gw.InC * gw.KH * gw.KW
	ww := New(64, kw)
	ww.FillNormal(rng, 0, 1)
	qww := QuantizeWeightsSym(ww.Data, 64, kw)
	shiftw := PackConvShiftU8(qww.Bits, 64, gw.InC, gw.KH, gw.KW)
	qsrcw := make([]uint8, gw.InC*gw.InH*gw.InW)
	rng.Read(qsrcw)
	accw, colsumw := make([]int32, 64*16), make([]int32, 16)

	a := NewArena()
	cases := []struct {
		name string
		live int // buffers the call leaves drawn
		run  func()
	}{
		{"f64 implicit driver", 0, func() { convGemm(cm64, w64.Data, src64.Data, outC, k, n, bsz, g, a) }},
		{"f32 implicit driver", 0, func() { convGemm(cm32, w32.Data, src32.Data, outC, k, n, bsz, g, a) }},
		{"f64 Conv", 1, func() { Conv(cm64, w64.Data, src64.Data, outC, bsz, g, a) }},
		{"f32 Conv", 1, func() { Conv(cm32, w32.Data, src32.Data, outC, bsz, g, a) }},
		{"f64 Dense", 0, func() { Dense(d64, src64.Data, pd64, b64, bsz, a) }},
		{"f32 Dense", 0, func() { Dense(d32, src32.Data, pd32, b32, bsz, a) }},
		{"int8 direct ConvU8", 0, func() { ConvU8(acc, colsum, qw, shift, qsrc, bsz, g, 3, a) }},
		{"int8 implicit ConvU8", 0, func() { ConvU8(acc, colsum, qw, nil, qsrc, bsz, g, 3, a) }},
		{"int8 DenseU8", 0, func() { DenseU8(dacc, qsrc, dense, bsz, a) }},
		{"int8 wide ConvU8", 0, func() { ConvU8(accw, colsumw, qww, shiftw, qsrcw, 1, gw, 0, a) }},
	}
	for _, sink := range []*AbftStats{nil, {}} {
		a.SetAbft(sink)
		for _, tc := range cases {
			run := func() {
				tc.run()
				a.Reset()
			}
			run() // grow the arena to the call
			if tc.run(); a.Live() != tc.live {
				t.Errorf("%s (verified %v) returned with %d buffers live, want %d", tc.name, sink != nil, a.Live(), tc.live)
			}
			a.Reset()
			if allocs := testing.AllocsPerRun(20, run); allocs != 0 {
				t.Errorf("steady-state %s (verified %v) allocates %.1f times per call, want 0", tc.name, sink != nil, allocs)
			}
		}
		if c := sink.Counts(); sink != nil && (c.Checks == 0 || c.Detected != 0) {
			t.Errorf("verified runs: sink counts %+v, want checks and no detections", c)
		}
	}
}
