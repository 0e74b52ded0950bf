package tensor

import (
	"math/rand"
	"testing"
	"unsafe"
)

// The prepack correctness bar (DESIGN.md §14): every prepacked or implicit
// execution path is bit-identical to the explicit im2col lowering. These
// tests sweep randomized geometries plus hand-picked shapes that force
// each dispatch arm — the float GEMM's edges, the uint8 drivers' serial,
// parallel, vector and pure-Go arms — and compare element-by-element with
// ==, not a tolerance.

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
// fixed shapes with a long K, multi-panel n (> gemmNC, > implicitJW) and
// the uint8 drivers' parallel threshold (m·n·k ≥ gemmParallelMACs).
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
		// Parallel path: m·n·k = 32·2048·144 ≈ 9.4M ≥ gemmParallelMACs, and
		// n = 2048 spans several gemmNC panels.
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
		gemmServed(want.Data, weight.Data, cols.Data, tc.outC, k, n)

		got := New(tc.outC, n)
		got.FillUniform(rng, -9, 9) // must be fully overwritten
		convGemm(got.Data, weight.Data, packed, tc.outC, k, n, bsz, g)

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
		gemmServed(want.Data, weight.Data, cols.Data, tc.outC, k, n)

		got := New32(tc.outC, n)
		for i := range got.Data {
			got.Data[i] = 777
		}
		convGemm(got.Data, weight.Data, src.Data, tc.outC, k, n, bsz, g)

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
			convGemmU8(gotC, gotCS, a, qsrc, tc.outC, k, n, bsz, g, zp, simd)

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

// TestConvDirectU8BitIdentical locks the direct shift convolution —
// kernel-column weight panels over the padded channel-interleaved image —
// against Im2ColBatchU8 + GemmU8Into, accumulators and column sums both,
// on every kernel leg. Only stride-1 geometries are eligible (the
// qconv32 dispatch gates on the same predicate).
func TestConvDirectU8BitIdentical(t *testing.T) {
	for _, simd := range kernelLegs() {
		rng := rand.New(rand.NewSource(144))
		tested := 0
		for ci, tc := range implicitGeoms(rng) {
			g, bsz := tc.g, tc.bsz
			if g.Stride != 1 {
				continue
			}
			tested++
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

			pack := PackConvShiftU8(a, tc.outC, g.InC, g.KH, g.KW)
			gotC := make([]int32, tc.outC*n)
			gotCS := make([]int32, n)
			for i := range gotC {
				gotC[i] = -9
			}
			for i := range gotCS {
				gotCS[i] = -9
			}
			convDirectU8(gotC, gotCS, pack, qsrc, bsz, g, zp, simd)

			for i, v := range gotC {
				if v != wantC[i] {
					t.Fatalf("simd=%v case %d (geom %+v bsz %d zp %d): acc %d: direct %d explicit %d", simd, ci, g, bsz, zp, i, v, wantC[i])
				}
			}
			for j, v := range gotCS {
				if v != wantCS[j] {
					t.Fatalf("simd=%v case %d (geom %+v): colsum %d: direct %d explicit %d", simd, ci, g, j, v, wantCS[j])
				}
			}
		}
		if tested < 10 {
			t.Fatalf("simd=%v: only %d stride-1 geometries tested — sweep too thin", simd, tested)
		}
	}
}

// TestGemmU8PreIntoMatchesGemmU8Into verifies the colsum-free uint8 GEMM
// entry point produces the exact accumulators of GemmU8Into, and that
// PackQuantTranspose's precomputed ColSum equals the per-call column sums
// GemmU8Into derives — the two halves of the prepacked int8 Dense path.
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

			// ColSum of a pack of B's transpose is the column sums of B.
			q := QuantWeights{M: n, K: k, Bits: transposeU8(b, k, n), Scale: make([]float64, n), RowSum: make([]int32, n)}
			p := PackQuantTranspose(q)
			for j, v := range p.ColSum {
				if v != wantCS[j] {
					t.Fatalf("simd=%v trial %d: ColSum[%d]=%d, GemmU8Into colsum %d", simd, trial, j, v, wantCS[j])
				}
			}
		}
	}
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
		i32 := AlignedI32(n)
		u8 := AlignedU8(n)
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

// TestPackQuantTransposeRoundTrip is the deterministic companion of
// FuzzPrepackRoundTrip: pack → unpack reconstructs the weights bit-exactly
// and ColSum matches a direct recount.
func TestPackQuantTransposeRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(146))
	for trial := 0; trial < 50; trial++ {
		m := 1 + rng.Intn(16)
		k := 1 + rng.Intn(300)
		bits := make([]uint8, m*k)
		rng.Read(bits)
		q := QuantWeights{M: m, K: k, Bits: bits, Scale: make([]float64, m), RowSum: make([]int32, m)}

		p := PackQuantTranspose(q)
		if p.K != k || p.N != m || !Aligned64(p.Bits) || !Aligned64(p.ColSum) {
			t.Fatalf("trial %d: pack metadata/alignment wrong (K=%d N=%d)", trial, p.K, p.N)
		}
		back := p.Unpack()
		for i, v := range back {
			if v != bits[i] {
				t.Fatalf("trial %d: unpack[%d]=%d, want %d", trial, i, v, bits[i])
			}
		}
		for o := 0; o < m; o++ {
			var sum int32
			for _, v := range bits[o*k : (o+1)*k] {
				sum += int32(v)
			}
			if p.ColSum[o] != sum {
				t.Fatalf("trial %d: ColSum[%d]=%d, want %d", trial, o, p.ColSum[o], sum)
			}
		}
	}
}

// FuzzPrepackRoundTrip throws arbitrary weight byte matrices at the
// transposed pack and demands bit-exact reconstruction plus exact column
// sums — the pack must be pure data movement for any shape and content.
func FuzzPrepackRoundTrip(f *testing.F) {
	f.Add(uint8(3), []byte("prepack roundtrip"))
	f.Add(uint8(1), []byte{})
	f.Add(uint8(16), make([]byte, 400))
	f.Fuzz(func(t *testing.T, mr uint8, raw []byte) {
		m := int(mr)%16 + 1
		k := len(raw)/m + 1
		bits := make([]uint8, m*k)
		copy(bits, raw)
		q := QuantWeights{M: m, K: k, Bits: bits, Scale: make([]float64, m), RowSum: make([]int32, m)}

		p := PackQuantTranspose(q)
		back := p.Unpack()
		if len(back) != len(bits) {
			t.Fatalf("unpack length %d, want %d", len(back), len(bits))
		}
		for i, v := range back {
			if v != bits[i] {
				t.Fatalf("m=%d k=%d: unpack[%d]=%d, want %d", m, k, i, v, bits[i])
			}
		}
		for o := 0; o < m; o++ {
			var sum int32
			for _, v := range bits[o*k : (o+1)*k] {
				sum += int32(v)
			}
			if p.ColSum[o] != sum {
				t.Fatalf("m=%d k=%d: ColSum[%d]=%d, want %d", m, k, o, p.ColSum[o], sum)
			}
		}
	})
}

// TestImplicitGemmZeroAlloc checks the steady-state allocation contract:
// once the block and pack pools are warm, a serial-sized implicit conv call
// performs zero heap allocations — the full point of the pointer-cycling
// sync.Pool plumbing. The f64 shape leaves a column tail (n mod 8 = 4)
// and tail rows (m mod 4 = 2), so the edges' pooled block is covered too.
func TestImplicitGemmZeroAlloc(t *testing.T) {
	g := ConvGeom{InC: 16, InH: 10, InW: 10, KH: 3, KW: 3, Stride: 1, Pad: 1}
	bsz, outC := 3, 10 // serial: m·n·k ≈ 430k MACs, under gemmParallelMACs
	k := g.InC * g.KH * g.KW
	n := bsz * g.OutH() * g.OutW()
	chw := g.InC * g.InH * g.InW

	// The race detector makes sync.Pool drop a random share of Puts on
	// purpose, so a warm pool still misses now and then: the calls run
	// (and are race-checked), only the count is not asserted.
	assertZero := func(name string, run func()) {
		t.Helper()
		run() // warm the pools
		if allocs := testing.AllocsPerRun(20, run); allocs != 0 && !raceEnabled {
			t.Fatalf("steady-state %s allocates %.1f times per call, want 0", name, allocs)
		}
	}

	rng := rand.New(rand.NewSource(147))
	weight := New(outC, k)
	weight.FillNormal(rng, 0, 1)
	src := make([]float64, bsz*chw)
	for i := range src {
		src[i] = rng.NormFloat64()
	}
	cm := New(outC, n)
	assertZero("ConvGemmIm2Col", func() { convGemm(cm.Data, weight.Data, src, outC, k, n, bsz, g) })

	a := make([]uint8, outC*k)
	qsrc := make([]uint8, bsz*chw)
	rng.Read(a)
	rng.Read(qsrc)
	acc := make([]int32, outC*n)
	colsum := make([]int32, n)
	assertZero("ConvGemmU8Im2Col", func() { ConvGemmU8Im2Col(acc, colsum, a, outC, qsrc, bsz, g, 0) })
}
