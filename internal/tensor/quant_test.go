package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"
)

func randT32(rng *rand.Rand, shape ...int) *T32 {
	t := New32(shape...)
	for i := range t.Data {
		t.Data[i] = float32(rng.NormFloat64())
	}
	return t
}

// TestIm2ColBatch32MatchesF64 checks the packed f32 batch lowering against
// the reference per-image f64 lowering: same geometry, same layout, values
// equal after conversion.
func TestIm2ColBatch32MatchesF64(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	geoms := []ConvGeom{
		{InC: 3, InH: 8, InW: 8, KH: 3, KW: 3, Stride: 1, Pad: 1},
		{InC: 2, InH: 7, InW: 5, KH: 3, KW: 3, Stride: 2, Pad: 0},
		{InC: 1, InH: 9, InW: 9, KH: 5, KW: 5, Stride: 1, Pad: 2},
	}
	for gi, g := range geoms {
		const bsz = 3
		chw := g.InC * g.InH * g.InW
		rows := g.InC * g.KH * g.KW
		cols := bsz * g.OutH() * g.OutW()

		imgs := make([]*T, bsz)
		packed := New32(bsz, chw)
		for b := 0; b < bsz; b++ {
			imgs[b] = New(g.InC, g.InH, g.InW)
			imgs[b].FillNormal(rng, 0, 1)
			for i, v := range imgs[b].Data {
				packed.Data[b*chw+i] = float32(v)
			}
		}

		want := New(rows, cols)
		Im2ColBatch(want, imgs, g)
		got := New32(rows, cols)
		Im2ColBatch32(got, packed, bsz, g)
		for i, w := range want.Data {
			if got.Data[i] != float32(w) {
				t.Fatalf("geom %d element %d: got %g, want %g", gi, i, got.Data[i], float32(w))
			}
		}
	}
}

// TestWinogradConv3x3F32MatchesF64 checks the f32 Winograd path against the
// f64 one on identical weights: with unit-normal data the results agree to
// float32 accumulation error.
func TestWinogradConv3x3F32MatchesF64(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	g := ConvGeom{InC: 4, InH: 8, InW: 8, KH: 3, KW: 3, Stride: 1, Pad: 1}
	const bsz, outC = 2, 5
	if !winogradEligible(g) {
		t.Fatal("fixture geometry must be Winograd-eligible")
	}
	chw := g.InC * g.InH * g.InW
	ohw := g.OutH() * g.OutW()

	w := New(outC, g.InC*9)
	w.FillNormal(rng, 0, 1)
	bias := make([]float64, outC)
	for i := range bias {
		bias[i] = rng.NormFloat64()
	}
	src := New(bsz, chw)
	src.FillNormal(rng, 0, 1)

	dst := New(bsz, outC*ohw)
	WinogradConv3x3Pre(dst, src, bsz, outC, PackWinoFilter(w, outC, g.InC), bias, g, NewArena())

	bias32 := make([]float32, outC)
	for i, v := range bias {
		bias32[i] = float32(v)
	}
	w32 := To32(w)
	dst32 := New32(bsz, outC*ohw)
	WinogradConv3x3F32Pre(dst32, To32(src), bsz, outC, PackWinoFilter32(w32, outC, g.InC), bias32, g, NewArena32())

	for i, want := range dst.Data {
		if d := math.Abs(float64(dst32.Data[i]) - want); d > 1e-4 {
			t.Fatalf("element %d: f32 %g vs f64 %g (|Δ|=%g)", i, dst32.Data[i], want, d)
		}
	}
}

// TestArena32Recycling: once warm, each of the reduced-precision
// backends' three regions — float32, byte and int32 — hands the same
// memory out again after a Reset.
func TestArena32Recycling(t *testing.T) {
	a := NewArena32()
	warm := func() (*float32, *uint8, *int32) {
		f := Raw[float32](a, 32)
		by := Raw[uint8](a, 100)
		in := Raw[int32](a, 50)
		return &f[0], &by[0], &in[0]
	}
	warm()
	a.Reset()
	f, by, in := warm()
	if a.Live() != 3 {
		t.Fatalf("Live = %d, want 3", a.Live())
	}
	a.Reset()
	if f2 := Raw[float32](a, 32); &f2[0] != f {
		t.Error("float32 buffer was not recycled")
	}
	if by2 := Raw[uint8](a, 100); &by2[0] != by {
		t.Error("byte buffer was not recycled")
	}
	if in2 := Raw[int32](a, 50); &in2[0] != in {
		t.Error("int32 buffer was not recycled")
	}
	if n := SlabLen[float64](a); n != 0 {
		t.Errorf("float64 slab grew to %d elements with no float64 draw", n)
	}
}

// TestQuantizeWeightsSym locks the weight quantization invariants: biased
// storage, per-row scale = maxabs/127, rowsum bookkeeping, round-trip error
// bounded by scale/2, and a well-defined all-zero row.
func TestQuantizeWeightsSym(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	const m, k = 6, 37
	w := make([]float64, m*k)
	for i := range w {
		w[i] = rng.NormFloat64() * math.Exp(rng.NormFloat64())
	}
	// Row 2 all zero; row 4 contains the global extreme.
	for j := 0; j < k; j++ {
		w[2*k+j] = 0
	}
	w[4*k+5] = -1000

	q := QuantizeWeightsSym(w, m, k)
	if q.M != m || q.K != k {
		t.Fatalf("dims %dx%d, want %dx%d", q.M, q.K, m, k)
	}
	if q.Scale[2] != 1 {
		t.Errorf("all-zero row scale = %g, want 1", q.Scale[2])
	}
	for i := 0; i < m; i++ {
		var sum int32
		for j := 0; j < k; j++ {
			u := q.Bits[i*k+j]
			if u == 0 {
				t.Fatalf("row %d col %d: biased weight 0 (qw must be ≥ -127)", i, j)
			}
			qw := int32(u) - 128
			sum += qw
			deq := float64(qw) * q.Scale[i]
			if err := math.Abs(deq - w[i*k+j]); err > q.Scale[i]/2+1e-12 {
				t.Fatalf("row %d col %d: round-trip error %g exceeds scale/2 = %g", i, j, err, q.Scale[i]/2)
			}
		}
		if sum != q.RowSum[i] {
			t.Errorf("row %d: RowSum = %d, want %d", i, q.RowSum[i], sum)
		}
	}
}

// TestQuantizeU8 checks rounding and clamping of the activation quantizer,
// including negative inputs against a nonzero zero point.
func TestQuantizeU8(t *testing.T) {
	src := []float32{0, 0.5, 1, -0.5, -1, 100, -100, 0.24, 0.26}
	dst := make([]uint8, len(src))
	// scale 0.5, zp 10: q = round(v*2) + 10.
	QuantizeU8(dst, src, 2, 10)
	want := []uint8{10, 11, 12, 9, 8, 210, 0, 10, 11}
	for i, w := range want {
		if dst[i] != w {
			t.Errorf("src %g: got %d, want %d", src[i], dst[i], w)
		}
	}
	// Upper clamp.
	QuantizeU8(dst[:1], []float32{1e9}, 2, 10)
	if dst[0] != 255 {
		t.Errorf("upper clamp: got %d, want 255", dst[0])
	}
}

// TestIm2ColBatchU8Commutes checks that lowering commutes with quantization:
// quantize-then-lower (the int8 backend's path) equals lower-then-quantize,
// because lowering is a gather and the float pad 0.0 quantizes to zp.
func TestIm2ColBatchU8Commutes(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	geoms := []ConvGeom{
		{InC: 3, InH: 8, InW: 8, KH: 3, KW: 3, Stride: 1, Pad: 1},
		{InC: 2, InH: 7, InW: 5, KH: 3, KW: 3, Stride: 2, Pad: 2},
	}
	for gi, g := range geoms {
		const bsz = 2
		const invScale, zp = 5.25, 17
		chw := g.InC * g.InH * g.InW
		rows := g.InC * g.KH * g.KW
		cols := bsz * g.OutH() * g.OutW()

		src := New32(bsz, chw)
		for i := range src.Data {
			src.Data[i] = float32(rng.NormFloat64())
		}

		// Path A: quantize the images, then lower bytes.
		qsrc := make([]uint8, bsz*chw)
		QuantizeU8(qsrc, src.Data, invScale, zp)
		got := make([]uint8, rows*cols)
		Im2ColBatchU8(got, qsrc, bsz, g, zp)

		// Path B: lower floats, then quantize the column matrix.
		lowered := New32(rows, cols)
		Im2ColBatch32(lowered, src, bsz, g)
		want := make([]uint8, rows*cols)
		QuantizeU8(want, lowered.Data, invScale, zp)

		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("geom %d element %d: got %d, want %d", gi, i, got[i], want[i])
			}
		}
	}
}

// gemmU8Ref is the scalar reference for the uint8 GEMM and its column sums.
func gemmU8Ref(a, b []uint8, m, k, n int) (c, colsum []int32) {
	c = make([]int32, m*n)
	colsum = make([]int32, n)
	for j := 0; j < n; j++ {
		for p := 0; p < k; p++ {
			colsum[j] += int32(b[p*n+j])
		}
	}
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var acc int32
			for p := 0; p < k; p++ {
				acc += int32(a[i*k+p]) * int32(b[p*n+j])
			}
			c[i*n+j] = acc
		}
	}
	return c, colsum
}

// TestGemmU8Into checks the SWAR kernel against the scalar reference across
// shapes exercising the 4×4 block, every remainder case, the sub-panel loop
// and the parallel panel path. Integer results must be exactly equal.
func TestGemmU8Into(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)

	rng := rand.New(rand.NewSource(43))
	shapes := [][3]int{
		{1, 1, 1},
		{4, 8, 4},               // exact tiles
		{3, 5, 7},               // all remainders
		{6, 100, quantJB + 9},   // sub-panel boundary + col remainder
		{10, 72, 1000},          // dense-head-like
		{13, 150, 2*gemmNC + 3}, // multiple panels
		{32, 513, gemmNC * 2},   // parallel path
	}
	for _, s := range shapes {
		m, k, n := s[0], s[1], s[2]
		t.Run(fmt.Sprintf("%dx%dx%d", m, k, n), func(t *testing.T) {
			a := make([]uint8, m*k)
			b := make([]uint8, k*n)
			for i := range a {
				a[i] = uint8(rng.Intn(256))
			}
			for i := range b {
				b[i] = uint8(rng.Intn(256))
			}
			wantC, wantCS := gemmU8Ref(a, b, m, k, n)
			c := make([]int32, m*n)
			cs := make([]int32, n)
			GemmU8Into(c, cs, a, b, m, k, n)
			for i := range wantC {
				if c[i] != wantC[i] {
					t.Fatalf("c[%d] = %d, want %d", i, c[i], wantC[i])
				}
			}
			for j := range wantCS {
				if cs[j] != wantCS[j] {
					t.Fatalf("colsum[%d] = %d, want %d", j, cs[j], wantCS[j])
				}
			}
		})
	}
}

// TestGemmU8IntoLaneBound drives a SWAR lane to its worst case — k =
// MaxQuantK with every operand byte 255 — and checks the accumulator holds
// exactly k·255² without overflowing into the adjacent lane.
func TestGemmU8IntoLaneBound(t *testing.T) {
	const m, n = 4, 4
	k := MaxQuantK
	a := make([]uint8, m*k)
	b := make([]uint8, k*n)
	for i := range a {
		a[i] = 255
	}
	for i := range b {
		b[i] = 255
	}
	c := make([]int32, m*n)
	cs := make([]int32, n)
	GemmU8Into(c, cs, a, b, m, k, n)
	want := int32(k) * 255 * 255
	for i, v := range c {
		if v != want {
			t.Fatalf("c[%d] = %d, want %d", i, v, want)
		}
	}
}

// TestGemmU8IntoKBound checks the overflow guard rejects k beyond MaxQuantK.
func TestGemmU8IntoKBound(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for k > MaxQuantK")
		}
	}()
	k := MaxQuantK + 1
	GemmU8Into(make([]int32, 1), make([]int32, 1), make([]uint8, k), make([]uint8, k), 1, k, 1)
}

// TestQuantCorrectionIdentity locks the algebra the quantized forward pass
// relies on: the biased accumulator minus the 128·colsum and zp·rowsum
// corrections equals the true Σ (q−zp)·qw, exactly, as integers.
func TestQuantCorrectionIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	const m, k, n = 5, 64, 33
	const zp = 19

	w := make([]float64, m*k)
	for i := range w {
		w[i] = rng.NormFloat64()
	}
	qw := QuantizeWeightsSym(w, m, k)

	b := make([]uint8, k*n)
	for i := range b {
		b[i] = uint8(rng.Intn(256))
	}

	c := make([]int32, m*n)
	cs := make([]int32, n)
	GemmU8Into(c, cs, qw.Bits, b, m, k, n)

	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var want int32
			for p := 0; p < k; p++ {
				want += (int32(b[p*n+j]) - zp) * (int32(qw.Bits[i*k+p]) - 128)
			}
			got := c[i*n+j] - 128*cs[j] - zp*qw.RowSum[i]
			if got != want {
				t.Fatalf("(%d,%d): corrected %d, want %d", i, j, got, want)
			}
		}
	}
}
