package tensor

import (
	"math/rand"
	"testing"
)

// im2colRef is the per-element definition the column generator is held
// to: entry (p, j) of the batched [InC·KH·KW, B·OutH·OutW] im2col matrix
// of the packed batch src — the strided element loop, applied at every
// stride, with pad wherever the window hangs over the border.
func im2colRef[E Float | uint8](src []E, g ConvGeom, p, j int, pad E) E {
	ohw, hw, khw := g.OutH()*g.OutW(), g.InH*g.InW, g.KH*g.KW
	b, q := j/ohw, j%ohw
	c, kh, kw := p/khw, p%khw/g.KW, p%g.KW
	iy := q/g.OutW()*g.Stride + kh - g.Pad
	ix := q%g.OutW()*g.Stride + kw - g.Pad
	if iy < 0 || iy >= g.InH || ix < 0 || ix >= g.InW {
		return pad
	}
	return src[(b*g.InC+c)*hw+iy*g.InW+ix]
}

// checkIm2colBlock generates one (p0, kc, j0, jw) block into a
// sentinel-filled buffer whose row stride leaves a two-element gap after
// every row, and holds each written element to im2colRef and each gap
// element to the sentinel.
func checkIm2colBlock[E Float | uint8](t testing.TB, src []E, g ConvGeom, p0, kc, j0, jw int, pad, sentinel E) {
	t.Helper()
	ldb := jw + 2
	blk := make([]E, kc*ldb)
	fill(blk, sentinel)
	im2colBlock(blk, src, g, p0, kc, j0, jw, ldb, pad)
	for p := 0; p < kc; p++ {
		for j := 0; j < ldb; j++ {
			want := sentinel
			if j < jw {
				want = im2colRef(src, g, p0+p, j0+j, pad)
			}
			if got := blk[p*ldb+j]; got != want {
				t.Fatalf("%T geom %+v block (p0=%d kc=%d j0=%d jw=%d): element (%d, %d) = %v, want %v",
					pad, g, p0, kc, j0, jw, p, j, got, want)
			}
		}
	}
}

// im2colSources returns the same random batch as f64, f32 and uint8 data.
// No data value equals the pads or sentinels the checks use, so a border
// written with the wrong value, or a position left unwritten, shows.
func im2colSources(rng *rand.Rand, n int) ([]float64, []float32, []uint8) {
	s64, s32, su8 := make([]float64, n), make([]float32, n), make([]uint8, n)
	for i := range s64 {
		s64[i] = 1 + rng.Float64()
		s32[i] = float32(s64[i])
		su8[i] = uint8(1 + rng.Intn(200))
	}
	return s64, s32, su8
}

// checkIm2colBlockAll runs checkIm2colBlock at every element type: nonzero
// pads (the zero point for uint8) so that a border set to 0 fails.
func checkIm2colBlockAll(t testing.TB, s64 []float64, s32 []float32, su8 []uint8, g ConvGeom, p0, kc, j0, jw int) {
	t.Helper()
	checkIm2colBlock(t, s64, g, p0, kc, j0, jw, -7.5, -12345)
	checkIm2colBlock(t, s32, g, p0, kc, j0, jw, -7.5, -12345)
	checkIm2colBlock(t, su8, g, p0, kc, j0, jw, 211, 250)
}

// TestIm2ColBlockMatchesElementLoop holds the one column generator to the
// element loop on every geometry class it dispatches on — the stride-1
// row merge (OutW == InW, including |kw−Pad| ≥ InW), stride-1 runs with
// OutW ≠ InW, and strides 2 and 3 — over every (j0, jw) column split of
// small batches from every block row (jw = 1 is the ABFT column repair,
// and many splits straddle image boundaries), and over the implicit
// drivers' implicitJW-wide panels of a CIFAR-sized batch.
func TestIm2ColBlockMatchesElementLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(40))
	const bsz = 2
	for _, g := range []ConvGeom{
		{InC: 2, InH: 5, InW: 5, KH: 3, KW: 3, Stride: 1, Pad: 1}, // merge
		{InC: 1, InH: 4, InW: 4, KH: 5, KW: 5, Stride: 1, Pad: 2}, // merge, |s| ≤ 2
		{InC: 2, InH: 3, InW: 4, KH: 3, KW: 5, Stride: 1, Pad: 2}, // merge, KH ≠ KW, OutH ≠ InH
		{InC: 2, InH: 4, InW: 5, KH: 2, KW: 3, Stride: 1, Pad: 0}, // OutW < InW
		{InC: 1, InH: 4, InW: 3, KH: 3, KW: 2, Stride: 1, Pad: 1}, // OutW > InW
		{InC: 1, InH: 3, InW: 3, KH: 3, KW: 3, Stride: 1, Pad: 2}, // OutW > InW, pad rows and columns
		{InC: 2, InH: 6, InW: 5, KH: 3, KW: 3, Stride: 2, Pad: 1},
		{InC: 1, InH: 7, InW: 7, KH: 2, KW: 3, Stride: 3, Pad: 2},
		{InC: 2, InH: 4, InW: 4, KH: 1, KW: 1, Stride: 2, Pad: 0},
		{InC: 3, InH: 1, InW: 1, KH: 1, KW: 1, Stride: 1, Pad: 0}, // 1×1 plane
		{InC: 2, InH: 1, InW: 1, KH: 3, KW: 3, Stride: 1, Pad: 1}, // 1×1, |s| == InW
		{InC: 1, InH: 1, InW: 1, KH: 5, KW: 5, Stride: 1, Pad: 2}, // 1×1, |s| > InW
		{InC: 2, InH: 1, InW: 6, KH: 3, KW: 3, Stride: 1, Pad: 1}, // 1×N
		{InC: 2, InH: 6, InW: 1, KH: 3, KW: 3, Stride: 1, Pad: 1}, // N×1
		{InC: 1, InH: 6, InW: 1, KH: 3, KW: 1, Stride: 1, Pad: 1}, // N×1, OutW > InW
		{InC: 1, InH: 1, InW: 6, KH: 1, KW: 3, Stride: 2, Pad: 1}, // 1×N strided
	} {
		if err := g.Validate(); err != nil {
			t.Fatal(err)
		}
		k, n := g.InC*g.KH*g.KW, bsz*g.OutH()*g.OutW()
		s64, s32, su8 := im2colSources(rng, bsz*g.InC*g.InH*g.InW)
		// Block rows are generated independently, so every single row and
		// all rows at once stand for every row split.
		for j0 := 0; j0 < n; j0++ {
			for jw := 1; j0+jw <= n; jw++ {
				for p0 := 0; p0 < k; p0++ {
					checkIm2colBlockAll(t, s64, s32, su8, g, p0, 1, j0, jw)
				}
				checkIm2colBlockAll(t, s64, s32, su8, g, 0, k, j0, jw)
			}
		}
	}

	// The implicit drivers' panel walk on CIFAR-sized images, a panel that
	// straddles the image boundary, and single columns.
	for _, g := range []ConvGeom{
		{InC: 3, InH: 32, InW: 32, KH: 3, KW: 3, Stride: 1, Pad: 1},
		{InC: 2, InH: 32, InW: 32, KH: 5, KW: 5, Stride: 1, Pad: 0},
		{InC: 2, InH: 32, InW: 32, KH: 3, KW: 3, Stride: 2, Pad: 1},
	} {
		const bsz = 2
		k, ohw := g.InC*g.KH*g.KW, g.OutH()*g.OutW()
		n := bsz * ohw
		s64, s32, su8 := im2colSources(rng, bsz*g.InC*g.InH*g.InW)
		for jb := 0; jb < n; jb += implicitJW {
			checkIm2colBlockAll(t, s64, s32, su8, g, 0, k, jb, min(implicitJW, n-jb))
		}
		checkIm2colBlockAll(t, s64, s32, su8, g, 0, k, ohw-implicitJW/2, implicitJW)
		checkIm2colBlockAll(t, s64, s32, su8, g, 0, k, 0, n)
		for j := 0; j < n; j += 37 {
			checkIm2colBlockAll(t, s64, s32, su8, g, 0, k, j, 1)
		}
	}
}

// FuzzIm2ColBlock draws a geometry, a batch and a block split and holds
// the generator to the element loop on it at every element type.
func FuzzIm2ColBlock(f *testing.F) {
	f.Add(uint8(2), uint8(5), uint8(5), uint8(3), uint8(3), uint8(1), uint8(1), uint8(3), uint16(7), uint16(4), uint16(11), uint16(40), int64(1))
	f.Add(uint8(1), uint8(1), uint8(1), uint8(5), uint8(5), uint8(1), uint8(2), uint8(2), uint16(0), uint16(25), uint16(0), uint16(2), int64(2))
	f.Add(uint8(3), uint8(7), uint8(6), uint8(2), uint8(3), uint8(3), uint8(2), uint8(4), uint16(1), uint16(3), uint16(5), uint16(1), int64(3))
	f.Fuzz(func(t *testing.T, c, h, w, kh, kw, stride, pad, bsz uint8, p0, kc, j0, jw uint16, seed int64) {
		g := ConvGeom{
			InC: int(c)%3 + 1, InH: int(h)%9 + 1, InW: int(w)%9 + 1,
			KH: int(kh)%5 + 1, KW: int(kw)%5 + 1,
			Stride: int(stride)%3 + 1, Pad: int(pad) % 3,
		}
		if g.Validate() != nil {
			return
		}
		b := int(bsz)%4 + 1
		k, n := g.InC*g.KH*g.KW, b*g.OutH()*g.OutW()
		r0 := int(p0) % k
		rc := int(kc)%(k-r0) + 1
		c0 := int(j0) % n
		cw := int(jw)%(n-c0) + 1
		s64, s32, su8 := im2colSources(rand.New(rand.NewSource(seed)), b*g.InC*g.InH*g.InW)
		checkIm2colBlockAll(t, s64, s32, su8, g, r0, rc, c0, cw)
	})
}
