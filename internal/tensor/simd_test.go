package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// withSIMD runs check on a kernel's pure-Go body (subtest "scalar") and,
// on machines with the vector kernels, on its dispatching entry point
// (subtest "simd"). Nothing switches kernels at run time: the test hands
// each body to check explicitly.
func withSIMD[K any](t *testing.T, scalar, dispatch K, check func(t *testing.T, kernel K)) {
	t.Run("scalar", func(t *testing.T) { check(t, scalar) })
	if SIMDAvailable() {
		t.Run("simd", func(t *testing.T) { check(t, dispatch) })
	}
}

// TestGemmU8IntoSIMDExact locks the cross-implementation contract: the
// vpmaddwd kernel and the scalar SWAR kernel produce identical int32
// matrices, including odd-k tails and column remainders.
func TestGemmU8IntoSIMDExact(t *testing.T) {
	if !SIMDAvailable() {
		t.Skip("no vector kernels on this machine")
	}
	rng := rand.New(rand.NewSource(53))
	shapes := [][3]int{
		{1, 1, 1},
		{4, 8, 32},    // exact vector tiles, even k
		{8, 27, 96},   // odd k (zero-row tail), multiple blocks
		{3, 5, 39},    // odd k + column remainder
		{12, 72, 257}, // conv2-like with remainder
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
			cScalar := make([]int32, m*n)
			csScalar := make([]int32, n)
			gemmU8(cScalar, csScalar, a, b, m, k, n, false)
			cSIMD := make([]int32, m*n)
			csSIMD := make([]int32, n)
			GemmU8Into(cSIMD, csSIMD, a, b, m, k, n)
			for i := range cScalar {
				if cScalar[i] != cSIMD[i] {
					t.Fatalf("c[%d]: scalar %d vs simd %d", i, cScalar[i], cSIMD[i])
				}
			}
			for j := range csScalar {
				if csScalar[j] != csSIMD[j] {
					t.Fatalf("colsum[%d]: scalar %d vs simd %d", j, csScalar[j], csSIMD[j])
				}
			}
		})
	}
}

// TestQuantizeU8SIMDExact locks the quantizer's cross-implementation
// contract: identical bytes from the vector and scalar paths, including
// saturation, huge-value overflow, and NaN inputs.
func TestQuantizeU8SIMDExact(t *testing.T) {
	if !SIMDAvailable() {
		t.Skip("no vector kernels on this machine")
	}
	rng := rand.New(rand.NewSource(71))
	for _, n := range []int{1, 31, 32, 33, 100, 1024} {
		src := make([]float32, n)
		for i := range src {
			src[i] = float32(rng.NormFloat64() * 20)
		}
		if n >= 32 {
			src[0] = float32(math.NaN())
			src[1] = float32(math.Inf(1))
			src[2] = float32(math.Inf(-1))
			src[3] = 1e30
			src[4] = -1e30
			src[5] = 0
		}
		for _, zp := range []uint8{0, 13, 255} {
			want := make([]uint8, n)
			got := make([]uint8, n)
			quantizeU8Go(want, src, 7.5, zp)
			QuantizeU8(got, src, 7.5, zp)
			for i := range want {
				if want[i] != got[i] {
					t.Fatalf("n=%d zp=%d src[%d]=%g: scalar %d vs simd %d", n, zp, i, src[i], want[i], got[i])
				}
			}
		}
	}
}

// TestFMAGemmColumnPositionInvariant locks what batch composition rests on
// for both widths of the served GEMM: a column of C has the same bits
// whether it sits in a full microkernel panel, at another panel offset, or
// in the zero-padded tail. Each run multiplies A by a column range of B as
// its own matrix.
func TestFMAGemmColumnPositionInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(62))
	t.Run("f64", func(t *testing.T) { columnPositionCheck[float64](t, rng) })
	t.Run("f32", func(t *testing.T) { columnPositionCheck[float32](t, rng) })
}

func columnPositionCheck[F Float](t *testing.T, rng *rand.Rand) {
	const m, n = 9, 40 // two 4-row tiles plus a padded row
	for _, k := range []int{1, 27, 300} {
		a, b := make([]F, m*k), make([]F, k*n)
		for i := range a {
			a[i] = F(rng.NormFloat64())
		}
		for i := range b {
			b[i] = F(rng.NormFloat64())
		}
		cols := func(j0, j1 int) []F {
			w := j1 - j0
			sub := make([]F, k*w)
			for p := 0; p < k; p++ {
				copy(sub[p*w:], b[p*n+j0:p*n+j1])
			}
			c := make([]F, m*w)
			gemmServed(c, a, sub, m, k, w, NewArena())
			return c
		}
		full := cols(0, n)
		ranges := [][2]int{{1, n}, {3, 20}, {n - 5, n}}
		for j := 0; j < n; j++ {
			ranges = append(ranges, [2]int{j, j + 1})
		}
		for _, r := range ranges {
			w := r[1] - r[0]
			got := cols(r[0], r[1])
			for i := 0; i < m; i++ {
				for x := 0; x < w; x++ {
					g, f := float64(got[i*w+x]), float64(full[i*n+r[0]+x])
					if math.Float64bits(g) != math.Float64bits(f) {
						t.Fatalf("k=%d row %d column %d: %v in columns [%d,%d), %v in the full product", k, i, r[0]+x, g, r[0], r[1], f)
					}
				}
			}
		}
	}
}

// TestDequantRowBitIdentical checks the fused dequant epilogue produces the
// same float32 bits with and without the vector kernel (no FMA inside).
func TestDequantRowBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for _, n := range []int{1, 7, 8, 9, 64, 1000} {
		c := make([]int32, n)
		cs := make([]int32, n)
		for i := range c {
			c[i] = rng.Int31n(1 << 24)
			cs[i] = rng.Int31n(1 << 16)
		}
		const corr, scale, bias = 12345, 0.003, -1.25
		want := make([]float32, n)
		for i := range want {
			want[i] = float32(c[i]-128*cs[i]-corr)*scale + bias
		}
		withSIMD(t, dequantRowGo, DequantRow, func(t *testing.T, dequant func([]float32, []int32, []int32, int32, float32, float32)) {
			dst := make([]float32, n)
			dequant(dst, c, cs, corr, scale, bias)
			for i := range want {
				if dst[i] != want[i] {
					t.Fatalf("n=%d i=%d: got %g, want %g (bit-exact required)", n, i, dst[i], want[i])
				}
			}
		})
	}
}

// TestAddBiasRowBitIdentical does the same for the bias-only convolution
// epilogue, RectifyPool with EpiBias over a single row.
func TestAddBiasRowBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	for _, n := range []int{1, 8, 13, 256} {
		src := make([]float32, n)
		for i := range src {
			src[i] = float32(rng.NormFloat64())
		}
		const bias = float32(0.7)
		want := make([]float32, n)
		for i := range want {
			want[i] = src[i] + bias
		}
		withSIMD(t, rectifyScalar, rectifyDispatch, func(t *testing.T, r rectifiers) {
			dst := make([]float32, n)
			r.f32(dst, src, 1, n, bias, EpiBias)
			for i := range want {
				if dst[i] != want[i] {
					t.Fatalf("n=%d i=%d: got %g, want %g", n, i, dst[i], want[i])
				}
			}
		})
	}
}
