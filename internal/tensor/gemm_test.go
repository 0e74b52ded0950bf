package tensor

import (
	"math"
	"math/rand"
	"testing"
)

// TestGemmBodiesMatchChains is the float GEMM oracle. It runs the one
// driver on each microkernel body — the pure-Go body everywhere, the AVX2
// body where the machine has it — and holds every output bit for bit to
// that body's reference chain: ascending p from +0, unfused for the Go
// body, fused for the AVX2 body. The shapes cover every m mod 4 edge, a
// column tail (n mod lanes ≠ 0), a lone column (n = 1) and full blocks;
// B and C carry row strides wider than n, and C's padding must survive.
func TestGemmBodiesMatchChains(t *testing.T) {
	t.Run("f64", func(t *testing.T) {
		gemmChainCheck(t, fmaGemm4x8F64, func(a, b, c float64) float64 { return math.FMA(a, b, c) })
	})
	t.Run("f32", func(t *testing.T) { gemmChainCheck(t, fmaGemm4x16, fma32) })
}

// fma32 returns a·b + c rounded once to float32, as VFMADD231PS computes
// it. The float64 product of two float32s is exact; TwoSum splits its sum
// with c into the rounded float64 s and the exact error e; rounding s to
// odd (toward e when e ≠ 0 and s is even) makes the final float32
// conversion round the exact sum correctly (53 ≥ 2·24 + 2 bits).
func fma32(a, b, c float32) float32 {
	p, q := float64(a)*float64(b), float64(c)
	s := p + q
	v := s - p
	e := (p - (s - v)) + (q - v)
	if e != 0 && math.Float64bits(s)&1 == 0 {
		s = math.Nextafter(s, math.Copysign(math.Inf(1), e))
	}
	return float32(s)
}

func gemmChainCheck[F Float](t *testing.T, asm func(a *F, lda int, b *F, ldb int, c *F, ldc int, k int), fused func(a, b, c F) F) {
	type body struct {
		name  string
		run   gemm4Body[F]
		chain func(a, b, c F) F
	}
	bodies := []body{{"go", gemm4Go[F], func(a, b, c F) F { return c + F(a*b) }}}
	if simdAvailable {
		bodies = append(bodies, body{"avx2", asm, fused})
	}
	w := fmaLanes[F]()
	rng := rand.New(rand.NewSource(11))
	for _, bd := range bodies {
		for _, k := range []int{1, 3, 129, 300} {
			for m := 1; m <= 8; m++ {
				for _, n := range []int{1, 2 * w, 2*w + 3} {
					ldb, ldc := n+1, n+2
					a, b := make([]F, m*k), make([]F, k*ldb)
					for i := range a {
						a[i] = F(rng.NormFloat64())
					}
					for i := range b {
						b[i] = F(rng.NormFloat64())
					}
					c := make([]F, m*ldc)
					for i := range c {
						c[i] = 7 // must be overwritten inside [0, n), kept outside
					}
					gemmWith(bd.run, c, a, b, m, k, n, ldc, ldb, NewArena())
					for i := 0; i < m; i++ {
						for j := 0; j < ldc; j++ {
							want := F(7)
							if j < n {
								want = 0
								for p := 0; p < k; p++ {
									want = bd.chain(a[i*k+p], b[p*ldb+j], want)
								}
							}
							if got := c[i*ldc+j]; float64bitsOf(got) != float64bitsOf(want) {
								t.Fatalf("%s body m=%d k=%d n=%d C[%d][%d] = %v, want %v", bd.name, m, k, n, i, j, got, want)
							}
						}
					}
				}
			}
		}
	}
}

// TestGemmIntoShapePanics verifies shape validation.
func TestGemmIntoShapePanics(t *testing.T) {
	expectPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		f()
	}
	expectPanic("inner mismatch", func() { GemmInto(New(2, 2), New(2, 3), New(4, 2)) })
	expectPanic("out mismatch", func() { GemmInto(New(3, 2), New(2, 3), New(3, 2)) })
	expectPanic("rank", func() { GemmInto(New(2, 2), New(4), New(2, 2)) })
}

// TestMatMulIntoSparseAndDenseAgree verifies the density probe never changes
// results on inputs with exact zeros: the skip-zero and dense kernels agree
// to the last bit for finite data (0*x contributes an exact ±0).
func TestMatMulIntoSparseAndDenseAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 20; trial++ {
		m, k, n := 1+rng.Intn(8), 1+rng.Intn(16), 1+rng.Intn(32)
		a := New(m, k)
		a.FillNormal(rng, 0, 1)
		// ReLU-like sparsity: clamp a fraction of entries to exactly zero.
		for i := range a.Data {
			if rng.Float64() < 0.6 {
				a.Data[i] = 0
			}
		}
		b := New(k, n)
		b.FillNormal(rng, 0, 1)

		dense := New(m, n)
		dense.Zero()
		matMulRowsDense(dense.Data, a.Data, b.Data, 0, m, k, n)
		skip := New(m, n)
		skip.Zero()
		matMulRowsSkipZero(skip.Data, a.Data, b.Data, 0, m, k, n)

		for i := range dense.Data {
			if dense.Data[i] != skip.Data[i] {
				t.Fatalf("trial %d element %d: dense=%v skip=%v", trial, i, dense.Data[i], skip.Data[i])
			}
		}
	}
}

// TestLikelySparse pins the probe's decision boundary.
func TestLikelySparse(t *testing.T) {
	dense := make([]float64, 1000)
	for i := range dense {
		dense[i] = 1 + float64(i)
	}
	if likelySparse(dense) {
		t.Error("all-nonzero input classified sparse")
	}
	if likelySparse(nil) {
		t.Error("empty input classified sparse")
	}
	rng := rand.New(rand.NewSource(13))
	sparse := make([]float64, 1000)
	for i := range sparse {
		if rng.Float64() < 0.4 {
			sparse[i] = 1 + rng.Float64()
		}
	}
	// ~60% zeros at random positions: well past the 1/4 cutoff.
	if !likelySparse(sparse) {
		t.Error("60%-zero input classified dense")
	}
	if !likelySparse(make([]float64, 500)) {
		t.Error("all-zero input classified dense")
	}
}
