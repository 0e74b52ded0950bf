package tensor

import (
	"fmt"
	"math"
)

// Int8 quantized inference kernels (DESIGN.md §9). The quantization scheme
// is the standard affine/symmetric split:
//
//   - Weights: per-output-channel symmetric int8. Row i of a weight matrix
//     is scaled by Scale[i] = maxabs(row)/127 and rounded to qw ∈
//     [-127, 127]. The kernels store qw biased by +128 as uint8 (uw =
//     qw+128 ∈ [1, 255]) so the inner loop is unsigned — see GemmU8Into.
//   - Activations: per-tensor affine uint8 with an offline-calibrated
//     scale and zero point (internal/calibrate): q = round(v/s) + zp,
//     clamped to [0, 255]. zp is 0 for the non-negative post-ReLU
//     activations that feed every quantized layer of the model zoo, but
//     the kernels support any zp so negative inputs stay representable.
//
// A dot product over the biased/affine representation relates to the real
// one by two correction terms that depend only on row and column sums:
//
//   Σ (q−zp)·qw = Σ q·uw − 128·Σq − zp·Σqw
//
// GemmU8Into therefore returns the raw biased accumulators plus the
// per-column sums Σq; the per-row Σqw is precomputed at quantization time,
// and the caller folds both corrections into the fused dequantize + bias +
// activation pass (internal/nn quantized forward).
//
// The GEMM inner loop packs two 32-bit lanes into one uint64 (SWAR): two
// B columns are loaded as bytes into the two lanes and multiplied by a
// broadcast weight byte with a single 64-bit multiply, accumulating two
// int32 dot products per instruction. Lanes cannot overflow or carry into
// each other because every term is ≤ 255·255 and k is capped at MaxQuantK:
// k·255² ≤ 2³¹−1. On a port-limited scalar CPU this roughly doubles
// multiply throughput over widened scalar int math, and the uint8 operand
// matrices are 8× smaller than float64 — which is where the speedup of the
// int8 backend comes from (the benchmark's nn.forward_us_per_image.int8.b32
// against .f64.b32).

// MaxQuantK is the largest K (dot-product length) the uint8 GEMM accepts:
// beyond it a 32-bit SWAR lane could overflow (k·255·255 must stay below
// 2³¹). Every layer in the model zoo is at least 30× under the cap.
const MaxQuantK = (1<<31 - 1) / (255 * 255)

// quantJB is the column sub-panel width of the uint8 GEMM: k×quantJB B
// bytes (≤ 16 KiB at the largest zoo K) stay L1-resident while every
// 4-row group of A sweeps the sub-panel.
const quantJB = 128

// QuantWeights is a per-row symmetric uint8 weight quantization of an
// [M, K] float64 matrix, in the biased layout the uint8 GEMM consumes.
type QuantWeights struct {
	M, K int
	// Bits is the [M, K] biased quantized matrix: Bits = qw + 128 where
	// qw = clamp(round(w/Scale), -127, 127).
	Bits []uint8
	// Scale is the per-row dequantization factor: w ≈ (Bits−128)·Scale.
	Scale []float64
	// RowSum is the per-row Σqw (unbiased), one term of the zero-point
	// correction.
	RowSum []int32
}

// QuantizeWeightsSym quantizes an [m, k] float64 weight matrix to per-row
// symmetric uint8 (see QuantWeights). An all-zero row gets scale 1 so
// dequantization is always well-defined. Round-trip error is bounded by
// Scale[i]/2 per element (locked by FuzzQuantRoundTrip).
func QuantizeWeightsSym(w []float64, m, k int) QuantWeights {
	if len(w) != m*k {
		panic(fmt.Sprintf("tensor: QuantizeWeightsSym len %d, want %d×%d", len(w), m, k))
	}
	q := QuantWeights{
		M: m, K: k,
		Bits:   make([]uint8, m*k),
		Scale:  make([]float64, m),
		RowSum: make([]int32, m),
	}
	for i := 0; i < m; i++ {
		row := w[i*k : (i+1)*k]
		maxAbs := 0.0
		for _, v := range row {
			if a := math.Abs(v); a > maxAbs {
				maxAbs = a
			}
		}
		scale := maxAbs / 127
		if scale == 0 || math.IsNaN(scale) || math.IsInf(scale, 0) {
			scale = 1
		}
		q.Scale[i] = scale
		var sum int32
		for j, v := range row {
			qv := math.Round(v / scale)
			if qv > 127 {
				qv = 127
			} else if qv < -127 {
				qv = -127
			}
			iv := int32(qv)
			sum += iv
			q.Bits[i*k+j] = uint8(iv + 128)
		}
		q.RowSum[i] = sum
	}
	return q
}

// QuantizeU8 quantizes float32 activations into uint8 bytes:
// dst[i] = clamp(round(src[i]·invScale) + zp, 0, 255). invScale is 1/scale;
// rounding is half-away-from-zero to match the weight quantizer. The
// vector body and quantizeU8Go, the pure-Go body, agree byte for byte.
func QuantizeU8(dst []uint8, src []float32, invScale float32, zp uint8) {
	i := 0
	if simdAvailable {
		if nb := len(src) &^ 31; nb > 0 {
			quantizeU8AVX(&dst[0], &src[0], nb, invScale, float32(zp))
			i = nb
		}
	}
	quantizeU8Go(dst[i:], src[i:], invScale, zp)
}

// quantizeU8Go is QuantizeU8's pure-Go body.
func quantizeU8Go(dst []uint8, src []float32, invScale float32, zp uint8) {
	z := float32(zp)
	for i := range src {
		// v·invScale + zp + 0.5 truncated toward zero rounds halves up;
		// anything that truncates below 0 clamps to 0 anyway.
		q := int32(float32(src[i]*invScale) + z + 0.5)
		if q < 0 {
			q = 0
		} else if q > 255 {
			q = 255
		}
		dst[i] = uint8(q)
	}
}

// Im2ColBatchU8 lowers a packed image-major quantized batch
// (src, [bsz, InC*InH*InW] bytes) into a [InC*KH*KW, bsz*OutH*OutW] byte
// column matrix, mirroring Im2ColBatch32's layout. Padding positions take
// the value zp — the quantized image of real 0.0 — so the GEMM treats the
// border exactly like the float kernels do. Nothing served calls it: the
// int8 backend runs ConvDirectU8 or ConvGemmU8Im2Col. It stays as the
// reference the bit-identity tests and the kernel benchmark probe hold
// those drivers to.
func Im2ColBatchU8(dst, src []uint8, bsz int, g ConvGeom, zp uint8) {
	n := bsz * g.OutH() * g.OutW()
	rows := g.InC * g.KH * g.KW
	chw := g.InC * g.InH * g.InW
	if len(dst) != rows*n {
		panic(fmt.Sprintf("tensor: Im2ColBatchU8 dst len %d, want %d", len(dst), rows*n))
	}
	if len(src) != bsz*chw {
		panic(fmt.Sprintf("tensor: Im2ColBatchU8 src len %d, want %d", len(src), bsz*chw))
	}
	im2colBlock(dst, src, g, 0, rows, 0, n, n, zp)
}

// GemmU8Into computes the uint8 matrix product C (int32, m×n, fully
// overwritten) = A (uint8, m×k) × B (uint8, k×n), plus the per-column sums
// colsum[j] = Σ_p B[p][j] needed by the bias/zero-point correction. It
// panics when k exceeds MaxQuantK (a SWAR lane could overflow). Large
// products run on the calling goroutine; integer results are identical
// regardless of blocking.
// Like Im2ColBatchU8 it has no served caller; it is the explicit reference
// of the int8 conv drivers' bit-identity tests and benchmark probe.
func GemmU8Into(c, colsum []int32, a, b []uint8, m, k, n int) {
	if k > MaxQuantK {
		panic(fmt.Sprintf("tensor: GemmU8Into k=%d exceeds MaxQuantK=%d", k, MaxQuantK))
	}
	if len(a) != m*k || len(b) != k*n || len(c) < m*n || len(colsum) < n {
		panic(fmt.Sprintf("tensor: GemmU8Into size mismatch m=%d k=%d n=%d (a=%d b=%d c=%d colsum=%d)", m, k, n, len(a), len(b), len(c), len(colsum)))
	}
	gemmU8(c, colsum, a, b, m, k, n, simdAvailable)
}

// gemmU8 is the shape-checked driver of GemmU8Into: it computes C and,
// when colsum is non-nil, colsum (nil = DenseU8's prepacked B, sums
// precomputed) on the calling goroutine, on the vector kernels when simd
// is set and the scalar SWAR kernels otherwise. The entry points pass
// simdAvailable, the bit-identity tests false.
func gemmU8(c, colsum []int32, a, b []uint8, m, k, n int, simd bool) {
	if colsum != nil {
		cs := colsum[:n]
		for x := range cs {
			cs[x] = 0
		}
		for p := 0; p < k; p++ {
			row := b[p*n : (p+1)*n]
			for x, v := range row {
				cs[x] += int32(v)
			}
		}
	}
	if simd && k > 0 {
		// Vector path: 32-column blocks through the vpmaddwd kernel (exact
		// same int32 results as the scalar SWAR path below), remainders
		// through the scalar helpers.
		jv := n &^ 31
		i := 0
		for ; i+2 <= m; i += 2 {
			for j := 0; j < jv; j += 32 {
				u8Gemm2x32(&a[i*k], k, &b[j], n, &c[i*n+j], n, k)
			}
		}
		if i < m {
			for j := 0; j < jv; j += 32 {
				u8GemmRow32(&a[i*k], &b[j], n, &c[i*n+j], k)
			}
		}
		for i := 0; i < m; i++ {
			gemmU8Row(c, a, b, k, n, n, i, jv, n)
		}
		return
	}
	for jj := 0; jj < n; jj += quantJB {
		je := min(jj+quantJB, n)
		i := 0
		for ; i+4 <= m; i += 4 {
			j := jj
			for ; j+4 <= je; j += 4 {
				gemmU8Quad(c, a, b, k, n, n, i, j)
			}
			for ; j < je; j++ {
				gemmU8Col(c, a, b, k, n, n, i, i+4, j)
			}
		}
		for ; i < m; i++ {
			gemmU8Row(c, a, b, k, n, n, i, jj, je)
		}
	}
}

// gemmU8Quad computes the 4×4 output block C[i:i+4, j:j+4] with two-lane
// SWAR accumulators: each uint64 holds two independent int32 dot products
// (columns j,j+1 in the low/high lanes of one accumulator, j+2,j+3 in the
// next), so one 64-bit multiply-add advances two MACs. Four B bytes are
// loaded once per k step and shared by all four rows. ldc/ldb are C's and
// B's row strides (both n on the explicit path; the implicit conv path
// passes a generated block with ldb = block width).
func gemmU8Quad(c []int32, a, b []uint8, k, ldc, ldb, i, j int) {
	a0 := a[i*k : (i+1)*k]
	a1 := a[(i+1)*k:][:k]
	a2 := a[(i+2)*k:][:k]
	a3 := a[(i+3)*k:][:k]
	var q00, q01, q10, q11, q20, q21, q30, q31 uint64
	bi := j
	for p := 0; p < k; p++ {
		brow := b[bi : bi+4]
		v0 := uint64(brow[0]) | uint64(brow[1])<<32
		v1 := uint64(brow[2]) | uint64(brow[3])<<32
		bi += ldb
		w0, w1, w2, w3 := uint64(a0[p]), uint64(a1[p]), uint64(a2[p]), uint64(a3[p])
		q00 += v0 * w0
		q01 += v1 * w0
		q10 += v0 * w1
		q11 += v1 * w1
		q20 += v0 * w2
		q21 += v1 * w2
		q30 += v0 * w3
		q31 += v1 * w3
	}
	r0 := c[i*ldc+j:][:4]
	r1 := c[(i+1)*ldc+j:][:4]
	r2 := c[(i+2)*ldc+j:][:4]
	r3 := c[(i+3)*ldc+j:][:4]
	r0[0], r0[1], r0[2], r0[3] = int32(uint32(q00)), int32(q00>>32), int32(uint32(q01)), int32(q01>>32)
	r1[0], r1[1], r1[2], r1[3] = int32(uint32(q10)), int32(q10>>32), int32(uint32(q11)), int32(q11>>32)
	r2[0], r2[1], r2[2], r2[3] = int32(uint32(q20)), int32(q20>>32), int32(uint32(q21)), int32(q21>>32)
	r3[0], r3[1], r3[2], r3[3] = int32(uint32(q30)), int32(q30>>32), int32(uint32(q31)), int32(q31>>32)
}

// gemmU8Col handles a single remainder column for rows [i0, i1).
func gemmU8Col(c []int32, a, b []uint8, k, ldc, ldb, i0, i1, j int) {
	for i := i0; i < i1; i++ {
		arow := a[i*k : (i+1)*k]
		var acc int32
		bi := j
		for _, av := range arow {
			acc += int32(av) * int32(b[bi])
			bi += ldb
		}
		c[i*ldc+j] = acc
	}
}

// gemmU8Row handles the m%4 remainder rows over columns [j0, j1).
func gemmU8Row(c []int32, a, b []uint8, k, ldc, ldb, i, j0, j1 int) {
	arow := a[i*k : (i+1)*k]
	j := j0
	for ; j+2 <= j1; j += 2 {
		var q uint64
		bi := j
		for p, av := range arow {
			_ = p
			q += (uint64(b[bi]) | uint64(b[bi+1])<<32) * uint64(av)
			bi += ldb
		}
		c[i*ldc+j], c[i*ldc+j+1] = int32(uint32(q)), int32(q>>32)
	}
	if j < j1 {
		var acc int32
		bi := j
		for _, av := range arow {
			acc += int32(av) * int32(b[bi])
			bi += ldb
		}
		c[i*ldc+j] = acc
	}
}
