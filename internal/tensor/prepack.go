package tensor

import (
	"fmt"
	"unsafe"
)

// Compile-time weight prepacking (DESIGN.md §14). The int8 Dense layer
// used to re-derive the weight-side column sums (and transpose the
// activations) on every call, work that depends only on the frozen
// weights.
//
// This file holds the pack formats. The packed buffers are plain slices in
// kernel-native order, allocated cache-line aligned (AlignedF64 and
// friends) so panel bases coincide with cache lines and the AVX2 entry
// points can assert alignment in debug builds. Packing reorders storage,
// never arithmetic: every consumer produces bit-identical results to the
// explicit im2col lowering, which is the correctness bar locked by
// prepack_test.go.

// cacheLine is the alignment (bytes) of packed panels and arena scratch:
// one x86 cache line, also the DDR burst granule.
const cacheLine = 64

// alignedOffset returns how many elements of size elem to skip from base
// so the resulting address is cache-line aligned. base must itself be
// elem-aligned (true for any Go slice of that element type).
func alignedOffset(base unsafe.Pointer, elem int) int {
	rem := int(uintptr(base) & (cacheLine - 1))
	if rem == 0 {
		return 0
	}
	return (cacheLine - rem) / elem
}

// AlignedF64 allocates a float64 slice of length n whose first element
// sits on a cache-line boundary. Capacity is clipped to n so appends
// never silently step off the aligned block.
func AlignedF64(n int) []float64 {
	buf := make([]float64, n+cacheLine/8)
	off := alignedOffset(unsafe.Pointer(&buf[0]), 8)
	return buf[off : off+n : off+n]
}

// AlignedF32 is AlignedF64 for float32.
func AlignedF32(n int) []float32 {
	buf := make([]float32, n+cacheLine/4)
	off := alignedOffset(unsafe.Pointer(&buf[0]), 4)
	return buf[off : off+n : off+n]
}

// AlignedI32 is AlignedF64 for int32.
func AlignedI32(n int) []int32 {
	buf := make([]int32, n+cacheLine/4)
	off := alignedOffset(unsafe.Pointer(&buf[0]), 4)
	return buf[off : off+n : off+n]
}

// AlignedU8 is AlignedF64 for bytes.
func AlignedU8(n int) []uint8 {
	buf := make([]uint8, n+cacheLine)
	off := alignedOffset(unsafe.Pointer(&buf[0]), 1)
	return buf[off : off+n : off+n]
}

// alignedSlice is the generic form of the Aligned* allocators, used by
// the arena regions whose element type is a type parameter. Element
// sizes that don't divide a cache line evenly (none in this package) fall
// back to a plain make.
func alignedSlice[E any](n int) []E {
	var zero E
	esz := int(unsafe.Sizeof(zero))
	if esz == 0 || esz > cacheLine || cacheLine%esz != 0 {
		return make([]E, n)
	}
	buf := make([]E, n+cacheLine/esz)
	off := alignedOffset(unsafe.Pointer(&buf[0]), esz)
	return buf[off : off+n : off+n]
}

// Aligned64 reports whether the first element of a non-empty slice sits
// on a cache-line boundary (always true for Aligned* allocations; the
// debug asserts use it).
func Aligned64[E any](s []E) bool {
	if len(s) == 0 {
		return true
	}
	return uintptr(unsafe.Pointer(&s[0]))&(cacheLine-1) == 0
}

// PackedU8T is a compile-time pack of symmetric-quantized weights for the
// int8 Dense layer: the biased [M, K] weight matrix stored transposed as
// [K, M] so the per-image GEMM runs activations-major (A = quantized
// activation rows as they arrive, no per-call transpose), plus the
// per-output-channel biased column sums Σ_k Bits[k][o] that verified mode
// needs — precomputed here so the zero-point bookkeeping stops being
// per-call work.
type PackedU8T struct {
	K, N int // K = input features, N = output channels (= QuantWeights.M)
	// Bits is the [K, N] transposed biased weight matrix, cache-line
	// aligned: Bits[k*N+o] = QuantWeights.Bits[o*K+k].
	Bits []uint8
	// ColSum[o] = Σ_k Bits[k*N+o] — the biased per-column sum of the
	// packed operand, the reference value the ABFT column-checksum
	// verifier checks GEMM colsum output against. DenseU8 hands the
	// verifier a scratch copy: its injection and repair seams write
	// through the slice.
	ColSum []int32
	// Wide is Bits with zero columns appended up to the next multiple of
	// 32 — the [K, ⌈N/32⌉·32] operand the vector kernel sweeps in whole
	// 32-column blocks, so a narrow head (the zoo's N = 10 classifiers)
	// does not fall to the scalar remainder rows. Nil when N is already a
	// multiple of 32.
	Wide []uint8
}

// PackQuantTranspose packs per-row symmetric quantized weights into the
// transposed panel layout the prepacked int8 Dense path consumes. The
// pack is pure data movement — Unpack reconstructs q.Bits bit-exactly
// (locked by FuzzPrepackRoundTrip).
func PackQuantTranspose(q QuantWeights) *PackedU8T {
	if len(q.Bits) != q.M*q.K {
		panic(fmt.Sprintf("tensor: PackQuantTranspose bits len %d, want %d×%d", len(q.Bits), q.M, q.K))
	}
	p := &PackedU8T{
		K:      q.K,
		N:      q.M,
		Bits:   AlignedU8(q.K * q.M),
		ColSum: AlignedI32(q.M),
	}
	for o := 0; o < q.M; o++ {
		row := q.Bits[o*q.K : (o+1)*q.K]
		var sum int32
		for k, v := range row {
			p.Bits[k*q.M+o] = v
			sum += int32(v)
		}
		p.ColSum[o] = sum
	}
	if ld := wideLD(q.M); ld != q.M {
		p.Wide = AlignedU8(q.K * ld)
		for k := 0; k < q.K; k++ {
			copy(p.Wide[k*ld:], p.Bits[k*q.M:(k+1)*q.M])
		}
	}
	return p
}

// wideLD is the row stride of PackedU8T.Wide for n output channels.
func wideLD(n int) int { return (n + 31) &^ 31 }

// Unpack reconstructs the original [N, K] row-major biased weight matrix
// from the transposed pack — the bit-exact inverse of PackQuantTranspose.
func (p *PackedU8T) Unpack() []uint8 {
	out := make([]uint8, p.N*p.K)
	for k := 0; k < p.K; k++ {
		row := p.Bits[k*p.N : (k+1)*p.N]
		for o, v := range row {
			out[o*p.K+k] = v
		}
	}
	return out
}

// PackWinoFilter precomputes the Winograd F(4×4,3×3) filter transform
// U = G·g·Gᵀ (36 planes of OutC×InC) for a [OutC, InC*9] weight matrix,
// the operand WinogradConv3x3Pre consumes. Its only caller is the
// benchmark kernel probe; it goes with the probe (see winograd.go).
func PackWinoFilter(weight *T, outC, inC int) []float64 {
	if weight.Rank() != 2 || weight.Shape[0] != outC || weight.Shape[1] != inC*9 {
		panic(fmt.Sprintf("tensor: PackWinoFilter weight %v, want [%d %d]", weight.Shape, outC, inC*9))
	}
	u := AlignedF64(36 * outC * inC)
	winoFilter(u, weight.Data, outC, inC)
	return u
}

// PackWinoFilter32 is PackWinoFilter for float32, the operand of
// WinogradConv3x3F32Pre; kept for the benchmark kernel probe only.
func PackWinoFilter32(weight *T32, outC, inC int) []float32 {
	if len(weight.Shape) != 2 || weight.Shape[0] != outC || weight.Shape[1] != inC*9 {
		panic(fmt.Sprintf("tensor: PackWinoFilter32 weight %v, want [%d %d]", weight.Shape, outC, inC*9))
	}
	u := AlignedF32(36 * outC * inC)
	winoFilter(u, weight.Data, outC, inC)
	return u
}
