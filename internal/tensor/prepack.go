package tensor

import (
	"fmt"
	"unsafe"
)

// Compile-time weight prepacking (DESIGN.md §14): work that depends only
// on the frozen weights — the Dense layers' transpose and padding — is
// done once when a net is compiled.
//
// This file holds the pack formats. The packed buffers are plain slices in
// kernel-native order, allocated cache-line aligned (alignedSlice) so
// panel bases coincide with cache lines and the AVX2 entry points can
// assert alignment in debug builds. Packing reorders storage, never
// arithmetic: every consumer produces bit-identical results to the
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

// Packed is the compile-time weight pack of a Dense layer at element type
// E — float64, float32, or the biased uint8 bits of the int8 backend: the
// [N, K] row-major weight matrix stored transposed as [K, LD], cache-line
// aligned, so the served GEMM runs the activation rows as they arrive
// (A = x [B, K], no per-call transpose) against it. LD is N rounded up to
// the column block of E's GEMM kernel (denseLD) and the padding columns
// are zero, so a narrow head (the zoo's N = 10 classifiers) runs in whole
// kernel blocks instead of the edge path. The pack reorders storage, never
// arithmetic: W[k*LD+o] = w[o*K+k].
type Packed[E Float | uint8] struct {
	K, N, LD int // K = input features, N = output channels
	W        []E
}

// PackDense packs the [n, k] row-major weights w of a Dense layer.
func PackDense[E Float | uint8](w []E, n, k int) *Packed[E] {
	if len(w) != n*k {
		panic(fmt.Sprintf("tensor: PackDense weights len %d, want %d×%d", len(w), n, k))
	}
	ld := denseLD[E](n)
	p := &Packed[E]{K: k, N: n, LD: ld, W: alignedSlice[E](k * ld)}
	for o := 0; o < n; o++ {
		for kk, v := range w[o*k : (o+1)*k] {
			p.W[kk*ld+o] = v
		}
	}
	return p
}

// denseLD is the row stride of a Dense pack of n output columns: n rounded
// up to the column block of E's GEMM kernel — fmaLanes for the floats (8
// float64, 16 float32), 32 for the int8 kernel.
func denseLD[E Float | uint8](n int) int {
	w := 32
	switch any(*new(E)).(type) {
	case float64:
		w = fmaLanes[float64]()
	case float32:
		w = fmaLanes[float32]()
	}
	return (n + w - 1) / w * w
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
