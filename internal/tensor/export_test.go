package tensor

import (
	"fmt"
	"unsafe"
)

// Test-only accessors and oracles: the library itself never calls these.

// At returns the element at the given index.
func (t *T) At(idx ...int) float64 { return t.Data[t.index(idx...)] }

// Axpy computes t += alpha*o element-wise.
func (t *T) Axpy(alpha float64, o *T) {
	if len(t.Data) != len(o.Data) {
		panic(fmt.Sprintf("tensor: Axpy length mismatch %d vs %d", len(t.Data), len(o.Data)))
	}
	for i, v := range o.Data {
		t.Data[i] += alpha * v
	}
}

// SlabLen returns the length in elements of a's slab for E: 0 until a
// call drawing E has been followed by a Reset, then the largest total any
// single call had drawn at once, scratch it released included.
func SlabLen[E ArenaElem](a *Arena) int { return len(slab[E](a).slab) }

// Live returns the number of buffers handed out since the last Reset and
// not released.
func (a *Arena) Live() int { return a.live }

// Aligned64 reports whether the first element of a non-empty slice sits
// on a cache-line boundary (always true for Aligned* allocations).
func Aligned64[E any](s []E) bool {
	if len(s) == 0 {
		return true
	}
	return uintptr(unsafe.Pointer(&s[0]))&(cacheLine-1) == 0
}

// MatMul computes C = A×B for 2-d tensors A (m×k) and B (k×n), returning a
// new m×n tensor. The inner loops are ordered i-k-j so the innermost loop
// streams both B and C rows sequentially, which is the dominant factor for
// pure-Go throughput.
func MatMul(a, b *T) *T {
	if a.Rank() != 2 || b.Rank() != 2 {
		panic(fmt.Sprintf("tensor: MatMul requires rank-2 operands, got %v × %v", a.Shape, b.Shape))
	}
	m, k := a.Shape[0], a.Shape[1]
	k2, n := b.Shape[0], b.Shape[1]
	if k != k2 {
		panic(fmt.Sprintf("tensor: MatMul inner dimensions differ: %v × %v", a.Shape, b.Shape))
	}
	c := New(m, n)
	MatMulInto(c, a, b)
	return c
}

// Dot returns the inner product of t and o viewed as flat vectors.
func (t *T) Dot(o *T) float64 {
	if len(t.Data) != len(o.Data) {
		panic(fmt.Sprintf("tensor: Dot length mismatch %d vs %d", len(t.Data), len(o.Data)))
	}
	s := 0.0
	for i, v := range t.Data {
		s += v * o.Data[i]
	}
	return s
}
