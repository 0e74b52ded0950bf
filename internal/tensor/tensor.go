// Package tensor provides a small, dependency-free dense tensor type used by
// the neural-network substrate. Tensors are always contiguous row-major
// float64 buffers; hot paths (matmul, im2col) operate on the raw Data slice.
//
// This package is part of the substrate that substitutes for the Caffe/cuDNN
// stack used by the PolygraphMR paper (see DESIGN.md §1): PolygraphMR treats
// each CNN as a black box producing a softmax vector, so any correct tensor
// backend exercises the identical reliability machinery.
package tensor

import (
	"fmt"
	"math"
)

// T is a dense row-major tensor of float64 values. The zero value is an
// empty tensor; use New or FromSlice to create usable instances.
type T struct {
	// Shape holds the extent of each dimension, outermost first.
	Shape []int
	// Data is the contiguous row-major backing buffer. Its length always
	// equals the product of Shape.
	Data []float64
}

// New returns a zero-filled tensor with the given shape. It panics if any
// dimension is negative; a zero dimension yields an empty tensor.
func New(shape ...int) *T {
	n := 1
	for _, d := range shape {
		if d < 0 {
			panic(fmt.Sprintf("tensor: negative dimension %d in shape %v", d, shape))
		}
		n *= d
	}
	return &T{Shape: append([]int(nil), shape...), Data: make([]float64, n)}
}

// FromSlice wraps data in a tensor with the given shape. The slice is used
// directly (not copied). It panics if len(data) does not match the shape.
func FromSlice(data []float64, shape ...int) *T {
	n := 1
	for _, d := range shape {
		n *= d
	}
	if len(data) != n {
		panic(fmt.Sprintf("tensor: data length %d does not match shape %v (want %d)", len(data), shape, n))
	}
	return &T{Shape: append([]int(nil), shape...), Data: data}
}

// Len returns the total number of elements.
func (t *T) Len() int { return len(t.Data) }

// Rank returns the number of dimensions.
func (t *T) Rank() int { return len(t.Shape) }

// Clone returns a deep copy of t.
func (t *T) Clone() *T {
	c := New(t.Shape...)
	copy(c.Data, t.Data)
	return c
}

// ZerosLike returns a zero tensor with the same shape as t.
func (t *T) ZerosLike() *T { return New(t.Shape...) }

// Reshape returns a tensor sharing t's data with a new shape. It panics if
// the element counts differ.
func (t *T) Reshape(shape ...int) *T {
	n := 1
	for _, d := range shape {
		n *= d
	}
	if n != len(t.Data) {
		panic(fmt.Sprintf("tensor: cannot reshape %v (%d elems) to %v (%d elems)", t.Shape, len(t.Data), shape, n))
	}
	return &T{Shape: append([]int(nil), shape...), Data: t.Data}
}

// index computes the flat offset of the given multi-dimensional index.
func (t *T) index(idx ...int) int {
	if len(idx) != len(t.Shape) {
		panic(fmt.Sprintf("tensor: index rank %d does not match tensor rank %d", len(idx), len(t.Shape)))
	}
	off := 0
	for i, x := range idx {
		if x < 0 || x >= t.Shape[i] {
			panic(fmt.Sprintf("tensor: index %v out of range for shape %v", idx, t.Shape))
		}
		off = off*t.Shape[i] + x
	}
	return off
}

// Set stores v at the given index.
func (t *T) Set(v float64, idx ...int) { t.Data[t.index(idx...)] = v }

// Fill sets every element to v.
func (t *T) Fill(v float64) {
	for i := range t.Data {
		t.Data[i] = v
	}
}

// Zero resets every element to 0.
func (t *T) Zero() {
	for i := range t.Data {
		t.Data[i] = 0
	}
}

// AddInPlace adds o element-wise into t. It panics if lengths differ.
func (t *T) AddInPlace(o *T) {
	if len(t.Data) != len(o.Data) {
		panic(fmt.Sprintf("tensor: AddInPlace length mismatch %d vs %d", len(t.Data), len(o.Data)))
	}
	for i, v := range o.Data {
		t.Data[i] += v
	}
}

// Scale multiplies every element by alpha.
func (t *T) Scale(alpha float64) {
	for i := range t.Data {
		t.Data[i] *= alpha
	}
}

// MaxIndex returns the index of the largest element and its value. For an
// empty tensor it returns (-1, -Inf). Ties resolve to the lowest index.
func (t *T) MaxIndex() (int, float64) {
	best, bv := -1, math.Inf(-1)
	for i, v := range t.Data {
		if v > bv {
			best, bv = i, v
		}
	}
	return best, bv
}

// Sum returns the sum of all elements.
func (t *T) Sum() float64 {
	s := 0.0
	for _, v := range t.Data {
		s += v
	}
	return s
}

// SameShape reports whether t and o have identical shapes.
func (t *T) SameShape(o *T) bool {
	if len(t.Shape) != len(o.Shape) {
		return false
	}
	for i, d := range t.Shape {
		if d != o.Shape[i] {
			return false
		}
	}
	return true
}

// String renders a short description, e.g. "tensor[3 32 32]".
func (t *T) String() string { return fmt.Sprintf("tensor%v", t.Shape) }
