package tensor

import "fmt"

// This file holds T32, the float32 tensor of the typed kernel entry points
// (ConvGemmIm2Col32, Im2ColBatch32, GemmInto32Fast) the benchmark kernel
// probe and the kernel tests call. The served f32 and int8 backends carry
// no tensor type at all: their compiled nodes hand arena slices to the
// width-generic served products (served.go).

// T32 is a dense row-major float32 tensor: the storage type of the f32
// inference backend. The zero value is an empty tensor.
type T32 struct {
	// Shape holds the extent of each dimension, outermost first.
	Shape []int
	// Data is the contiguous row-major backing buffer; its length always
	// equals the product of Shape.
	Data []float32
}

// New32 returns a zero-filled float32 tensor with the given shape. It
// panics if any dimension is negative.
func New32(shape ...int) *T32 {
	n := 1
	for _, d := range shape {
		if d < 0 {
			panic(fmt.Sprintf("tensor: negative dimension %d in shape %v", d, shape))
		}
		n *= d
	}
	return &T32{Shape: append([]int(nil), shape...), Data: make([]float32, n)}
}

// To32 returns a new float32 tensor holding t's values rounded to float32
// (round-to-nearest-even, the Go conversion semantics). This is the
// weight-conversion step of backend compilation.
func To32(t *T) *T32 {
	c := &T32{Shape: append([]int(nil), t.Shape...), Data: make([]float32, len(t.Data))}
	for i, v := range t.Data {
		c.Data[i] = float32(v)
	}
	return c
}
