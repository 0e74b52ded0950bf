package tensor

import "fmt"

// This file holds the float32 storage types of the reduced-precision
// inference backend (DESIGN.md §9). T32 deliberately carries only the
// surface the inference kernels need — the training path, serialization
// and the decision engine stay float64; float32 (and int8, see int8.go)
// exist purely as execution formats that networks are compiled into once
// (nn.Network.Compile32 / CompileInt8) and run through the same generic
// kernels as the reference path.

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

// FromSlice32 wraps data in a float32 tensor with the given shape. The
// slice is used directly (not copied). It panics on a length mismatch.
func FromSlice32(data []float32, shape ...int) *T32 {
	n := 1
	for _, d := range shape {
		n *= d
	}
	if len(data) != n {
		panic(fmt.Sprintf("tensor: data length %d does not match shape %v (want %d)", len(data), shape, n))
	}
	return &T32{Shape: append([]int(nil), shape...), Data: data}
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

// Len returns the total number of elements.
func (t *T32) Len() int { return len(t.Data) }

// Rank returns the number of dimensions.
func (t *T32) Rank() int { return len(t.Shape) }

// Reshape returns a tensor sharing t's data with a new shape. It panics if
// the element counts differ.
func (t *T32) Reshape(shape ...int) *T32 {
	n := 1
	for _, d := range shape {
		n *= d
	}
	if n != len(t.Data) {
		panic(fmt.Sprintf("tensor: cannot reshape %v (%d elems) to %v (%d elems)", t.Shape, len(t.Data), shape, n))
	}
	return &T32{Shape: append([]int(nil), shape...), Data: t.Data}
}

// SameShape reports whether t and o have identical shapes.
func (t *T32) SameShape(o *T32) bool {
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

// String renders a short description, e.g. "tensor32[3 32 32]".
func (t *T32) String() string { return fmt.Sprintf("tensor32%v", t.Shape) }

// Arena32 is the scratch allocator of the reduced-precision backends: the
// same high-water region as Arena, with one slab each for float32 tensors
// and for the raw byte and int32 buffers of the int8 kernels (quantized
// activations and integer accumulators). Like Arena it is NOT safe for
// concurrent use — each worker goroutine owns its own instance — and
// everything handed out stays valid only until the next Reset.
type Arena32 struct {
	data  bump[float32]
	bytes bump[uint8]
	ints  bump[int32]
	hdrs  []*T32 // reused by position, like Arena.hdrs
	live  int
	// abft mirrors Arena.abft: a non-nil sink asks the reduced-precision
	// kernels to checksum-verify their outputs (DESIGN.md §10).
	abft *AbftStats
}

// SetAbft enables (non-nil) or disables (nil) checksum verification for
// kernels running against this arena, directing outcomes to s.
func (a *Arena32) SetAbft(s *AbftStats) { a.abft = s }

// Abft returns the verification sink, or nil when verification is off.
func (a *Arena32) Abft() *AbftStats { return a.abft }

// NewArena32 returns an empty arena.
func NewArena32() *Arena32 { return &Arena32{} }

// NewRaw returns a float32 tensor with the given shape and arbitrary
// contents; callers must write every element before reading (see
// Arena.NewRaw).
func (a *Arena32) NewRaw(shape ...int) *T32 {
	n := arenaElems(shape)
	if a.live == len(a.hdrs) {
		a.hdrs = append(a.hdrs, new(T32))
	}
	t := a.hdrs[a.live]
	a.live++
	t.Shape = append(t.Shape[:0], shape...)
	t.Data = a.data.get(n)
	return t
}

// Bytes returns a cache-line-aligned byte buffer of length n with arbitrary
// contents (quantized activations, lowered uint8 column matrices).
func (a *Arena32) Bytes(n int) []uint8 { return a.bytes.get(n) }

// Int32s returns a cache-line-aligned int32 buffer of length n with
// arbitrary contents (integer GEMM accumulators and column sums).
func (a *Arena32) Int32s(n int) []int32 { return a.ints.get(n) }

// Reset rewinds the arena, recycling everything handed out since the
// previous Reset. The caller must not use those tensors or buffers
// afterwards.
func (a *Arena32) Reset() {
	for _, t := range a.hdrs[:a.live] {
		t.Data = nil
	}
	a.live = 0
	a.data.reset()
	a.bytes.reset()
	a.ints.reset()
}

// Live returns the number of tensors handed out since the last Reset.
func (a *Arena32) Live() int { return a.live }
