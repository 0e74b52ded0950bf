package tensor

import "unsafe"

// Arena is the scratch allocator of the float64 inference path: a
// high-water region. A forward pass draws many short-lived intermediate
// tensors; the arena carves them front to back out of one cache-line
// aligned slab and Reset rewinds it, so once the slab has grown to the
// largest call it serves, a forward pass allocates nothing (see
// nn.Network.InferBatchArena and core.System.ClassifyBatch). Memory is
// bounded by the largest single call, however many shapes and batch sizes
// the arena has seen — which is what lets one arena live as long as the
// core.System that owns it.
//
// An Arena is NOT safe for concurrent use: each worker goroutine must own
// its own instance. Tensors returned by NewRaw remain valid until the next
// Reset, after which their memory and their *T headers are handed out
// again.
type Arena struct {
	data bump[float64]
	// hdrs are the tensor headers, reused by position: the i-th NewRaw
	// after a Reset returns hdrs[i].
	hdrs []*T
	live int
	// abft, when non-nil, asks kernels drawing scratch from this arena to
	// checksum-verify their outputs and record outcomes here (DESIGN.md
	// §10). Riding on the arena keeps verification a per-call property —
	// the arena is already the one object every inference path threads
	// through per worker — without widening every forwarder signature.
	abft *AbftStats
}

// SetAbft enables (non-nil) or disables (nil) checksum verification for
// kernels running against this arena, directing outcomes to s.
func (a *Arena) SetAbft(s *AbftStats) { a.abft = s }

// Abft returns the verification sink, or nil when verification is off.
func (a *Arena) Abft() *AbftStats { return a.abft }

// NewArena returns an empty arena.
func NewArena() *Arena { return &Arena{} }

// NewRaw returns a tensor with the given shape whose Data is a
// cache-line-aligned window of the arena. Its contents are arbitrary —
// whatever an earlier tensor of any shape left there, or zeros from a
// fresh slab — so callers must write every element before reading it. The
// batched inference kernels qualify (im2col, GEMM and the element-wise
// passes each fully write their output), and skipping the clear of
// multi-megabyte column matrices is a measurable win on the hot path. Like
// tensor.New it panics on negative dimensions.
func (a *Arena) NewRaw(shape ...int) *T {
	n := arenaElems(shape)
	if a.live == len(a.hdrs) {
		a.hdrs = append(a.hdrs, new(T))
	}
	t := a.hdrs[a.live]
	a.live++
	t.Shape = append(t.Shape[:0], shape...)
	t.Data = a.data.get(n)
	return t
}

// Reset rewinds the arena, recycling every tensor handed out since the
// previous Reset. The caller must not use those tensors (or views of them)
// afterwards.
func (a *Arena) Reset() {
	// Drop the windows so an idle header pins no outgrown slab or overflow
	// buffer, and a tensor used after Reset fails loudly.
	for _, t := range a.hdrs[:a.live] {
		t.Data = nil
	}
	a.live = 0
	a.data.reset()
}

// Live returns the number of tensors handed out since the last Reset.
func (a *Arena) Live() int { return a.live }

// arenaElems is the element count of an arena shape; it panics on a
// negative dimension.
func arenaElems(shape []int) int {
	n := 1
	for _, d := range shape {
		if d < 0 {
			panic("tensor: negative dimension in arena shape")
		}
		n *= d
	}
	return n
}

// bump is a high-water region of one element type: a cache-line-aligned
// slab handed out front to back, every request rounded up to whole cache
// lines so each slice starts aligned, and returned as a three-index slice
// so an append cannot run into its neighbour. A call that outgrows the slab
// takes the overflow from the heap; the next reset regrows the slab to that
// call's total, so the slab never exceeds the largest call it has served.
type bump[E float64 | float32 | int32 | uint8] struct {
	slab []E
	off  int // elements of slab handed out since the last reset
	need int // elements requested since the last reset, overflow included
}

func (b *bump[E]) get(n int) []E {
	var zero E
	line := cacheLine / int(unsafe.Sizeof(zero))
	r := (n + line - 1) / line * line
	b.need += r
	if b.off+r > len(b.slab) {
		return alignedSlice[E](n)
	}
	s := b.slab[b.off : b.off+n : b.off+n]
	b.off += r
	return s
}

func (b *bump[E]) reset() {
	if b.need > len(b.slab) {
		b.slab = alignedSlice[E](b.need)
	}
	b.off, b.need = 0, 0
}
