package tensor

import "unsafe"

// Arena is the scratch allocator of the served inference path: one
// high-water region per element type — float64 and float32 activations,
// uint8 quantized activations and int32 integer accumulators. A forward
// pass draws many short-lived buffers; the arena carves them front to back
// out of cache-line aligned slabs and Reset rewinds them, so once the
// slabs have grown to the largest call they serve, a forward pass
// allocates nothing (see nn.Net.InferBatch and core.System.ClassifyBatch).
// Each slab grows only when its element type is drawn: a float64 net never
// allocates float32 or integer scratch, an int8 net no float64 scratch.
// Memory is bounded by the largest single call, however many shapes and
// batch sizes the arena has seen — which is what lets one arena live as
// long as the core.System worker that owns it.
//
// An Arena is NOT safe for concurrent use: each worker goroutine must own
// its own instance. Buffers returned by Raw remain valid until the next
// Reset, after which their memory is handed out again.
type Arena struct {
	f64 bump[float64]
	f32 bump[float32]
	u8  bump[uint8]
	i32 bump[int32]
	// live counts the buffers handed out since the last Reset.
	live int
	// abft, when non-nil, asks kernels drawing scratch from this arena to
	// checksum-verify their outputs and record outcomes here (DESIGN.md
	// §10). Riding on the arena keeps verification a per-call property —
	// the arena is already the one object every inference path threads
	// through per worker — without widening every forwarder signature.
	abft *AbftStats
}

// Arena32 is Arena, under the name the benchmark harness uses for the
// reduced-precision backends' scratch.
type Arena32 = Arena

// NewArena returns an empty arena.
func NewArena() *Arena { return &Arena{} }

// NewArena32 is NewArena, under the name the benchmark harness uses.
func NewArena32() *Arena { return &Arena{} }

// SetAbft enables (non-nil) or disables (nil) checksum verification for
// kernels running against this arena, directing outcomes to s.
func (a *Arena) SetAbft(s *AbftStats) { a.abft = s }

// Abft returns the verification sink, or nil when verification is off.
func (a *Arena) Abft() *AbftStats { return a.abft }

// ArenaElem is the element type of one arena slab.
type ArenaElem interface {
	float64 | float32 | int32 | uint8
}

// Raw returns a cache-line-aligned buffer of n elements of E drawn from
// a's slab for E. Its contents are arbitrary — whatever an earlier buffer
// left there, or zeros from a fresh slab — so callers must write every
// element before reading it. The served kernels qualify (im2col, GEMM and
// the element-wise passes each fully write their output), and skipping the
// clear of multi-megabyte column matrices is a measurable win on the hot
// path. It panics on a negative n.
func Raw[E ArenaElem](a *Arena, n int) []E {
	if n < 0 {
		panic("tensor: negative arena buffer length")
	}
	a.live++
	return slab[E](a).get(n)
}

// SlabLen returns the length in elements of a's slab for E: 0 until a
// call drawing E has been followed by a Reset, then the largest single
// call's total.
func SlabLen[E ArenaElem](a *Arena) int { return len(slab[E](a).slab) }

// slab returns a's region for E.
func slab[E ArenaElem](a *Arena) *bump[E] {
	var b any
	switch any(*new(E)).(type) {
	case float64:
		b = &a.f64
	case float32:
		b = &a.f32
	case uint8:
		b = &a.u8
	default:
		b = &a.i32
	}
	return b.(*bump[E])
}

// Reset rewinds the arena, recycling every buffer handed out since the
// previous Reset. The caller must not use those buffers afterwards.
func (a *Arena) Reset() {
	a.live = 0
	a.f64.reset()
	a.f32.reset()
	a.u8.reset()
	a.i32.reset()
}

// Live returns the number of buffers handed out since the last Reset.
func (a *Arena) Live() int { return a.live }

// Drawn returns the bytes handed out since the last Reset, each buffer
// rounded up to whole cache lines.
func (a *Arena) Drawn() int { return 8*a.f64.need + 4*a.f32.need + a.u8.need + 4*a.i32.need }

// bump is a high-water region of one element type: a cache-line-aligned
// slab handed out front to back, every request rounded up to whole cache
// lines so each slice starts aligned, and returned as a three-index slice
// so an append cannot run into its neighbour. A call that outgrows the slab
// takes the overflow from the heap; the next reset regrows the slab to that
// call's total, so the slab never exceeds the largest call it has served.
type bump[E ArenaElem] struct {
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
