package tensor

import "unsafe"

// Arena is the scratch allocator of the served inference path, and the
// only per-call state a kernel touches: one high-water region per element
// type — float64 and float32 activations, uint8 quantized activations,
// int32 integer accumulators and the int64 checksums of the int8 verifier.
// A forward pass draws many short-lived buffers; the arena carves them
// front to back out of cache-line aligned slabs and Reset rewinds them, so
// once the slabs have grown to the largest call they serve, a forward pass
// allocates nothing (see nn.Net.InferBatch and core.System.ClassifyBatch).
// Kernels draw their own working scratch — generation blocks, padded edge
// blocks, checksum arrays — the same way, between a Mark and a Release:
// the scratch is handed back as soon as the kernel returns, so it leaves
// Drawn and Live where they were, while the slab still grows to cover it.
// Each slab grows only when its element type is drawn: a float64 net never
// allocates float32 or integer scratch, an int8 net no float64 scratch.
// Memory is bounded by the largest single call, however many shapes and
// batch sizes the arena has seen — which is what lets one arena live as
// long as the core.System worker that owns it.
//
// An Arena is NOT safe for concurrent use: each worker goroutine must own
// its own instance. Buffers returned by Raw remain valid until the next
// Reset, or the Release of a mark taken before them, after which their
// memory is handed out again.
type Arena struct {
	f64 bump[float64]
	f32 bump[float32]
	u8  bump[uint8]
	i32 bump[int32]
	i64 bump[int64]
	// live counts the buffers handed out since the last Reset, less those
	// a Release handed back.
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
// kernels running against this arena, directing outcomes to s. The
// sink's fault hooks (AbftStats.Injector, RetryHook) reach exactly the
// kernels that run on this arena.
func (a *Arena) SetAbft(s *AbftStats) { a.abft = s }

// Abft returns the verification sink, or nil when verification is off.
func (a *Arena) Abft() *AbftStats { return a.abft }

// ArenaElem is the element type of one arena slab.
type ArenaElem interface {
	float64 | float32 | int32 | int64 | uint8
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
	case int64:
		b = &a.i64
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
	a.i64.reset()
}

// ArenaMark is a position of an Arena: every slab's offset and the live
// count, as Mark took them.
type ArenaMark struct {
	f64, f32, u8, i32, i64 bumpMark
	live                   int
}

// Mark returns the arena's current position for a later Release.
func (a *Arena) Mark() ArenaMark {
	return ArenaMark{a.f64.mark(), a.f32.mark(), a.u8.mark(), a.i32.mark(), a.i64.mark(), a.live}
}

// Release rewinds the arena to m, recycling every buffer handed out since
// Mark returned it; the caller must not use those buffers afterwards.
// Marks nest as a stack: releasing m also releases every later mark. Drawn
// and Live read as they did at m, and the next Reset still grows each slab
// to cover the largest total drawn before any release.
func (a *Arena) Release(m ArenaMark) {
	a.f64.release(m.f64)
	a.f32.release(m.f32)
	a.u8.release(m.u8)
	a.i32.release(m.i32)
	a.i64.release(m.i64)
	a.live = m.live
}

// Drawn returns the bytes handed out since the last Reset and not
// released, each buffer rounded up to whole cache lines.
func (a *Arena) Drawn() int {
	return 8*a.f64.need + 4*a.f32.need + a.u8.need + 4*a.i32.need + 8*a.i64.need
}

// bump is a high-water region of one element type: a cache-line-aligned
// slab handed out front to back, every request rounded up to whole cache
// lines so each slice starts aligned, and returned as a three-index slice
// so an append cannot run into its neighbour. A call that outgrows the slab
// takes the overflow from the heap; the next reset regrows the slab to
// the call's peak total — released scratch included — so the slab never
// exceeds the largest call it has served.
type bump[E ArenaElem] struct {
	slab []E
	off  int // elements of slab handed out, not yet released
	need int // elements requested, overflow included, not yet released
	peak int // the largest need since the last reset
}

// bumpMark is a bump's position: its off and need.
type bumpMark struct{ off, need int }

func (b *bump[E]) get(n int) []E {
	var zero E
	line := cacheLine / int(unsafe.Sizeof(zero))
	r := (n + line - 1) / line * line
	b.need += r
	b.peak = max(b.peak, b.need)
	if b.off+r > len(b.slab) {
		return alignedSlice[E](n)
	}
	s := b.slab[b.off : b.off+n : b.off+n]
	b.off += r
	return s
}

func (b *bump[E]) mark() bumpMark { return bumpMark{b.off, b.need} }

func (b *bump[E]) release(m bumpMark) { b.off, b.need = m.off, m.need }

func (b *bump[E]) reset() {
	if b.peak > len(b.slab) {
		b.slab = alignedSlice[E](b.peak)
	}
	b.off, b.need, b.peak = 0, 0, 0
}
