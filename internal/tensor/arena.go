package tensor

// Arena is a size-bucketed tensor allocator for inference scratch reuse.
// Forward passes allocate many short-lived intermediate tensors; drawing
// them from an arena and recycling the buffers between inferences removes
// nearly all per-call heap allocations on the hot path (see
// nn.Network.InferBatchArena and core.System.ClassifyBatch).
//
// An Arena is NOT safe for concurrent use: each worker goroutine must own
// its own instance. Tensors returned by NewRaw remain valid until the next
// Reset, after which their buffers may be handed out again.
type Arena struct {
	// free buckets recycled buffers by element count.
	free map[int][]*T
	// used tracks tensors handed out since the last Reset.
	used []*T
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
func NewArena() *Arena {
	return &Arena{free: make(map[int][]*T)}
}

// NewRaw returns a tensor with the given shape, reusing a recycled buffer
// of matching size when one is available. There is no zero fill: a recycled
// buffer keeps whatever values it last held, so callers must overwrite every
// element before reading the tensor — the batched inference kernels qualify
// (im2col, GEMM and the element-wise passes each fully write their output),
// and skipping the redundant clear of multi-megabyte column matrices is a
// measurable win on the hot path. Like tensor.New it panics on negative
// dimensions.
func (a *Arena) NewRaw(shape ...int) *T {
	n := 1
	for _, d := range shape {
		if d < 0 {
			panic("tensor: negative dimension in arena shape")
		}
		n *= d
	}
	bucket := a.free[n]
	if len(bucket) == 0 {
		// Fresh buffers are cache-line aligned so kernel panels drawn from
		// the arena start on cache lines; recycled buffers keep their
		// original aligned backing.
		t := &T{Shape: append([]int(nil), shape...), Data: AlignedF64(n)}
		a.used = append(a.used, t)
		return t
	}
	t := bucket[len(bucket)-1]
	bucket[len(bucket)-1] = nil
	a.free[n] = bucket[:len(bucket)-1]
	t.Shape = append(t.Shape[:0], shape...)
	a.used = append(a.used, t)
	return t
}

// Reset recycles every tensor handed out since the previous Reset. The
// caller must not use those tensors (or views of them) afterwards.
func (a *Arena) Reset() {
	for i, t := range a.used {
		a.free[len(t.Data)] = append(a.free[len(t.Data)], t)
		a.used[i] = nil
	}
	a.used = a.used[:0]
}

// Live returns the number of tensors handed out since the last Reset.
func (a *Arena) Live() int { return len(a.used) }
