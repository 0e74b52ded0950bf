package tensor

import "unsafe"

// The convolution epilogue (DESIGN.md §7): one pass from a GEMM output
// plane to the next layer's input. Every zoo topology opens with
// Conv2D → ReLU → MaxPool2D(2); instead of writing the biased plane,
// rectifying it in place and pooling it in a third pass, RectifyPool reads
// each plane once and applies the stages in registers. The same kernel, with
// stages switched off, serves the bias-only convolution epilogue and the
// standalone rectifier and pooling layers.
//
// Each output is exactly the expression chain the layerwise passes compute,
// in the same order: with s(v) = max(v+bias, 0) (either stage optional),
// a pooled output is max(max(s(a), s(b)), max(s(c), s(d))) over the window
//
//	a b
//	c d
//
// and an unpooled one is s(v). The vector body evaluates Go's own lowering
// of the float max builtin lane by lane: max(x, y) = −min(−x, −y), where
// min(x, y) = (t < x ? t : x) | t with t = (x < y ? x : y) — negation a sign
// flip, | the bitwise OR of the encodings. So body and scalar tail agree bit
// for bit on every input, ±0 and NaN payloads included.

// Epi selects the stages of a RectifyPool pass.
type Epi uint8

const (
	// EpiBias adds the plane's bias: v + bias.
	EpiBias Epi = 1 << iota
	// EpiReLU rectifies: max(v, 0).
	EpiReLU
	// EpiPool max-pools 2×2 windows at stride 2; an odd last row or column
	// is dropped (floor), as MaxPool2D does.
	EpiPool
)

// RectifyPool writes one h×w row-major plane of src through the stages e
// selects into dst: h×w elements without EpiPool (dst may be src — the
// rectifier runs in place), (h/2)×(w/2) with it (dst must not overlap src).
// bias is read only under EpiBias. The vector body covers what it can and
// rectifyPoolGo, the pure-Go body, the rest.
func RectifyPool[F Float](dst, src []F, h, w int, bias F, e Epi) {
	x0 := 0
	if simdAvailable {
		if e&EpiPool == 0 {
			n := h * w
			if nb := n - n%ymmLanes[F](); nb > 0 {
				rectifyRow(&dst[:n][0], &src[:n][0], nb, bias, e)
				x0 = nb
			}
		} else if ph, pw := h/2, w/2; ph > 0 {
			// Both widths' kernels take 4 outputs at a time (float32 in
			// groups of 8, then one of 4, so 8×8 planes vectorize too).
			if nb := pw &^ 3; nb > 0 {
				_ = dst[ph*pw-1]
				_ = src[(2*ph-1)*w+2*nb-1] // the kernel's last read, bounds-checked once
				rectifyPool2(&dst[0], &src[0], ph, nb, w, pw, bias, e)
				x0 = nb
			}
		}
	}
	rectifyPoolGo(dst, src, h, w, bias, e, x0)
}

// rectifyPoolGo is RectifyPool's pure-Go body from element x0 on (without
// EpiPool) or from output column x0 of every output row (with it).
func rectifyPoolGo[F Float](dst, src []F, h, w int, bias F, e Epi, x0 int) {
	if e&EpiPool == 0 {
		n := h * w
		dst, src = dst[:n], src[:n]
		for i := x0; i < n; i++ {
			dst[i] = stage(src[i], bias, e)
		}
		return
	}
	ph, pw := h/2, w/2
	for y := 0; y < ph; y++ {
		r0, r1 := src[2*y*w:][:w], src[(2*y+1)*w:][:w]
		drow := dst[y*pw:][:pw]
		for x := x0; x < pw; x++ {
			drow[x] = max(max(stage(r0[2*x], bias, e), stage(r0[2*x+1], bias, e)),
				max(stage(r1[2*x], bias, e), stage(r1[2*x+1], bias, e)))
		}
	}
}

// stage applies RectifyPool's element stages to one value.
func stage[F Float](v, bias F, e Epi) F {
	if e&EpiBias != 0 {
		v += bias
	}
	if e&EpiReLU != 0 {
		v = max(v, 0)
	}
	return v
}

// rectifyRow runs F's element-stage kernel on n values (n a multiple of one
// YMM register's lanes). The size test is a constant in each instantiation.
func rectifyRow[F Float](dst, src *F, n int, bias F, e Epi) {
	mode := int(e & (EpiBias | EpiReLU))
	if unsafe.Sizeof(bias) == 4 {
		rectifyF32AVX((*float32)(unsafe.Pointer(dst)), (*float32)(unsafe.Pointer(src)), n, *(*float32)(unsafe.Pointer(&bias)), mode)
		return
	}
	rectifyF64AVX((*float64)(unsafe.Pointer(dst)), (*float64)(unsafe.Pointer(src)), n, *(*float64)(unsafe.Pointer(&bias)), mode)
}

// rectifyPool2 runs F's pooling kernel over rows output rows of n output
// columns each (n a multiple of 4), reading source rows at stride lds and
// writing output rows at stride ldd.
func rectifyPool2[F Float](dst, src *F, rows, n, lds, ldd int, bias F, e Epi) {
	mode := int(e & (EpiBias | EpiReLU))
	if unsafe.Sizeof(bias) == 4 {
		rectifyPoolF32AVX((*float32)(unsafe.Pointer(dst)), (*float32)(unsafe.Pointer(src)), rows, n, lds, ldd, *(*float32)(unsafe.Pointer(&bias)), mode)
		return
	}
	rectifyPoolF64AVX((*float64)(unsafe.Pointer(dst)), (*float64)(unsafe.Pointer(src)), rows, n, lds, ldd, *(*float64)(unsafe.Pointer(&bias)), mode)
}

// ymmLanes is the number of F values in one YMM register.
func ymmLanes[F Float]() int {
	var z F
	return 32 / int(unsafe.Sizeof(z))
}
