package tensor

import (
	"fmt"
)

// Direct shift convolution for the int8 backend (DESIGN.md §14). im2col —
// explicit or implicit — writes every input byte KH·KW times; at the model
// zoo's 3×3 kernels that write amplification is the dominant cost of the
// whole quantized convolution, dwarfing the SWAR GEMM itself. The direct
// driver never builds patch columns at all. It copies the quantized batch
// once into a zero-point-padded buffer whose rows are interleaved by
// channel — row r = (iy+Pad)·InC + c holds channel c of padded image row
// iy, with every image of the batch laid side by side in the same row —
// and exploits a property of that layout under stride 1: the KH·InC patch
// rows feeding output row y, ordered (kh, c), are exactly the contiguous
// buffer rows [y·InC, y·InC+KH·InC) at constant stride L, just
// window-shifted by kw. So for each (output row, kernel column kw) one
// GEMM pass over all bsz·paddedW columns consumes the padded buffer
// directly with ldb = L — the operand is the image batch itself. The
// kw ≥ 1 passes use accumulating kernel variants, folding the KW partial
// products in-register instead of through a Go-side add pass, and the
// weight panels carry an extra all-ones row whose tile row is exactly the
// per-column byte sum — colsum falls out of the same kernel sweep.
//
// The summation order over k differs from the explicit lowering's (the
// kernel column becomes the outermost split, with KW partial products
// added per output), which is exactly why this driver exists only for the
// int8 path: int32 accumulation is associative, every partial sum fits
// int32 (k ≤ MaxQuantK), so acc and colsum match Im2ColBatchU8 +
// GemmU8Into bit for bit — locked by TestConvDirectU8BitIdentical. The
// float backends keep the order-preserving implicit drivers instead.
//
// The weights are reordered once at compile time (PackConvShiftU8) into
// KW matrices of shape [OutC+1, KH·InC] so each kernel-column pass reads
// its A operand contiguously.

// PackedConvShift is the compile-time weight layout of the direct uint8
// convolution: KW matrices, one per kernel column, each [OutC+1, KH·InC]
// with k ordered (kh, c) — the order the shifted window of the padded
// channel-interleaved image presents its rows in. Row OutC of every
// matrix is all ones: its GEMM output row is the per-column input byte
// sum, which accumulated across the KW passes is exactly colsum.
type PackedConvShift struct {
	OutC, InC, KH, KW int
	// Bits[(dx·(OutC+1)+o)·KH·InC + kh·InC + c] = biased weight
	// (o, c, kh, kw) of the [OutC, InC·KH·KW] conv weight matrix for
	// o < OutC, and 1 for o == OutC (the colsum row).
	Bits []uint8
}

// PackConvShiftU8 reorders a quantized conv weight matrix (QuantWeights
// layout: [OutC, InC·KH·KW], k ordered (c, kh, kw)) into the kernel-column
// panels the direct driver consumes and appends the all-ones colsum row to
// each panel. Pure permutation plus the constant row: no weight changes.
func PackConvShiftU8(bits []uint8, outC, inC, kh, kw int) *PackedConvShift {
	if len(bits) != outC*inC*kh*kw {
		panic(fmt.Sprintf("tensor: PackConvShiftU8 len %d, want %d×%d×%d×%d", len(bits), outC, inC, kh, kw))
	}
	kf := kh * inC
	p := &PackedConvShift{
		OutC: outC, InC: inC, KH: kh, KW: kw,
		Bits: AlignedU8(kw * (outC + 1) * kf),
	}
	for dx := 0; dx < kw; dx++ {
		mtx := p.Bits[dx*(outC+1)*kf:]
		for o := 0; o < outC; o++ {
			row := mtx[o*kf : o*kf+kf]
			for dy := 0; dy < kh; dy++ {
				for c := 0; c < inC; c++ {
					row[dy*inC+c] = bits[o*inC*kh*kw+c*kh*kw+dy*kw+dx]
				}
			}
		}
		fill(mtx[outC*kf:(outC+1)*kf], 1)
	}
	return p
}

// fill sets every element of s to v: short runs (the padding of one
// im2col row) by a plain loop, longer ones at memmove speed (doubling copy).
func fill[E any](s []E, v E) {
	if len(s) <= 32 {
		for i := range s {
			s[i] = v
		}
		return
	}
	s[0] = v
	for f := 1; f < len(s); f *= 2 {
		copy(s[f:], s[:f])
	}
}

// ConvDirectU8 computes the quantized convolution acc (int32,
// [OutC, bsz·OutH·OutW]) and per-column sums colsum straight from the
// image batch, without any im2col operand. Stride must be 1 (the padded
// window walk needs unit column stride); callers gate on that and fall
// back to the implicit or explicit lowering otherwise. Results are
// bit-identical to Im2ColBatchU8 + GemmU8Into. Its only caller is the
// benchmark kernel probe (served convolutions reach the driver through
// ConvU8); it draws its scratch from a private arena.
func ConvDirectU8(acc, colsum []int32, w *PackedConvShift, qsrc []uint8, bsz int, g ConvGeom, zp uint8) {
	convDirectU8(acc, colsum, w, qsrc, bsz, g, zp, simdAvailable, NewArena())
}

// convDirectU8 is ConvDirectU8 on the vector kernels when simd is set and
// the scalar SWAR kernels otherwise; simd as in gemmU8. Its padded rows
// and its int32 tile are drawn from a and released on return.
func convDirectU8(acc, colsum []int32, w *PackedConvShift, qsrc []uint8, bsz int, g ConvGeom, zp uint8, simd bool, a *Arena) {
	if g.Stride != 1 {
		panic("tensor: ConvDirectU8 requires stride 1")
	}
	if w.InC != g.InC || w.KH != g.KH || w.KW != g.KW {
		panic(fmt.Sprintf("tensor: ConvDirectU8 pack %d/%d/%d, geom %d/%d/%d", w.InC, w.KH, w.KW, g.InC, g.KH, g.KW))
	}
	m := w.OutC
	k := g.InC * g.KH * g.KW
	if k > MaxQuantK {
		panic(fmt.Sprintf("tensor: ConvDirectU8 k=%d exceeds MaxQuantK=%d", k, MaxQuantK))
	}
	oh, ow := g.OutH(), g.OutW()
	n := bsz * oh * ow
	hw := g.InH * g.InW
	chw := g.InC * hw
	if len(qsrc) != bsz*chw || len(acc) < m*n || len(colsum) < n {
		panic(fmt.Sprintf("tensor: ConvDirectU8 size mismatch m=%d k=%d n=%d (src=%d acc=%d colsum=%d)", m, k, n, len(qsrc), len(acc), len(colsum)))
	}

	// One buffer row per (padded image row, channel), all images of the
	// batch concatenated: slot b occupies columns [b·pw1, (b+1)·pw1). The
	// trailing slack bytes let the window-shifted views (and the last
	// SIMD block, which may overhang the sweep width by up to 31 columns)
	// read past the final row without a bounds trap; the KW-1 garbage
	// columns at the end of each image slot (a window straddling the seam
	// into the next image's padding) land in tile columns ≥ OutW and are
	// never copied out.
	pw1 := g.InW + 2*g.Pad
	L := bsz * pw1
	rows := (g.InH + 2*g.Pad) * g.InC
	mk := a.Mark()
	buf := Raw[uint8](a, rows*L+g.KW-1+31)
	fill(buf, zp)
	for iy := 0; iy < g.InH; iy++ {
		for c := 0; c < g.InC; c++ {
			dr := buf[((iy+g.Pad)*g.InC+c)*L:]
			sr := qsrc[c*hw+iy*g.InW:]
			for b := 0; b < bsz; b++ {
				copy(dr[b*pw1+g.Pad:][:g.InW], sr[b*chw:][:g.InW])
			}
		}
	}

	convDirectRows(acc, colsum, w, buf, g, pw1, L, n, simd, a)
	a.Release(mk)
}

// convDirectRows runs the direct convolution, every image of the batch at
// once, on the calling goroutine. Per output row it runs one GEMM pass
// per kernel column into an L2-resident tile — pass 0 with the
// overwriting kernels, passes ≥ 1 with the accumulating variants — then
// scatters the real columns of the tile into acc and the ones-row into
// colsum. The sweep covers W = (bsz-1)·pw1 + ow columns: every real
// output lands in [0, W) (only the final image slot's garbage tail is
// dropped), and on SIMD the last 32-wide block simply overhangs W — the
// tile rows are padded to a 32 multiple and the buffer carries matching
// slack, so a bsz=1 forward (the sequential per-image decision path) still
// runs entirely on the wide kernels even when pw1 < 32. The tile is drawn
// from a; the caller releases it.
func convDirectRows(acc, colsum []int32, w *PackedConvShift, buf []uint8, g ConvGeom, pw1, L, n int, simd bool, a *Arena) {
	m := w.OutC
	mm := m + 1 // + colsum ones row
	kf := w.KH * g.InC
	oh, ow := g.OutH(), g.OutW()
	bsz := L / pw1
	W := (bsz-1)*pw1 + ow
	lds := W
	if simd {
		lds = (W + 31) &^ 31
	}
	t := Raw[int32](a, mm*lds)
	for y := 0; y < oh; y++ {
		base := y * g.InC * L
		for dx := 0; dx < g.KW; dx++ {
			a := w.Bits[dx*mm*kf:]
			view := buf[base+dx:]
			if simd {
				for jj := 0; jj < W; jj += 32 {
					i := 0
					if dx == 0 {
						for ; i+2 <= mm; i += 2 {
							u8Gemm2x32(&a[i*kf], kf, &view[jj], L, &t[i*lds+jj], lds, kf)
						}
						if i < mm {
							u8GemmRow32(&a[i*kf], &view[jj], L, &t[i*lds+jj], kf)
						}
					} else {
						for ; i+2 <= mm; i += 2 {
							u8Gemm2x32Acc(&a[i*kf], kf, &view[jj], L, &t[i*lds+jj], lds, kf)
						}
						if i < mm {
							u8GemmRow32Acc(&a[i*kf], &view[jj], L, &t[i*lds+jj], kf)
						}
					}
				}
			} else if dx == 0 {
				i := 0
				for ; i+4 <= mm; i += 4 {
					j := 0
					for ; j+4 <= W; j += 4 {
						gemmU8Quad(t, a, view, kf, lds, L, i, j)
					}
					for ; j < W; j++ {
						gemmU8Col(t, a, view, kf, lds, L, i, i+4, j)
					}
				}
				for ; i < mm; i++ {
					gemmU8Row(t, a, view, kf, lds, L, i, 0, W)
				}
			} else {
				i := 0
				for ; i+4 <= mm; i += 4 {
					j := 0
					for ; j+4 <= W; j += 4 {
						gemmU8QuadAcc(t, a, view, kf, lds, L, i, j)
					}
					for ; j < W; j++ {
						gemmU8ColAcc(t, a, view, kf, lds, L, i, i+4, j)
					}
				}
				for ; i < mm; i++ {
					gemmU8RowAcc(t, a, view, kf, lds, L, i, 0, W)
				}
			}
		}
		for o := 0; o < m; o++ {
			trow := t[o*lds:]
			dst := acc[o*n+y*ow:]
			for b := 0; b < bsz; b++ {
				copy(dst[b*oh*ow:][:ow], trow[b*pw1:][:ow])
			}
		}
		trow := t[m*lds:]
		dst := colsum[y*ow:]
		for b := 0; b < bsz; b++ {
			copy(dst[b*oh*ow:][:ow], trow[b*pw1:][:ow])
		}
	}
}

// gemmU8QuadAcc is gemmU8Quad with c += instead of c =, used for the
// kernel-column passes dx ≥ 1 of the direct convolution. Safe in the SWAR
// halves for the same reason the overwriting kernel is: every partial sum
// of a ≤ MaxQuantK dot product fits int32 and is non-negative.
func gemmU8QuadAcc(c []int32, a, b []uint8, k, ldc, ldb, i, j int) {
	a0 := a[i*k : (i+1)*k]
	a1 := a[(i+1)*k:][:k]
	a2 := a[(i+2)*k:][:k]
	a3 := a[(i+3)*k:][:k]
	var q00, q01, q10, q11, q20, q21, q30, q31 uint64
	bi := j
	for p := 0; p < k; p++ {
		brow := b[bi : bi+4]
		v0 := uint64(brow[0]) | uint64(brow[1])<<32
		v1 := uint64(brow[2]) | uint64(brow[3])<<32
		bi += ldb
		w0, w1, w2, w3 := uint64(a0[p]), uint64(a1[p]), uint64(a2[p]), uint64(a3[p])
		q00 += v0 * w0
		q01 += v1 * w0
		q10 += v0 * w1
		q11 += v1 * w1
		q20 += v0 * w2
		q21 += v1 * w2
		q30 += v0 * w3
		q31 += v1 * w3
	}
	r0 := c[i*ldc+j:][:4]
	r1 := c[(i+1)*ldc+j:][:4]
	r2 := c[(i+2)*ldc+j:][:4]
	r3 := c[(i+3)*ldc+j:][:4]
	r0[0] += int32(uint32(q00))
	r0[1] += int32(q00 >> 32)
	r0[2] += int32(uint32(q01))
	r0[3] += int32(q01 >> 32)
	r1[0] += int32(uint32(q10))
	r1[1] += int32(q10 >> 32)
	r1[2] += int32(uint32(q11))
	r1[3] += int32(q11 >> 32)
	r2[0] += int32(uint32(q20))
	r2[1] += int32(q20 >> 32)
	r2[2] += int32(uint32(q21))
	r2[3] += int32(q21 >> 32)
	r3[0] += int32(uint32(q30))
	r3[1] += int32(q30 >> 32)
	r3[2] += int32(uint32(q31))
	r3[3] += int32(q31 >> 32)
}

// gemmU8ColAcc is gemmU8Col with c += instead of c =.
func gemmU8ColAcc(c []int32, a, b []uint8, k, ldc, ldb, i0, i1, j int) {
	for i := i0; i < i1; i++ {
		arow := a[i*k : (i+1)*k]
		var acc int32
		bi := j
		for _, av := range arow {
			acc += int32(av) * int32(b[bi])
			bi += ldb
		}
		c[i*ldc+j] += acc
	}
}

// gemmU8RowAcc is gemmU8Row with c += instead of c =.
func gemmU8RowAcc(c []int32, a, b []uint8, k, ldc, ldb, i, j0, j1 int) {
	arow := a[i*k : (i+1)*k]
	j := j0
	for ; j+2 <= j1; j += 2 {
		var q uint64
		bi := j
		for _, av := range arow {
			q += (uint64(b[bi]) | uint64(b[bi+1])<<32) * uint64(av)
			bi += ldb
		}
		c[i*ldc+j] += int32(uint32(q))
		c[i*ldc+j+1] += int32(q >> 32)
	}
	if j < j1 {
		var acc int32
		bi := j
		for _, av := range arow {
			acc += int32(av) * int32(b[bi])
			bi += ldb
		}
		c[i*ldc+j] += acc
	}
}
