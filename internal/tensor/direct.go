package tensor

import (
	"encoding/binary"
	"fmt"
)

// Direct shift convolution for the int8 backend (DESIGN.md §14). im2col —
// explicit or implicit — writes every input byte KH·KW times; at the model
// zoo's 3×3 kernels that write amplification is the dominant cost of the
// whole quantized convolution, dwarfing the GEMM itself. The direct driver
// never builds patch columns at all. It copies the quantized batch once
// into a zero-point-padded buffer of channel-pair rows — row
// r = (iy+Pad)·⌈InC/2⌉ + c/2 holds channels c and c+1 of padded image row
// iy in adjacent bytes, every image of the batch laid side by side in the
// same row (an odd InC gets one zero-point channel whose weights are 0) —
// and exploits a property of that layout under stride 1: the KH·⌈InC/2⌉
// pair rows feeding output row y, ordered (kh, c/2), are exactly the
// contiguous buffer rows starting at y·⌈InC/2⌉, at constant stride, just
// window-shifted by kw. So one kernel sweep per (output row, 32 columns,
// output-channel pair) consumes the padded buffer directly, tap after tap
// in registers: the operand is the image batch itself. The weights are
// widened at compile time to dwords w[c] | w[c+1]<<16, so a vpmaddwd of
// the zero-extended pair row against a broadcast dword forms both
// channels' products of 8 columns with no shuffles, and they carry an
// extra row that is 1 on real channels, whose output is exactly the
// per-column byte sum — colsum falls out of the same sweep.
//
// The summation order over k differs from the explicit lowering's (the
// kernel column becomes the outermost split), which is exactly why this
// driver exists only for the int8 path: int32 accumulation is associative,
// every partial sum fits int32 (k ≤ MaxQuantK), so acc and colsum match
// Im2ColBatchU8 + GemmU8Into bit for bit — locked by
// TestConvDirectU8BitIdentical. The float backends keep the
// order-preserving implicit drivers instead.

// PackedConvShift is the compile-time weight layout of the direct uint8
// convolution: rows() output rows (OutC real channels, the colsum row,
// and a zero row when OutC+1 is odd), each [KW][KH·⌈InC/2⌉] dwords with
// the inner index ordered (kh, c/2) — the order the shifted window of the
// channel-pair buffer presents its rows in.
type PackedConvShift struct {
	OutC, InC, KH, KW int
	// Bits[(o·KW + kw)·KH·⌈InC/2⌉ + kh·⌈InC/2⌉ + c/2] = w(o, c, kh, kw) |
	// w(o, c+1, kh, kw)<<16 for even c and o < OutC, w the biased weight
	// of the [OutC, InC·KH·KW] conv weight matrix; the high half is 0 where
	// c+1 = InC. Row OutC holds 1 in every half of a real channel (the
	// colsum row), and the padding row is 0.
	Bits []uint32
}

// pairs is the number of channel-pair rows per padded image row.
func (p *PackedConvShift) pairs() int { return (p.InC + 1) / 2 }

// rows is the number of weight rows: OutC and the colsum row, rounded up
// to the kernels' row pairs.
func (p *PackedConvShift) rows() int { return (p.OutC + 2) &^ 1 }

// PackConvShiftU8 widens a quantized conv weight matrix (QuantWeights
// layout: [OutC, InC·KH·KW], k ordered (c, kh, kw)) into the channel-pair
// panels the direct driver consumes and appends the colsum row. Pure
// permutation plus constants: no weight changes.
func PackConvShiftU8(bits []uint8, outC, inC, kh, kw int) *PackedConvShift {
	if len(bits) != outC*inC*kh*kw {
		panic(fmt.Sprintf("tensor: PackConvShiftU8 len %d, want %d×%d×%d×%d", len(bits), outC, inC, kh, kw))
	}
	p := &PackedConvShift{OutC: outC, InC: inC, KH: kh, KW: kw}
	cp := p.pairs()
	kf := kh * cp
	p.Bits = alignedSlice[uint32](p.rows() * kw * kf)
	for o := 0; o <= outC; o++ {
		for dx := 0; dx < kw; dx++ {
			row := p.Bits[(o*kw+dx)*kf:][:kf]
			for dy := 0; dy < kh; dy++ {
				for c := 0; c < inC; c++ {
					v := uint32(1)
					if o < outC {
						v = uint32(bits[((o*inC+c)*kh+dy)*kw+dx])
					}
					row[dy*cp+c/2] |= v << (16 * (c & 1))
				}
			}
		}
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

// convDirectU8 is ConvDirectU8 on the vector kernel when simd is set and
// its pure-Go body otherwise. Its padded rows and its int32 tile are drawn
// from a and released on return.
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

	// One buffer row of 2·L bytes per (padded image row, channel pair), all
	// images of the batch concatenated: slot b occupies columns
	// [b·pw1, (b+1)·pw1). Every window a real output reads ends at or
	// before column L; the sweep's last block may overhang it by up to 31
	// columns, which the trailing slack absorbs without a bounds trap. The
	// KW-1 garbage columns at the end of each image slot (a window
	// straddling the seam into the next image's padding) land in tile
	// columns ≥ OutW and are never copied out.
	simd = simd && k > 0 // the vector kernel takes at least one step
	cp := w.pairs()
	pw1 := g.InW + 2*g.Pad
	L := bsz * pw1
	mk := a.Mark()
	buf := Raw[uint8](a, 2*(g.InH+2*g.Pad)*cp*L+64)
	fill(buf, zp)
	var zrow []uint8 // the zero-point channel of an odd InC
	if g.InC%2 != 0 {
		zrow = Raw[uint8](a, hw)
		fill(zrow, zp)
	}
	for c := 0; c < g.InC; c += 2 {
		for b := 0; b < bsz; b++ {
			s0, s1 := qsrc[b*chw+c*hw:][:hw], zrow
			if c+1 < g.InC {
				s1 = qsrc[b*chw+(c+1)*hw:][:hw]
			}
			interleave(buf[2*((g.Pad*cp+c/2)*L+b*pw1+g.Pad):], 2*cp*L, s0, s1, g.InW, simd)
		}
	}

	convDirectRows(acc, colsum, w, buf, g, pw1, L, n, simd, a)
	a.Release(mk)
}

// interleave writes the rows of w columns of the channel planes s0 and
// s1 into the pair rows of d (stride ldd bytes): d[2x] = s0[x] and
// d[2x+1] = s1[x], on the vector kernel when simd is set, else (and for
// the last w mod 8 columns) four columns per 64-bit word.
func interleave(d []uint8, ldd int, s0, s1 []uint8, w int, simd bool) {
	for r := 0; r < len(s0); r += w {
		dr, lo, hi := d[r/w*ldd:][:2*w], s0[r:][:w], s1[r:][:w]
		x := 0
		if simd && w >= 8 {
			x = w &^ 7
			interleaveU8AVX(&dr[0], &lo[0], &hi[0], x)
		}
		for ; x+4 <= w; x += 4 {
			binary.LittleEndian.PutUint64(dr[2*x:], spreadBytes(binary.LittleEndian.Uint32(lo[x:]))|spreadBytes(binary.LittleEndian.Uint32(hi[x:]))<<8)
		}
		for ; x < w; x++ {
			dr[2*x], dr[2*x+1] = lo[x], hi[x]
		}
	}
}

// spreadBytes moves byte i of v to byte 2i of the result.
func spreadBytes(v uint32) uint64 {
	x := uint64(v)
	x = (x | x<<16) & 0x0000ffff0000ffff
	return (x | x<<8) & 0x00ff00ff00ff00ff
}

// convDirectRows runs the direct convolution, every image of the batch at
// once, on the calling goroutine. Per output row it computes a tile of
// rows() × W int32, each output-channel pair in one kernel sweep over all
// taps, then scatters the real columns of the tile into acc and the colsum
// row into colsum. The sweep covers W = (bsz-1)·pw1 + ow columns: every
// real output lands in [0, W) (only the final image slot's garbage tail is
// dropped), and the last block simply overhangs W — 32 columns wide on the
// vector kernel, 4 on the Go body — into the padded tile row and the
// buffer's slack, so a bsz=1 forward (the sequential per-image decision
// path) still runs entirely on the wide kernel even when pw1 < 32. The
// tile is drawn from a; the caller releases it.
func convDirectRows(acc, colsum []int32, w *PackedConvShift, buf []uint8, g ConvGeom, pw1, L, n int, simd bool, a *Arena) {
	m, mm := w.OutC, w.rows()
	kf := w.KH * w.pairs()
	ldw := w.KW * kf
	oh, ow := g.OutH(), g.OutW()
	bsz := L / pw1
	W := (bsz-1)*pw1 + ow
	blk := 4
	if simd {
		blk = 32
	}
	lds := (W + blk - 1) / blk * blk
	t := Raw[int32](a, mm*lds)
	for y := 0; y < oh; y++ {
		view := buf[2*y*w.pairs()*L:]
		for i := 0; i < mm; i += 2 {
			if simd {
				for jj := 0; jj < W; jj += 32 {
					u8ConvTaps2x32(&w.Bits[i*ldw], ldw, &view[2*jj], 2*L, &t[i*lds+jj], lds, kf, w.KW)
				}
			} else {
				convTaps2Go(t[i*lds:], lds, w.Bits[i*ldw:], ldw, view, 2*L, kf, w.KW)
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

// convTaps2Go is the pure-Go body of u8ConvTaps2x32 on the same layout,
// over the whole tile row pair c[0:ldc], c[ldc:2·ldc] (ldc a multiple of
// 4) in 2×4 blocks. Each block carries SWAR accumulators — two int32
// lanes per uint64, columns j, j+1 in one and j+2, j+3 in the other — and
// splits each weight dword into its two channel halves, so one 64-bit
// multiply-add advances two MACs. No lane overflows or carries: every
// partial sum is non-negative and bounded by MaxQuantK·255².
func convTaps2Go(c []int32, ldc int, w []uint32, ldw int, b []uint8, ldb, kf, kw int) {
	w0, w1 := w[:kw*kf], w[ldw:][:kw*kf]
	r0, r1 := c[:ldc], c[ldc:][:ldc]
	for j := 0; j < ldc; j += 4 {
		var q00, q01, q10, q11 uint64
		for t := 0; t < kw; t++ {
			bi := 2 * (j + t)
			for s := t * kf; s < (t+1)*kf; s++ {
				x := b[bi : bi+8]
				bi += ldb
				e0 := uint64(x[0]) | uint64(x[2])<<32 // channel c, columns j, j+1
				o0 := uint64(x[1]) | uint64(x[3])<<32 // channel c+1
				e1 := uint64(x[4]) | uint64(x[6])<<32 // columns j+2, j+3
				o1 := uint64(x[5]) | uint64(x[7])<<32
				a0, b0 := uint64(w0[s]&0xffff), uint64(w0[s]>>16)
				a1, b1 := uint64(w1[s]&0xffff), uint64(w1[s]>>16)
				q00 += e0*a0 + o0*b0
				q01 += e1*a0 + o1*b0
				q10 += e0*a1 + o0*b1
				q11 += e1*a1 + o1*b1
			}
		}
		r0[j], r0[j+1], r0[j+2], r0[j+3] = int32(uint32(q00)), int32(q00>>32), int32(uint32(q01)), int32(q01>>32)
		r1[j], r1[j+1], r1[j+2], r1[j+3] = int32(uint32(q10)), int32(q10>>32), int32(uint32(q11)), int32(q11>>32)
	}
}
