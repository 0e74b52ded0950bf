package tensor

import "fmt"

// ConvGeom describes the geometry of a 2-d convolution over a [C,H,W] input.
type ConvGeom struct {
	InC, InH, InW int // input channels and spatial extent
	KH, KW        int // kernel height and width
	Stride        int // stride in both dimensions
	Pad           int // zero padding in both dimensions
}

// OutH returns the output height of the convolution.
func (g ConvGeom) OutH() int { return (g.InH+2*g.Pad-g.KH)/g.Stride + 1 }

// OutW returns the output width of the convolution.
func (g ConvGeom) OutW() int { return (g.InW+2*g.Pad-g.KW)/g.Stride + 1 }

// Validate reports an error if the geometry is degenerate.
func (g ConvGeom) Validate() error {
	switch {
	case g.InC <= 0 || g.InH <= 0 || g.InW <= 0:
		return fmt.Errorf("tensor: invalid conv input dims C=%d H=%d W=%d", g.InC, g.InH, g.InW)
	case g.KH <= 0 || g.KW <= 0:
		return fmt.Errorf("tensor: invalid conv kernel %dx%d", g.KH, g.KW)
	case g.Stride <= 0:
		return fmt.Errorf("tensor: invalid conv stride %d", g.Stride)
	case g.Pad < 0:
		return fmt.Errorf("tensor: invalid conv pad %d", g.Pad)
	case g.OutH() <= 0 || g.OutW() <= 0:
		return fmt.Errorf("tensor: conv output is empty for geometry %+v", g)
	}
	return nil
}

// Im2Col lowers a [C,H,W] input into a [C*KH*KW, OutH*OutW] matrix so that a
// convolution becomes a single matmul with a [OutC, C*KH*KW] weight matrix.
// dst must have shape [C*KH*KW, OutH*OutW]; it is fully overwritten.
func Im2Col(dst, src *T, g ConvGeom) {
	ohw := g.OutH() * g.OutW()
	rows := g.InC * g.KH * g.KW
	if dst.Shape[0] != rows || dst.Shape[1] != ohw {
		panic(fmt.Sprintf("tensor: Im2Col dst shape %v, want [%d %d]", dst.Shape, rows, ohw))
	}
	if src.Len() != g.InC*g.InH*g.InW {
		panic(fmt.Sprintf("tensor: Im2Col src len %d, want %d", src.Len(), g.InC*g.InH*g.InW))
	}
	im2colBlock(dst.Data, src.Data, g, 0, rows, 0, ohw, ohw, 0)
}

// im2colBlock writes rows [p0, p0+kc) × columns [j0, j0+jw) of the batched
// [InC·KH·KW, B·OutH·OutW] im2col matrix of src, a packed image-major batch
// (image b owns columns [b·OutH·OutW, (b+1)·OutH·OutW)), into blk: block
// row p at blk[p·ldb:p·ldb+jw]. Padding positions take pad — 0 for the
// float lowerings, the zero point for the quantized one. It is the one
// column generator: the explicit lowering (the whole matrix at once), the
// implicit drivers' panels and the ABFT verifiers' strided rows and
// repaired columns all run it, and only the copy strategy depends on the
// geometry.
func im2colBlock[E Float | uint8](blk, src []E, g ConvGeom, p0, kc, j0, jw, ldb int, pad E) {
	ohw := g.OutH() * g.OutW()
	hw := g.InH * g.InW
	khw := g.KH * g.KW
	merge := g.Stride == 1 && g.OutW() == g.InW
	for p := 0; p < kc; p++ {
		r := p0 + p
		c, kh, kw := r/khw, r%khw/g.KW, r%g.KW
		drow := blk[p*ldb : p*ldb+jw]
		// One image's run of the block's columns at a time.
		for d := 0; d < jw; {
			b, q := (j0+d)/ohw, (j0+d)%ohw
			seg := drow[d:min(jw, d+ohw-q)]
			plane := src[(b*g.InC+c)*hw : (b*g.InC+c+1)*hw]
			if merge {
				im2colBand(seg, plane, q, kh, kw, g, pad)
			} else {
				im2colRows(seg, plane, q, kh, kw, g, pad)
			}
			d += len(seg)
		}
	}
}

// im2colBand is the row merge: it fills dst with the columns q0, q0+1, …
// of one image's (channel, kh, kw) row, plane being that channel of the
// image, for a stride-1 convolution with OutW == InW. There output
// position q = oy·InW+ox reads plane[q+off] with one offset off for every
// in-bounds output row, so those rows are one copy. The copy takes the
// |kw−Pad| columns at the edge of each output row from the neighbouring
// input row, where the window hangs over the padding border; they are set
// to pad afterwards.
func im2colBand[E Float | uint8](dst, plane []E, q0, kh, kw int, g ConvGeom, pad E) {
	w := g.InW
	q1 := q0 + len(dst)
	// [lo, hi): the output rows whose input row oy+kh−Pad is in the plane.
	lo := min(max((g.Pad-kh)*w, q0), q1)
	hi := min(max((g.InH+g.Pad-kh)*w, lo), q1)
	fill(dst[:lo-q0], pad)
	fill(dst[hi-q0:], pad)
	s := kw - g.Pad
	off := (kh-g.Pad)*w + s
	// Positions whose source falls outside the plane are edge columns.
	if a, e := max(lo, -off), min(hi, len(plane)-off); a < e {
		copy(dst[a-q0:e-q0], plane[a+off:e+off])
	}
	if s == 0 {
		return
	}
	nw := min(max(s, -s), w)
	x0 := 0 // s < 0: the first -s columns of each output row
	if s > 0 {
		x0 = w - nw // s > 0: the last s
	}
	for row := lo - lo%w; row < hi; row += w {
		for q, e := max(row+x0, lo), min(row+x0+nw, hi); q < e; q++ {
			dst[q-q0] = pad
		}
	}
}

// im2colRows fills dst with the columns q0, q0+1, … of one image's
// (channel, kh, kw) row like im2colBand, for any geometry, one output row
// at a time: pad where the row hangs over the top or bottom border, else
// at stride 1 a left pad, one copy and a right pad, and at larger strides
// an element loop.
func im2colRows[E Float | uint8](dst, plane []E, q0, kh, kw int, g ConvGeom, pad E) {
	ow := g.OutW()
	oy, ox := q0/ow, q0%ow
	for d := 0; d < len(dst); oy, ox = oy+1, 0 {
		seg := dst[d:min(len(dst), d+ow-ox)]
		d += len(seg)
		iy := oy*g.Stride + kh - g.Pad
		if iy < 0 || iy >= g.InH {
			fill(seg, pad)
			continue
		}
		srow := plane[iy*g.InW : (iy+1)*g.InW]
		ix := ox*g.Stride + kw - g.Pad
		if g.Stride == 1 {
			pre := min(max(-ix, 0), len(seg))
			span := max(min(ix+len(seg), g.InW)-max(ix, 0), 0)
			fill(seg[:pre], pad)
			if span > 0 {
				copy(seg[pre:pre+span], srow[ix+pre:])
			}
			fill(seg[pre+span:], pad)
			continue
		}
		for x := range seg {
			if ix >= 0 && ix < g.InW {
				seg[x] = srow[ix]
			} else {
				seg[x] = pad
			}
			ix += g.Stride
		}
	}
}

// Im2ColBatch lowers a minibatch of same-shaped [C,H,W] images into one
// [C*KH*KW, B*OutH*OutW] column matrix. Image b owns the contiguous column
// block [b*OutH*OutW, (b+1)*OutH*OutW), so row r of dst is the concatenation
// of row r of Im2Col(srcs[0]) … Im2Col(srcs[B-1]), bit-exactly, and the
// convolution of the whole batch becomes a single
// [OutC, C*KH*KW] × [C*KH*KW, B*OutH*OutW] matmul. Served convolutions
// lower inside Conv; this tensor-typed entry serves the benchmark kernel
// probe and the tests. dst is fully overwritten.
func Im2ColBatch(dst *T, srcs []*T, g ConvGeom) {
	bsz := len(srcs)
	ohw := g.OutH() * g.OutW()
	rows := g.InC * g.KH * g.KW
	if dst.Shape[0] != rows || dst.Shape[1] != bsz*ohw {
		panic(fmt.Sprintf("tensor: Im2ColBatch dst shape %v, want [%d %d]", dst.Shape, rows, bsz*ohw))
	}
	for _, src := range srcs {
		if src.Len() != g.InC*g.InH*g.InW {
			panic(fmt.Sprintf("tensor: Im2ColBatch src len %d, want %d", src.Len(), g.InC*g.InH*g.InW))
		}
	}
	for b, src := range srcs {
		im2colBlock(dst.Data[b*ohw:], src.Data, g, 0, rows, 0, ohw, bsz*ohw, 0)
	}
}

// Im2ColBatch32 is the float32 batched lowering, kept for the benchmark
// kernel probe (the served f32 convolution lowers inside Conv). Unlike
// Im2ColBatch it takes the batch as one packed image-major tensor
// ([bsz, InC*InH*InW] row-major) rather than a slice of per-image tensors. Row r
// of dst is laid out exactly like Im2ColBatch's: image b owns the
// contiguous column block [b*OutH*OutW, (b+1)*OutH*OutW). dst is fully
// overwritten.
func Im2ColBatch32(dst, src *T32, bsz int, g ConvGeom) {
	n := bsz * g.OutH() * g.OutW()
	rows := g.InC * g.KH * g.KW
	chw := g.InC * g.InH * g.InW
	if dst.Shape[0] != rows || dst.Shape[1] != n {
		panic(fmt.Sprintf("tensor: Im2ColBatch32 dst shape %v, want [%d %d]", dst.Shape, rows, n))
	}
	if len(src.Data) != bsz*chw {
		panic(fmt.Sprintf("tensor: Im2ColBatch32 src len %d, want %d", len(src.Data), bsz*chw))
	}
	im2colBlock(dst.Data, src.Data, g, 0, rows, 0, n, n, 0)
}

// Col2Im scatters a [C*KH*KW, OutH*OutW] column matrix back onto a [C,H,W]
// image, accumulating overlapping contributions. dst is zeroed first. This is
// the adjoint of Im2Col and is used by the convolution input-gradient pass.
func Col2Im(dst, cols *T, g ConvGeom) {
	oh, ow := g.OutH(), g.OutW()
	rows := g.InC * g.KH * g.KW
	if cols.Shape[0] != rows || cols.Shape[1] != oh*ow {
		panic(fmt.Sprintf("tensor: Col2Im cols shape %v, want [%d %d]", cols.Shape, rows, oh*ow))
	}
	if dst.Len() != g.InC*g.InH*g.InW {
		panic(fmt.Sprintf("tensor: Col2Im dst len %d, want %d", dst.Len(), g.InC*g.InH*g.InW))
	}
	dst.Zero()
	dd, cd := dst.Data, cols.Data
	row := 0
	for c := 0; c < g.InC; c++ {
		chanOff := c * g.InH * g.InW
		for kh := 0; kh < g.KH; kh++ {
			for kw := 0; kw < g.KW; kw++ {
				crow := cd[row*oh*ow : (row+1)*oh*ow]
				ci := 0
				for oy := 0; oy < oh; oy++ {
					iy := oy*g.Stride + kh - g.Pad
					if iy < 0 || iy >= g.InH {
						ci += ow
						continue
					}
					base := chanOff + iy*g.InW
					ix := kw - g.Pad
					for ox := 0; ox < ow; ox++ {
						if ix >= 0 && ix < g.InW {
							dd[base+ix] += crow[ci]
						}
						ci++
						ix += g.Stride
					}
				}
				row++
			}
		}
	}
}
