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
	oh, ow := g.OutH(), g.OutW()
	rows := g.InC * g.KH * g.KW
	if dst.Shape[0] != rows || dst.Shape[1] != oh*ow {
		panic(fmt.Sprintf("tensor: Im2Col dst shape %v, want [%d %d]", dst.Shape, rows, oh*ow))
	}
	if src.Len() != g.InC*g.InH*g.InW {
		panic(fmt.Sprintf("tensor: Im2Col src len %d, want %d", src.Len(), g.InC*g.InH*g.InW))
	}
	im2colImage(dst.Data, src.Data, 0, 1, g, 0)
}

// im2colImage writes image b's column block [b·OutH·OutW, (b+1)·OutH·OutW)
// of every row of the batched column matrix dd from the image's [C,H,W]
// data sd, padding with pad.
func im2colImage[E Float | uint8](dd, sd []E, b, bsz int, g ConvGeom, pad E) {
	oh, ow := g.OutH(), g.OutW()
	khw := g.KH * g.KW
	for row := 0; row < g.InC*khw; row++ {
		base := (row*bsz + b) * oh * ow
		im2colRow(dd[base:base+oh*ow], sd, row/khw*g.InH*g.InW, row%khw/g.KW, row%g.KW, oh, ow, g, pad)
	}
}

// im2colRow fills one [OutH*OutW] row of a column matrix: the input patch
// element at kernel offset (kh, kw) of channel chanOff for every output
// position, with pad where the patch hangs over the padding border (0 for
// the f64 and f32 lowerings, the zero point for the quantized one).
func im2colRow[E Float | uint8](drow, sd []E, chanOff, kh, kw, oh, ow int, g ConvGeom, pad E) {
	di := 0
	for oy := 0; oy < oh; oy++ {
		iy := oy*g.Stride + kh - g.Pad
		if iy < 0 || iy >= g.InH {
			for ox := 0; ox < ow; ox++ {
				drow[di] = pad
				di++
			}
			continue
		}
		srow := sd[chanOff+iy*g.InW : chanOff+(iy+1)*g.InW]
		ix := kw - g.Pad
		if g.Stride == 1 {
			// A stride-1 row is a contiguous gather: pad prefix where the
			// window hangs over the left border, one copy for the in-bounds
			// span, pad suffix on the right. Identical values to the
			// element loop, at memmove speed.
			pre := min(max(-ix, 0), ow)
			span := min(ix+ow, g.InW) - max(ix, 0)
			span = max(span, 0)
			for x := 0; x < pre; x++ {
				drow[di+x] = pad
			}
			copy(drow[di+pre:di+pre+span], srow[ix+pre:ix+pre+span])
			for x := di + pre + span; x < di+ow; x++ {
				drow[x] = pad
			}
			di += ow
			continue
		}
		for ox := 0; ox < ow; ox++ {
			if ix >= 0 && ix < g.InW {
				drow[di] = srow[ix]
			} else {
				drow[di] = pad
			}
			di++
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
	oh, ow := g.OutH(), g.OutW()
	ohw := oh * ow
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
		im2colImage(dst.Data, src.Data, b, bsz, g, 0)
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
	oh, ow := g.OutH(), g.OutW()
	ohw := oh * ow
	rows := g.InC * g.KH * g.KW
	chw := g.InC * g.InH * g.InW
	if dst.Shape[0] != rows || dst.Shape[1] != bsz*ohw {
		panic(fmt.Sprintf("tensor: Im2ColBatch32 dst shape %v, want [%d %d]", dst.Shape, rows, bsz*ohw))
	}
	if len(src.Data) != bsz*chw {
		panic(fmt.Sprintf("tensor: Im2ColBatch32 src len %d, want %d", len(src.Data), bsz*chw))
	}
	for b := 0; b < bsz; b++ {
		im2colImage(dst.Data, src.Data[b*chw:(b+1)*chw], b, bsz, g, 0)
	}
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
