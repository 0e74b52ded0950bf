package nn

import "repro/internal/tensor"

// Convolution epilogue fusion (DESIGN.md §7). Every zoo topology opens with
// Conv2D → ReLU → MaxPool2D(2). Rather than write the biased conv output,
// rectify it in place and pool it in a third pass, the convolution's
// epilogue absorbs the layers that follow it: it reads each (channel,
// image) plane of the GEMM output once and writes it biased, rectified and
// pooled straight into the next layer's input (tensor.RectifyPool). Every
// output is the layerwise expression chain in the layerwise order, so a
// fused forward is Float64bits-equal to the same network walked layer by
// layer (TestFusedEpilogueMatchesLayerwise). Every backend fuses once, at
// compile time, in Net.fuse.

// epiShape is the per-image output shape of a c×h×w convolution output
// after the stages e.
func epiShape(c, h, w int, e tensor.Epi) []int {
	if e&tensor.EpiPool != 0 {
		return []int{c, h / 2, w / 2}
	}
	return []int{c, h, w}
}

// convEpilogue writes the channel-major GEMM output cm ([outC, bsz·oh·ow],
// outC = len(bias)) into the image-major dst ([bsz, outC, plane]): each
// (channel, image) plane is read once, biased, and run through the stages
// e. It is the one epilogue of the float convolution node at both widths.
func convEpilogue[F tensor.Float](dst, cm, bias []F, bsz, oh, ow int, e tensor.Epi) {
	ohw := oh * ow
	plane := prodShape(epiShape(1, oh, ow, e))
	outC := len(bias)
	for oc, bv := range bias {
		crow := cm[oc*bsz*ohw : (oc+1)*bsz*ohw]
		for b := 0; b < bsz; b++ {
			d := (b*outC + oc) * plane
			tensor.RectifyPool(dst[d:d+plane], crow[b*ohw:(b+1)*ohw], oh, ow, bv, e|tensor.EpiBias)
		}
	}
}

// rectifyPlanes runs the stages e (no bias) over the n consecutive h×w
// planes of src into dst: in place when e does not pool (dst may be src),
// one pooled plane per source plane when it does. e == 0 leaves src as is.
func rectifyPlanes[F tensor.Float](dst, src []F, n, h, w int, e tensor.Epi) {
	if e == 0 {
		return
	}
	in := h * w
	if e&tensor.EpiPool == 0 {
		tensor.RectifyPool(dst[:n*in], src[:n*in], 1, n*in, 0, e)
		return
	}
	on := (h / 2) * (w / 2)
	for p := 0; p < n; p++ {
		tensor.RectifyPool(dst[p*on:(p+1)*on], src[p*in:(p+1)*in], h, w, 0, e)
	}
}
