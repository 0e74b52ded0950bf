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
// layer (TestFusedEpilogueMatchesLayerwise). The f64 path fuses at run time
// unless an ActivationHook must see every layer; compiled nets fuse once,
// in Net32.fuse.

// absorbed reports the epilogue stages a convolution takes over from the
// layers (or compiled nodes) that follow it — a ReLU, then a 2×2 max-pool,
// either optional — and how many of them that is. stage classifies one
// layer: tensor.EpiReLU, tensor.EpiPool, or 0 for anything else.
func absorbed[L any](rest []L, stage func(L) tensor.Epi) (e tensor.Epi, k int) {
	for _, want := range []tensor.Epi{tensor.EpiReLU, tensor.EpiPool} {
		if k < len(rest) && stage(rest[k]) == want {
			e |= want
			k++
		}
	}
	return e, k
}

// layerStage classifies a Layer for absorbed. LeakyReLU and other pool
// sizes stay layerwise.
func layerStage(l Layer) tensor.Epi {
	switch t := l.(type) {
	case *ReLU:
		return tensor.EpiReLU
	case *MaxPool2D:
		if t.K == 2 {
			return tensor.EpiPool
		}
	}
	return 0
}

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
// e. It is the one epilogue of both float backends' GEMM convolutions.
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
