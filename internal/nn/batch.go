package nn

import (
	"fmt"
	"math"

	"repro/internal/tensor"
)

// This file implements the minibatch-fused inference path: instead of
// walking the network once per image, InferBatchArena walks it once per
// *batch*, with every layer processing all B images in one kernel call.
// Convolutions lower the whole batch with tensor.Im2ColBatch (or generate
// it block by block, tensor.ConvGemmIm2Col) and run a single
// [OutC, C*KH*KW] × [C*KH*KW, B*OH*OW] GEMM (tensor.GemmIntoFast): the
// FMA microkernel where the machine has AVX2, the pure-Go blocked GEMM
// elsewhere — the same lowering on every target.
// A convolution's epilogue absorbs the ReLU and 2×2 max-pool that follow
// it (nn/epilogue.go): one pass from the GEMM output to the next layer's
// input, unless an ActivationHook must see every layer. Dense layers
// become one [B,In] × [In,Out] matmul; the remaining element-wise, pooling
// and norm layers stream the batch buffer in one branchless pass. The
// batched activation layout is image-major: one backing tensor [B, elems]
// whose row b is image b's activation in the same [C,H,W] row-major order
// Forward uses.
//
// Floating-point contract. Batch composition never changes an image's
// output: every kernel computes each image's elements with one fixed chain
// of operations whatever the batch size, the image's position or its
// batchmates, so B=1, any split and any permutation are Float64bits-equal
// to the same image inside B=32 (TestBatchCompositionInvariant, every zoo
// topology × f64/f32/int8), and a fused epilogue is Float64bits-equal to
// the layers it absorbs run one by one (TestFusedEpilogueMatchesLayerwise).
// Against Network.Infer — the training Forward,
// which survives as the test oracle — predictions (argmax) are identical
// and softmax probabilities agree within 1e-9
// (TestInferBatchArenaMatchesInfer): the FMA GEMM fuses each ascending-k
// multiply-add where Forward rounds twice, and the Dense matmul uses
// MatMulTransBInto's unrolled dot + bias-after instead of bias-first.
//
// Like Infer, the path never mutates network state and is safe for
// concurrent use on a shared *Network; the arena (and the batchState built
// on it) is single-goroutine.

// batchState is the per-call scratch of one InferBatchArena invocation: the
// arena plus reusable per-image view headers into the current backing.
// fuse reports whether convolutions absorb the rectifier and pooling
// layers that follow them (off when an ActivationHook must see every
// layer's output).
type batchState struct {
	a     *tensor.Arena
	views []*tensor.T
	fuse  bool
}

// imageViews refreshes the reusable headers so that views[b] aliases image b
// of src under the given per-image shape. The returned slice is valid until
// the next call.
func (st *batchState) imageViews(src *tensor.T, shape []int, bsz int) []*tensor.T {
	n := prodShape(shape)
	for b := 0; b < bsz; b++ {
		v := st.views[b]
		v.Shape = append(v.Shape[:0], shape...)
		v.Data = src.Data[b*n : (b+1)*n]
	}
	return st.views[:bsz]
}

// InferBatchArena classifies a minibatch with the fused per-layer kernels
// and returns one softmax probability tensor per input, index-aligned with
// xs. All inputs must share one shape. The returned tensors are owned by
// the arena: copy anything kept before a.Reset(). A batch of one is an
// ordinary batch — it runs the same kernels, so an image's output does not
// depend on the batch it was computed in. A nil arena runs on a private one.
func (n *Network) InferBatchArena(xs []*tensor.T, a *tensor.Arena) []*tensor.T {
	bsz := len(xs)
	out := make([]*tensor.T, bsz)
	if bsz == 0 {
		return out
	}
	if a == nil {
		a = tensor.NewArena()
	}
	for _, x := range xs[1:] {
		if !x.SameShape(xs[0]) {
			panic(fmt.Sprintf("nn: InferBatchArena: mixed input shapes %v vs %v", x.Shape, xs[0].Shape))
		}
	}

	st := &batchState{a: a, views: make([]*tensor.T, bsz), fuse: n.ActivationHook == nil}
	for b := range st.views {
		st.views[b] = new(tensor.T)
	}
	shape := append([]int(nil), xs[0].Shape...)
	elems := prodShape(shape)
	cur := a.NewRaw(bsz, elems)
	for b, x := range xs {
		copy(cur.Data[b*elems:(b+1)*elems], x.Data)
	}

	for i := 0; i < len(n.Layers); i++ {
		l := n.Layers[i]
		if c, ok := l.(*Conv2D); ok && st.fuse {
			e, k := absorbed(n.Layers[i+1:], layerStage)
			cur, shape = c.forwardEpi(cur, shape, bsz, st, e)
			i += k
			continue
		}
		cur, shape = l.forwardBatchArena(cur, shape, bsz, st)
		if n.ActivationHook != nil {
			for _, v := range st.imageViews(cur, shape, bsz) {
				n.ActivationHook(i, v)
			}
		}
	}

	for b, v := range st.imageViews(cur, shape, bsz) {
		out[b] = softmaxInto(a.NewRaw(v.Shape...), v)
	}
	return out
}

// forwardBatchArena is Conv2D's batch kernel: the convolution with the
// bias-only epilogue.
func (c *Conv2D) forwardBatchArena(src *tensor.T, inShape []int, bsz int, st *batchState) (*tensor.T, []int) {
	return c.forwardEpi(src, inShape, bsz, st, 0)
}

// forwardEpi is the convolution with the epilogue stages e (a rectifier
// and/or a 2×2 max-pool absorbed from the layers that follow it; 0 for
// bias only), with the same dispatch as the f32 backend's conv32.forward.
// Every geometry takes the batched im2col route onto the GEMM (the 4×8
// FMA microkernel on AVX2 machines): one lowering (generated block by
// block inside the GEMM at batched widths), one GEMM for all images, the
// VerifyConv checksum in verified mode, then one epilogue pass that reads
// each (channel, image) plane of the GEMM's channel-major
// [OutC, B, OH*OW] output once and writes it biased, rectified and pooled
// into the next layer's image-major input.
func (c *Conv2D) forwardEpi(src *tensor.T, inShape []int, bsz int, st *batchState, e tensor.Epi) (*tensor.T, []int) {
	g := c.geometry(inShape)
	oh, ow := g.OutH(), g.OutW()
	ohw := oh * ow
	ckk := c.InC * c.KH * c.KW
	outShape := epiShape(c.OutC, oh, ow, e)

	cm := st.a.NewRaw(c.OutC, bsz*ohw)
	x := src.Data[:bsz*c.InC*g.InH*g.InW]
	if bsz*ohw >= tensor.ImplicitConvMinN {
		// Implicit GEMM: the [ckk, B*OH*OW] column matrix is generated
		// panel by panel inside the GEMM instead of being materialized —
		// bit-identical to the explicit lowering below, which wins at
		// small batch widths.
		tensor.ConvGemmIm2Col(cm, c.weight.Value, x, bsz, g)
	} else {
		cols := st.a.NewRaw(ckk, bsz*ohw)
		tensor.Im2ColBatch(cols, st.imageViews(src, inShape, bsz), g)
		tensor.GemmIntoFast(cm, c.weight.Value, cols)
	}
	if s := st.a.Abft(); s != nil {
		s.Record(tensor.VerifyConv(cm, c.weight.Value, x, bsz, g))
	}

	dst := st.a.NewRaw(bsz, prodShape(outShape))
	convEpilogue(dst.Data, cm.Data, c.bias.Value.Data, bsz, oh, ow, e)
	return dst, outShape
}

// forwardBatchArena is Dense's batch kernel: the batch is
// already a [B, In] row-major matrix, so the whole layer is one
// C = X × Wᵀ matmul plus a bias row broadcast.
func (d *Dense) forwardBatchArena(src *tensor.T, inShape []int, bsz int, st *batchState) (*tensor.T, []int) {
	if prodShape(inShape) != d.In {
		panic(fmt.Sprintf("nn: %s: batched input of %d elements, want %d", d.Name(), prodShape(inShape), d.In))
	}
	x := src.Reshape(bsz, d.In)
	dst := st.a.NewRaw(bsz, d.Out)
	tensor.MatMulTransBInto(dst, x, d.weight.Value)
	if s := st.a.Abft(); s != nil {
		s.Record(tensor.VerifyMatMulTransB(dst, x, d.weight.Value))
	}
	bias := d.bias.Value.Data
	for b := 0; b < bsz; b++ {
		row := dst.Data[b*d.Out : (b+1)*d.Out]
		for o, bv := range bias {
			row[o] += bv
		}
	}
	return dst, []int{d.Out}
}

// forwardBatchArena is ReLU's batch kernel: the epilogue kernel's
// rectify-only stage over the whole batch buffer, in place — max(v, 0) lane
// by lane, bit-identical to the builtin (a rectifier's compare on roughly
// sign-random conv outputs would mispredict about half the time). ReLUs
// that follow a convolution are absorbed into its epilogue instead.
func (r *ReLU) forwardBatchArena(src *tensor.T, inShape []int, _ int, _ *batchState) (*tensor.T, []int) {
	tensor.RectifyPool(src.Data, src.Data, 1, len(src.Data), 0, tensor.EpiReLU)
	return src, inShape
}

// forwardBatchArena is LeakyReLU's batch kernel, in place like
// ReLU. For the usual 0 ≤ α ≤ 1 the rectifier is exactly max(v, α·v) —
// branchless; other slopes keep the literal comparison.
func (l *LeakyReLU) forwardBatchArena(src *tensor.T, inShape []int, _ int, _ *batchState) (*tensor.T, []int) {
	d := src.Data
	if a := l.Alpha; a >= 0 && a <= 1 {
		for i, v := range d {
			d[i] = max(v, a*v)
		}
		return src, inShape
	}
	for i, v := range d {
		if !(v > 0) {
			d[i] = l.Alpha * v
		}
	}
	return src, inShape
}

// forwardBatchArena is Flatten's batch kernel: a pure shape
// change — the image-major backing is already flat per image.
func (f *Flatten) forwardBatchArena(src *tensor.T, inShape []int, bsz int, _ *batchState) (*tensor.T, []int) {
	return src, []int{prodShape(inShape)}
}

// forwardBatchArena is Dropout's batch kernel: inference is
// the identity.
func (d *Dropout) forwardBatchArena(src *tensor.T, inShape []int, _ int, _ *batchState) (*tensor.T, []int) {
	return src, inShape
}

// forwardBatchArena is MaxPool2D's batch kernel: the epilogue kernel's
// pool-only stage for the ubiquitous K=2 case (branchless; the data-
// dependent compare of the general kernel mispredicts constantly on conv
// activations), applied to each (image, channel) plane, and the general
// K×K kernel otherwise. 2×2 pools that follow a convolution are absorbed
// into its epilogue instead.
func (p *MaxPool2D) forwardBatchArena(src *tensor.T, inShape []int, bsz int, st *batchState) (*tensor.T, []int) {
	ch, h, w := inShape[0], inShape[1], inShape[2]
	oh, ow := h/p.K, w/p.K
	dst := st.a.NewRaw(bsz, ch*oh*ow)
	if p.K == 2 {
		rectifyPlanes(dst.Data, src.Data, bsz*ch, h, w, tensor.EpiPool)
		return dst, []int{ch, oh, ow}
	}
	in, on := ch*h*w, ch*oh*ow
	for b := 0; b < bsz; b++ {
		maxPoolInto(dst.Data[b*on:(b+1)*on], src.Data[b*in:(b+1)*in], ch, h, w, p.K)
	}
	return dst, []int{ch, oh, ow}
}

// maxPoolInto writes the K×K max-pool of one [ch,h,w] image into dst.
func maxPoolInto(dst, src []float64, ch, h, w, k int) {
	oh, ow := h/k, w/k
	for c := 0; c < ch; c++ {
		chanOff := c * h * w
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				best := math.Inf(-1)
				for ky := 0; ky < k; ky++ {
					rowOff := chanOff + (oy*k+ky)*w + ox*k
					for kx := 0; kx < k; kx++ {
						if v := src[rowOff+kx]; v > best {
							best = v
						}
					}
				}
				dst[c*oh*ow+oy*ow+ox] = best
			}
		}
	}
}

// forwardBatchArena is AvgPool2D's batch kernel (global average
// per channel).
func (p *AvgPool2D) forwardBatchArena(src *tensor.T, inShape []int, bsz int, st *batchState) (*tensor.T, []int) {
	ch, hw := inShape[0], inShape[1]*inShape[2]
	in := ch * hw
	dst := st.a.NewRaw(bsz, ch)
	for b := 0; b < bsz; b++ {
		sd := src.Data[b*in : (b+1)*in]
		dd := dst.Data[b*ch : (b+1)*ch]
		for c := 0; c < ch; c++ {
			s := 0.0
			for _, v := range sd[c*hw : (c+1)*hw] {
				s += v
			}
			dd[c] = s / float64(hw)
		}
	}
	return dst, []int{ch}
}

// forwardBatchArena is ChannelNorm's batch kernel: the per-
// channel affine is hoisted once and streamed over every image's channel
// row, using the exact per-image expression so results stay bit-identical.
func (nrm *ChannelNorm) forwardBatchArena(src *tensor.T, inShape []int, bsz int, st *batchState) (*tensor.T, []int) {
	hw := inShape[1] * inShape[2]
	in := nrm.C * hw
	dst := st.a.NewRaw(bsz, in)
	for c := 0; c < nrm.C; c++ {
		std := math.Sqrt(nrm.runVar[c] + nrm.Eps)
		g, bta, mu := nrm.gamma.Value.Data[c], nrm.beta.Value.Data[c], nrm.runMean[c]
		for b := 0; b < bsz; b++ {
			row := src.Data[b*in+c*hw : b*in+(c+1)*hw]
			orow := dst.Data[b*in+c*hw : b*in+(c+1)*hw]
			for i, v := range row {
				orow[i] = g*(v-mu)/std + bta
			}
		}
	}
	return dst, inShape
}

// forwardBatchArena is ResidualBlock's batch kernel,
// composing the batched sub-kernels; the shortcut add happens on aligned
// image-major backings.
func (b *ResidualBlock) forwardBatchArena(src *tensor.T, inShape []int, bsz int, st *batchState) (*tensor.T, []int) {
	// Without norm1 the inner rectifier directly follows conv1 and rides
	// in its epilogue.
	var e tensor.Epi
	if st.fuse && b.norm1 == nil {
		e = tensor.EpiReLU
	}
	h, hs := b.conv1.forwardEpi(src, inShape, bsz, st, e)
	if b.norm1 != nil {
		h, hs = b.norm1.forwardBatchArena(h, hs, bsz, st)
	}
	if e == 0 {
		h, hs = b.relu1.forwardBatchArena(h, hs, bsz, st)
	}
	h, hs = b.conv2.forwardBatchArena(h, hs, bsz, st)
	if b.norm2 != nil {
		h, hs = b.norm2.forwardBatchArena(h, hs, bsz, st)
	}
	shortcut := src
	if b.proj != nil {
		shortcut, _ = b.proj.forwardBatchArena(src, inShape, bsz, st)
	}
	h.AddInPlace(shortcut)
	return b.outRelu.forwardBatchArena(h, hs, bsz, st)
}

// forwardBatchArena is DenseUnit's batch kernel: batched
// branch, then a per-image channel concatenation into the new backing.
func (u *DenseUnit) forwardBatchArena(src *tensor.T, inShape []int, bsz int, st *batchState) (*tensor.T, []int) {
	branch, bs := u.conv.forwardBatchArena(src, inShape, bsz, st)
	branch, bs = u.norm.forwardBatchArena(branch, bs, bsz, st)
	branch, bs = u.relu.forwardBatchArena(branch, bs, bsz, st)

	inN := prodShape(inShape)
	brN := prodShape(bs)
	on := inN + brN
	dst := st.a.NewRaw(bsz, on)
	for b := 0; b < bsz; b++ {
		copy(dst.Data[b*on:b*on+inN], src.Data[b*inN:(b+1)*inN])
		copy(dst.Data[b*on+inN:(b+1)*on], branch.Data[b*brN:(b+1)*brN])
	}
	return dst, []int{inShape[0] + bs[0], inShape[1], inShape[2]}
}
