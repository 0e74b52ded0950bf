package nn

import (
	"fmt"
	"math"
	"unsafe"

	"repro/internal/tensor"
)

// This file implements the served inference engine (DESIGN.md §7, §9): a
// Network is compiled once into a Net[E] — a list of inference-only nodes
// — and every forward pass walks those nodes over the whole batch at
// element width E. f64 members run a Net[float64], whose nodes share the
// layers' parameter slices; f32 members run a Net[float32] holding
// float32 copies; int8 members run a Net[float32] whose top-level Conv2D
// and Dense nodes are quantized (quant32.go). Each node body is written
// once, generic over E.
//
// The batched activation layout is image-major: one backing [B, elems]
// whose row b is image b's activation in the same [C,H,W] row-major order
// Forward uses. A convolution is one [OutC, C·KH·KW] × [C·KH·KW, B·OH·OW]
// product for the whole batch (tensor.Conv: the implicit GEMM at batched
// widths, im2col + FMA GEMM below), and its epilogue absorbs the ReLU and
// 2×2 max-pool that follow it, fused once at compile time (Net.fuse,
// nn/epilogue.go). A Dense layer is one [B, In] × [In, Out] product on
// the same GEMM (tensor.Dense), against the layer's weights transposed and
// zero-padded to the kernel's column block once at compile time; the
// remaining element-wise, pooling and norm nodes stream the batch backing
// in one pass.
//
// Floating-point contract. Batch composition never changes an image's
// output: every kernel computes each image's elements with one fixed chain
// of operations whatever the batch size, the image's position or its
// batchmates, so B=1, any split and any permutation are Float64bits-equal
// to the same image inside B=32 (TestBatchCompositionInvariant, every zoo
// topology × f64/f32/int8), and a fused epilogue is Float64bits-equal to
// the layers it absorbs run one by one (TestFusedEpilogueMatchesLayerwise).
// Against Network.Infer — the training Forward, which survives as the test
// oracle — a Net[float64]'s predictions (argmax) are identical and its
// softmax probabilities agree within 1e-9 (TestInferBatchArenaMatchesInfer):
// the FMA GEMM fuses each ascending-k multiply-add where Forward rounds
// twice, and the Dense product adds its bias after the product instead of
// before. float32 carries ~7 decimal digits and the zoo logits sit in
// single digits, so a Net[float32]'s rows agree with the f64 net's to
// ~1e-6 and top-1 predictions on ≥99% of inputs (the backend property
// tests). Every width's softmax runs in float64 (softmaxRow).
//
// A compiled net never mutates shared state and is safe for concurrent use
// as long as each call has its own arena; an arena is single-goroutine
// scratch.

// node is one compiled inference node. src is the image-major batch
// backing ([bsz, prod(in)]); forward returns the output backing and the
// new per-image shape, drawing temporaries from a. Every src is an
// arena-owned backing that no later node reads (InferBatch copies the
// caller's images in at entry; composite nodes keep their shortcut and
// concat inputs away from the rectifiers), so rectifiers overwrite src in
// place.
type node[E tensor.Float] interface {
	forward(src []E, in []int, bsz int, a *tensor.Arena) ([]E, []int)
}

// Net is a compiled inference network at element width E. Compile builds
// one at either width; CompileInt8 builds a Net[float32] whose Conv2D and
// Dense nodes run the uint8 quantized kernels. A Net shares no mutable
// state with other inferences: it may be used concurrently as long as each
// call has its own arena.
type Net[E tensor.Float] struct {
	InShape []int
	Classes int
	nodes   []node[E]
	// Quantized reports whether Conv2D/Dense nodes run the int8 kernels.
	Quantized bool
	// tile is the image-tile size the engine schedules this net's forwards
	// in (Tile).
	tile int
}

// Net32 is the compiled net of the f32 and int8 backends.
type Net32 = Net[float32]

// Compile compiles the network into an inference net at element width E:
// one node per layer, then the epilogue fuse pass. A Net[float64] shares
// the layers' convolution weights, biases and normalization slices, but
// folds each ChannelNorm's σ = √(var+ε) once and holds each Dense layer's
// weights as a transposed pack (tensor.PackDense); a Net[float32] holds
// float32 copies of everything. Compile again after
// training. Networks with an ActivationHook are refused: the hook contract
// is Forward's per-layer mutation, which a fused graph cannot honor.
func Compile[E tensor.Float](n *Network) (*Net[E], error) {
	net, err := compileLayerwise[E](n)
	if err != nil {
		return nil, err
	}
	net.fuse()
	net.sizeTile()
	return net, nil
}

// Compile32 is Compile[float32].
func (n *Network) Compile32() (*Net32, error) { return Compile[float32](n) }

// InferBatchArena compiles the network to a Net[float64] and runs
// InferBatch on it: a one-shot forward, under the name the benchmark
// harness times as the f64 member forward. Servers compile once (see
// core.NewSystem). The net is not sized: a one-shot forward schedules no
// tiles. It panics on a network the compiler refuses.
func (n *Network) InferBatchArena(xs []*tensor.T, a *tensor.Arena) [][]float64 {
	net, err := compileLayerwise[float64](n)
	if err != nil {
		panic(err)
	}
	net.fuse()
	return net.InferBatch(xs, a)
}

// compileLayerwise is Compile without the fuse pass: one node per layer,
// which CompileInt8's calibration walk indexes by layer.
func compileLayerwise[E tensor.Float](n *Network) (*Net[E], error) {
	if n.ActivationHook != nil {
		return nil, fmt.Errorf("nn: compile: network has an ActivationHook; the compiled inference graph cannot call it per layer")
	}
	nodes := make([]node[E], len(n.Layers))
	for i, l := range n.Layers {
		nd, err := newNode[E](l)
		if err != nil {
			return nil, err
		}
		nodes[i] = nd
	}
	return &Net[E]{InShape: append([]int(nil), n.InShape...), Classes: n.Classes, nodes: nodes}, nil
}

// newNode builds the node for one layer.
func newNode[E tensor.Float](l Layer) (node[E], error) {
	switch t := l.(type) {
	case *Conv2D:
		return newConvNode[E](t), nil
	case *Dense:
		return &denseNode[E]{w: tensor.PackDense(asWidth[E](t.weight.Value.Data), t.Out, t.In), bias: asWidth[E](t.bias.Value.Data)}, nil
	case *ReLU:
		return reluNode[E]{}, nil
	case *Flatten:
		return flattenNode[E]{}, nil
	case *MaxPool2D:
		if t.K == 2 {
			return maxPoolNode[E]{}, nil
		}
	case *ResidualBlock:
		r := &residualNode[E]{conv1: newConvNode[E](t.conv1), conv2: newConvNode[E](t.conv2)}
		if t.proj != nil {
			r.proj = newConvNode[E](t.proj)
		}
		return r, nil
	case *DenseUnit:
		return &denseUnitNode[E]{conv: newConvNode[E](t.conv), norm: newNormNode[E](t.norm)}, nil
	}
	return nil, fmt.Errorf("nn: compile: no inference node for layer type %T (%s)", l, l.Name())
}

// asWidth returns a layer's float64 parameters at width E: the slice itself
// for float64, so a Net[float64] shares the layer's memory, and a rounded
// copy (round-to-nearest-even) for float32.
func asWidth[E tensor.Float](v []float64) []E {
	if s, ok := any(v).([]E); ok {
		return s
	}
	out := make([]E, len(v))
	castInto(out, v)
	return out
}

// castInto writes src into dst at width E.
func castInto[E tensor.Float](dst []E, src []float64) {
	if d, ok := any(dst).([]float64); ok {
		copy(d, src)
		return
	}
	for i, v := range src {
		dst[i] = E(v)
	}
}

// fuse folds each convolution node's trailing ReLU and 2×2 max-pool nodes
// into its epilogue (nn/epilogue.go), and a residual block's inner
// rectifier into its first convolution. Run it last: it drops the absorbed
// nodes, so node indices no longer follow layers.
func (n *Net[E]) fuse() {
	fused := make([]node[E], 0, len(n.nodes))
	for i := 0; i < len(n.nodes); i++ {
		nd := n.nodes[i]
		var epi *tensor.Epi
		switch t := any(nd).(type) {
		case *convNode[E]:
			epi = &t.epi
		case *qconv32:
			epi = &t.epi
		case *residualNode[E]:
			t.conv1.epi = tensor.EpiReLU
		}
		for _, want := range []tensor.Epi{tensor.EpiReLU, tensor.EpiPool} {
			if epi != nil && i+1 < len(n.nodes) && stage(n.nodes[i+1]) == want {
				*epi |= want
				i++
			}
		}
		fused = append(fused, nd)
	}
	n.nodes = fused
}

// stage classifies a node for fuse: tensor.EpiReLU, tensor.EpiPool, or 0
// for a node no epilogue absorbs.
func stage[E tensor.Float](nd node[E]) tensor.Epi {
	switch any(nd).(type) {
	case reluNode[E]:
		return tensor.EpiReLU
	case maxPoolNode[E]:
		return tensor.EpiPool
	}
	return 0
}

// tileBudget is the working set, in bytes, one image tile of a forward is
// sized to. It was picked once from the table in DESIGN.md §4, which times
// each zoo topology's forward walked in tiles: this budget puts every
// row's computed tile within 10 % of its fastest.
const tileBudget = 768 << 10

// Tile is the number of images the engine runs through this net in one
// forward (core's (member, tile) units, DESIGN.md §4). Compile and
// CompileInt8 derive it once: ⌊tileBudget ÷ the per-image working set of
// the net's widest node⌋, floored at 1.
func (n *Net[E]) Tile() int { return n.tile }

// sizeTile sets the tile from one zero image walked through the nodes. A
// node's working set is its input plus everything its forward draws from
// the arena — the lowered columns where the dispatch materializes them,
// the product and the output — each at the width it is drawn at.
func (n *Net[E]) sizeTile() {
	a := tensor.NewArena()
	shape := append([]int(nil), n.InShape...)
	cur := tensor.Raw[E](a, prodShape(shape))
	clear(cur)
	widest := 1
	for _, nd := range n.nodes {
		before := a.Drawn()
		in := len(cur) * int(unsafe.Sizeof(cur[0]))
		cur, shape = nd.forward(cur, shape, 1, a)
		widest = max(widest, in+a.Drawn()-before)
	}
	n.tile = max(1, tileBudget/widest)
}

// InferBatch classifies a minibatch and returns one float64 softmax row
// per input, index-aligned with xs. Inputs are float64 tensors (the
// engine's image type), converted to E on entry; all must share one shape.
// All batch sizes including 1 take the same kernels, and an image's row is
// bit-identical whatever batch it was computed in
// (TestBatchCompositionInvariant). A nil arena runs on a private one.
func (n *Net[E]) InferBatch(xs []*tensor.T, a *tensor.Arena) [][]float64 {
	bsz := len(xs)
	out := make([][]float64, bsz)
	if bsz == 0 {
		return out
	}
	if a == nil {
		a = tensor.NewArena()
	}
	for _, x := range xs[1:] {
		if !x.SameShape(xs[0]) {
			panic(fmt.Sprintf("nn: Net.InferBatch: mixed input shapes %v vs %v", x.Shape, xs[0].Shape))
		}
	}
	shape := append([]int(nil), xs[0].Shape...)
	elems := prodShape(shape)
	cur := tensor.Raw[E](a, bsz*elems)
	for b, x := range xs {
		castInto(cur[b*elems:(b+1)*elems], x.Data)
	}
	for _, nd := range n.nodes {
		cur, shape = nd.forward(cur, shape, bsz, a)
	}
	cls := prodShape(shape)
	rows := make([]float64, bsz*cls)
	for b := range out {
		out[b] = rows[b*cls : (b+1)*cls : (b+1)*cls]
		softmaxRow(out[b], cur[b*cls:(b+1)*cls])
	}
	return out
}

// convNode is the compiled convolution: the served product (tensor.Conv)
// into arena scratch, then one epilogue pass that reads each (channel,
// image) plane of its channel-major [OutC, B, OH·OW] output once and
// writes it biased, rectified and pooled into the next node's image-major
// input.
type convNode[E tensor.Float] struct {
	g      tensor.ConvGeom // InH and InW are set per call
	outC   int
	weight []E // [OutC, InC*KH*KW]
	bias   []E // [OutC]
	// epi holds the stages the epilogue absorbed from the following nodes
	// (Net.fuse); 0 for bias only.
	epi tensor.Epi
}

func newConvNode[E tensor.Float](c *Conv2D) *convNode[E] {
	return &convNode[E]{
		g:      tensor.ConvGeom{InC: c.InC, KH: c.KH, KW: c.KW, Stride: c.Stride, Pad: c.Pad},
		outC:   c.OutC,
		weight: asWidth[E](c.weight.Value.Data),
		bias:   asWidth[E](c.bias.Value.Data),
	}
}

func (c *convNode[E]) forward(src []E, in []int, bsz int, a *tensor.Arena) ([]E, []int) {
	g := c.g
	g.InH, g.InW = in[1], in[2]
	oh, ow := g.OutH(), g.OutW()
	out := epiShape(c.outC, oh, ow, c.epi)
	cm := tensor.Raw[E](a, c.outC*bsz*oh*ow)
	tensor.Conv(cm, c.weight, src[:bsz*g.InC*g.InH*g.InW], c.outC, bsz, g, a)
	dst := tensor.Raw[E](a, bsz*prodShape(out))
	convEpilogue(dst, cm, c.bias, bsz, oh, ow, c.epi)
	return dst, out
}

// denseNode is the compiled fully connected layer: the batch is already a
// [B, In] row-major matrix, so the layer is one tensor.Dense — the served
// GEMM against the compile-time transposed weight pack, plus the bias.
type denseNode[E tensor.Float] struct {
	w    *tensor.Packed[E] // [In, LD] transpose of the [Out, In] weights
	bias []E               // [Out]
}

func (d *denseNode[E]) forward(src []E, in []int, bsz int, a *tensor.Arena) ([]E, []int) {
	if prodShape(in) != d.w.K {
		panic(fmt.Sprintf("nn: dense node: batched input of %d elements, want %d", prodShape(in), d.w.K))
	}
	dst := tensor.Raw[E](a, bsz*d.w.N)
	tensor.Dense(dst, src[:bsz*d.w.K], d.w, d.bias, bsz, a)
	return dst, []int{d.w.N}
}

// reluNode rectifies the whole batch backing in place with the epilogue
// kernel's rectify-only stage — max(v, 0) lane by lane, bit-identical to
// the builtin (a rectifier's compare on roughly sign-random conv outputs
// would mispredict about half the time). ReLUs that follow a convolution
// ride in its epilogue instead.
type reluNode[E tensor.Float] struct{}

func (reluNode[E]) forward(src []E, in []int, _ int, _ *tensor.Arena) ([]E, []int) {
	tensor.RectifyPool(src, src, 1, len(src), 0, tensor.EpiReLU)
	return src, in
}

// flattenNode is a pure shape change: the image-major backing is already
// flat per image.
type flattenNode[E tensor.Float] struct{}

func (flattenNode[E]) forward(src []E, in []int, _ int, _ *tensor.Arena) ([]E, []int) {
	return src, []int{prodShape(in)}
}

// maxPoolNode is the 2×2 MaxPool2D, the only pool the zoo builds: the
// epilogue kernel's pool-only stage (branchless; a data-dependent compare
// mispredicts constantly on conv activations), applied to each (image,
// channel) plane. 2×2 pools that follow a convolution ride in its epilogue
// instead.
type maxPoolNode[E tensor.Float] struct{}

func (maxPoolNode[E]) forward(src []E, in []int, bsz int, a *tensor.Arena) ([]E, []int) {
	ch, h, w := in[0], in[1], in[2]
	dst := tensor.Raw[E](a, bsz*ch*(h/2)*(w/2))
	rectifyPlanes(dst, src, bsz*ch, h, w, tensor.EpiPool)
	return dst, []int{ch, h / 2, w / 2}
}

// normNode is ChannelNorm's inference affine (v−μ)·γ/σ + β, per channel.
// A Net[float64] shares the layer's γ, β and running-mean slices and
// folds σ = √(var+ε) at compile time: γ·(v−μ)/σ + β, the training
// Forward's expression, bit for bit. A Net[float32] folds the whole affine
// into μ = 0, γ = γ/σ, σ = 1, β = β − γμ/σ, whose v−0 and ÷1 are exact, so
// each element costs one f32 multiply and one add of the folded terms.
type normNode[E tensor.Float] struct {
	c               int
	mu, g, sd, beta []E
}

func newNormNode[E tensor.Float](n *ChannelNorm) *normNode[E] {
	sd := make([]float64, n.C)
	for c := range sd {
		sd[c] = math.Sqrt(n.runVar[c] + n.Eps)
	}
	if _, ok := any(sd).([]E); ok {
		return &normNode[E]{c: n.C, mu: asWidth[E](n.runMean), g: asWidth[E](n.gamma.Value.Data), sd: asWidth[E](sd), beta: asWidth[E](n.beta.Value.Data)}
	}
	m := &normNode[E]{c: n.C, mu: make([]E, n.C), g: make([]E, n.C), sd: make([]E, n.C), beta: make([]E, n.C)}
	for c := range sd {
		g, beta, mu := n.gamma.Value.Data[c], n.beta.Value.Data[c], n.runMean[c]
		m.g[c], m.sd[c], m.beta[c] = E(g/sd[c]), 1, E(beta-g*mu/sd[c])
	}
	return m
}

func (n *normNode[E]) forward(src []E, in []int, bsz int, a *tensor.Arena) ([]E, []int) {
	hw := in[1] * in[2]
	dst := tensor.Raw[E](a, bsz*n.c*hw)
	for pl := 0; pl < bsz*n.c; pl++ {
		c := pl % n.c
		mu, g, sd, beta := n.mu[c], n.g[c], n.sd[c], n.beta[c]
		orow := dst[pl*hw : (pl+1)*hw]
		for i, v := range src[pl*hw : (pl+1)*hw] {
			orow[i] = (v-mu)*g/sd + beta
		}
	}
	return dst, in
}

// residualNode composes the compiled sub-nodes; the shortcut add runs on
// aligned image-major backings. The sub-convolutions always draw a new
// backing, so the in-place add never aliases the shortcut.
type residualNode[E tensor.Float] struct {
	conv1, conv2, proj *convNode[E]
}

func (r *residualNode[E]) forward(src []E, in []int, bsz int, a *tensor.Arena) ([]E, []int) {
	h, hs := r.conv1.forward(src, in, bsz, a)
	if r.conv1.epi&tensor.EpiReLU == 0 {
		h, hs = reluNode[E]{}.forward(h, hs, bsz, a)
	}
	h, hs = r.conv2.forward(h, hs, bsz, a)
	shortcut := src
	if r.proj != nil {
		shortcut, _ = r.proj.forward(src, in, bsz, a)
	}
	for i, v := range shortcut[:len(h)] {
		h[i] += v
	}
	return reluNode[E]{}.forward(h, hs, bsz, a)
}

// denseUnitNode runs the compiled growth branch (conv → norm → ReLU), then
// concatenates input and branch channels per image.
type denseUnitNode[E tensor.Float] struct {
	conv *convNode[E]
	norm *normNode[E]
}

func (u *denseUnitNode[E]) forward(src []E, in []int, bsz int, a *tensor.Arena) ([]E, []int) {
	branch, bs := u.conv.forward(src, in, bsz, a)
	branch, bs = u.norm.forward(branch, bs, bsz, a)
	branch, bs = reluNode[E]{}.forward(branch, bs, bsz, a)

	inN, brN := prodShape(in), prodShape(bs)
	on := inN + brN
	dst := tensor.Raw[E](a, bsz*on)
	for b := 0; b < bsz; b++ {
		copy(dst[b*on:b*on+inN], src[b*inN:(b+1)*inN])
		copy(dst[b*on+inN:(b+1)*on], branch[b*brN:(b+1)*brN])
	}
	return dst, []int{in[0] + bs[0], in[1], in[2]}
}
