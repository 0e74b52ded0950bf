package nn

import (
	"fmt"
	"math/rand"

	"repro/internal/tensor"
)

// ResidualBlock is a two-convolution residual unit:
//
//	y = ReLU( conv2( ReLU(conv1(x)) ) + proj(x) )
//
// proj is the identity when the input and output shapes match, and a strided
// 1×1 convolution otherwise (the ResNet "option B" projection shortcut).
type ResidualBlock struct {
	conv1, conv2 *Conv2D
	relu1        *ReLU
	proj         *Conv2D // nil for identity shortcut
	outRelu      *ReLU

	lastSum *tensor.T
}

var _ Layer = (*ResidualBlock)(nil)
var _ Counter = (*ResidualBlock)(nil)

// NewPlainResidualBlock creates a residual block mapping inC channels to
// outC channels, downsampling spatially by stride, without normalization
// layers. The per-sample EMA normalization substitute can destabilize long
// chains of residual blocks, so the block down-scales its second conv's
// initialization instead.
func NewPlainResidualBlock(inC, outC, stride int, rng *rand.Rand) *ResidualBlock {
	b := &ResidualBlock{
		conv1:   NewConv2D(inC, outC, 3, stride, 1, rng),
		relu1:   NewReLU(),
		conv2:   NewConv2D(outC, outC, 3, 1, 1, rng),
		outRelu: NewReLU(),
	}
	// Scale down the residual branch output at init so each block starts
	// near-identity, the standard normalization-free residual trick.
	b.conv2.weight.Value.Scale(0.5)
	if inC != outC || stride != 1 {
		b.proj = NewConv2D(inC, outC, 1, stride, 0, rng)
	}
	return b
}

// Name implements Layer.
func (b *ResidualBlock) Name() string {
	return fmt.Sprintf("resblock(%d->%d,s%d)", b.conv1.InC, b.conv1.OutC, b.conv1.Stride)
}

// OutShape implements Layer.
func (b *ResidualBlock) OutShape(in []int) ([]int, error) {
	s1, err := b.conv1.OutShape(in)
	if err != nil {
		return nil, err
	}
	s2, err := b.conv2.OutShape(s1)
	if err != nil {
		return nil, err
	}
	if b.proj != nil {
		sp, err := b.proj.OutShape(in)
		if err != nil {
			return nil, err
		}
		if !shapeEq(sp, s2) {
			return nil, fmt.Errorf("nn: %s: shortcut shape %v != main path %v", b.Name(), sp, s2)
		}
	} else if !shapeEq(in, s2) {
		return nil, fmt.Errorf("nn: %s: identity shortcut shape %v != main path %v", b.Name(), in, s2)
	}
	return s2, nil
}

// Forward implements Layer.
func (b *ResidualBlock) Forward(x *tensor.T, train bool) *tensor.T {
	h := b.conv1.Forward(x, train)
	h = b.relu1.Forward(h, train)
	h = b.conv2.Forward(h, train)

	var shortcut *tensor.T
	if b.proj != nil {
		shortcut = b.proj.Forward(x, train)
	} else {
		shortcut = x
	}
	h.AddInPlace(shortcut)
	out := b.outRelu.Forward(h, train)
	if train {
		b.lastSum = h
	}
	return out
}

// Backward implements Layer.
func (b *ResidualBlock) Backward(grad *tensor.T) *tensor.T {
	g := b.outRelu.Backward(grad)
	// g is the gradient of both the main path output and the shortcut.
	dMain := b.conv2.Backward(g)
	dMain = b.relu1.Backward(dMain)
	dx := b.conv1.Backward(dMain)
	if b.proj != nil {
		dx.AddInPlace(b.proj.Backward(g))
	} else {
		dx.AddInPlace(g)
	}
	return dx
}

// Params implements Layer.
func (b *ResidualBlock) Params() []*Param {
	ps := append(b.conv1.Params(), b.conv2.Params()...)
	if b.proj != nil {
		ps = append(ps, b.proj.Params()...)
	}
	return ps
}

// Stats implements Counter.
func (b *ResidualBlock) Stats(in []int) Stats {
	s1, _ := b.conv1.OutShape(in)
	st := addStats(b.conv1.Stats(in), b.conv2.Stats(s1))
	if b.proj != nil {
		st = addStats(st, b.proj.Stats(in))
	}
	return st
}

func addStats(a, b Stats) Stats {
	return Stats{
		MACs:       a.MACs + b.MACs,
		ParamElems: a.ParamElems + b.ParamElems,
		ActElems:   a.ActElems + b.ActElems,
	}
}

// DenseUnit is a DenseNet-style growth unit: the input is passed through a
// conv-norm-ReLU branch producing `growth` new channels, and the output is
// the channel-wise concatenation [x, branch(x)].
type DenseUnit struct {
	conv *Conv2D
	norm *ChannelNorm
	relu *ReLU

	inC int
}

var _ Layer = (*DenseUnit)(nil)
var _ Counter = (*DenseUnit)(nil)

// NewDenseUnit creates a dense growth unit adding `growth` channels to inC
// input channels.
func NewDenseUnit(inC, growth int, rng *rand.Rand) *DenseUnit {
	return &DenseUnit{
		conv: NewConv2D(inC, growth, 3, 1, 1, rng),
		norm: NewChannelNorm(growth),
		relu: NewReLU(),
		inC:  inC,
	}
}

// Name implements Layer.
func (u *DenseUnit) Name() string {
	return fmt.Sprintf("denseunit(%d+%d)", u.inC, u.conv.OutC)
}

// OutShape implements Layer.
func (u *DenseUnit) OutShape(in []int) ([]int, error) {
	if len(in) != 3 || in[0] != u.inC {
		return nil, shapeErr(u.Name(), in, fmt.Sprintf("[%d H W]", u.inC))
	}
	bs, err := u.conv.OutShape(in)
	if err != nil {
		return nil, err
	}
	return []int{in[0] + bs[0], in[1], in[2]}, nil
}

// Forward implements Layer.
func (u *DenseUnit) Forward(x *tensor.T, train bool) *tensor.T {
	branch := u.conv.Forward(x, train)
	branch = u.norm.Forward(branch, train)
	branch = u.relu.Forward(branch, train)

	h, w := x.Shape[1], x.Shape[2]
	out := tensor.New(x.Shape[0]+branch.Shape[0], h, w)
	copy(out.Data[:x.Len()], x.Data)
	copy(out.Data[x.Len():], branch.Data)
	return out
}

// Backward implements Layer.
func (u *DenseUnit) Backward(grad *tensor.T) *tensor.T {
	h, w := grad.Shape[1], grad.Shape[2]
	nIn := u.inC * h * w
	dxDirect := tensor.FromSlice(append([]float64(nil), grad.Data[:nIn]...), u.inC, h, w)
	gBranch := tensor.FromSlice(append([]float64(nil), grad.Data[nIn:]...), grad.Shape[0]-u.inC, h, w)

	db := u.relu.Backward(gBranch)
	db = u.norm.Backward(db)
	db = u.conv.Backward(db)
	dxDirect.AddInPlace(db)
	return dxDirect
}

// Params implements Layer.
func (u *DenseUnit) Params() []*Param {
	return append(u.conv.Params(), u.norm.Params()...)
}

// StateTensors implements Stateful.
func (u *DenseUnit) StateTensors() []*tensor.T { return u.norm.StateTensors() }

// Stats implements Counter.
func (u *DenseUnit) Stats(in []int) Stats {
	bs, _ := u.conv.OutShape(in)
	st := addStats(u.conv.Stats(in), u.norm.Stats(bs))
	st.ActElems += prodShape(in) // concat copies the input forward
	return st
}
