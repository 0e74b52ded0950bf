package nn

import (
	"fmt"
	"math/rand"

	"repro/internal/tensor"
)

// Conv2D is a 2-d convolution over [C,H,W] inputs implemented by im2col
// lowering followed by a matmul against a [OutC, InC*KH*KW] weight matrix.
type Conv2D struct {
	InC, OutC int
	KH, KW    int
	Stride    int
	Pad       int

	weight *Param // [OutC, InC*KH*KW]
	bias   *Param // [OutC]

	// cached state for Backward
	geom tensor.ConvGeom
	cols *tensor.T // im2col of last training input
}

var _ Layer = (*Conv2D)(nil)
var _ Counter = (*Conv2D)(nil)

// NewConv2D creates a convolution layer with He-initialized weights.
func NewConv2D(inC, outC, k, stride, pad int, rng *rand.Rand) *Conv2D {
	w := tensor.New(outC, inC*k*k)
	heInit(w, inC*k*k, rng)
	c := &Conv2D{
		InC: inC, OutC: outC, KH: k, KW: k, Stride: stride, Pad: pad,
		weight: newParam("weight", w, true),
		bias:   newParam("bias", tensor.New(outC), false),
	}
	return c
}

// Name implements Layer.
func (c *Conv2D) Name() string {
	return fmt.Sprintf("conv%dx%d(%d->%d,s%d,p%d)", c.KH, c.KW, c.InC, c.OutC, c.Stride, c.Pad)
}

// OutShape implements Layer.
func (c *Conv2D) OutShape(in []int) ([]int, error) {
	if len(in) != 3 || in[0] != c.InC {
		return nil, shapeErr(c.Name(), in, fmt.Sprintf("[%d H W]", c.InC))
	}
	g := c.geometry(in)
	if err := g.Validate(); err != nil {
		return nil, fmt.Errorf("nn: %s: %w", c.Name(), err)
	}
	return []int{c.OutC, g.OutH(), g.OutW()}, nil
}

func (c *Conv2D) geometry(in []int) tensor.ConvGeom {
	return tensor.ConvGeom{
		InC: c.InC, InH: in[1], InW: in[2],
		KH: c.KH, KW: c.KW, Stride: c.Stride, Pad: c.Pad,
	}
}

// Forward implements Layer.
func (c *Conv2D) Forward(x *tensor.T, train bool) *tensor.T {
	g := c.geometry(x.Shape)
	oh, ow := g.OutH(), g.OutW()
	cols := tensor.New(c.InC*c.KH*c.KW, oh*ow)
	tensor.Im2Col(cols, x, g)

	out := tensor.New(c.OutC, oh*ow)
	tensor.MatMulInto(out, c.weight.Value, cols)
	// Broadcast bias over each output channel row.
	for oc := 0; oc < c.OutC; oc++ {
		b := c.bias.Value.Data[oc]
		row := out.Data[oc*oh*ow : (oc+1)*oh*ow]
		for i := range row {
			row[i] += b
		}
	}
	if train {
		c.geom = g
		c.cols = cols
	}
	return out.Reshape(c.OutC, oh, ow)
}

// Backward implements Layer.
func (c *Conv2D) Backward(grad *tensor.T) *tensor.T {
	if c.cols == nil {
		panic("nn: Conv2D.Backward called before Forward(train=true)")
	}
	g := c.geom
	oh, ow := g.OutH(), g.OutW()
	g2 := grad.Reshape(c.OutC, oh*ow)

	// dW += dY × colsᵀ
	dw := tensor.New(c.OutC, c.InC*c.KH*c.KW)
	tensor.MatMulTransBInto(dw, g2, c.cols)
	c.weight.Grad.AddInPlace(dw)

	// db += row sums of dY
	for oc := 0; oc < c.OutC; oc++ {
		s := 0.0
		for _, v := range g2.Data[oc*oh*ow : (oc+1)*oh*ow] {
			s += v
		}
		c.bias.Grad.Data[oc] += s
	}

	// dX = col2im(Wᵀ × dY)
	dcols := tensor.New(c.InC*c.KH*c.KW, oh*ow)
	tensor.MatMulTransAInto(dcols, c.weight.Value, g2)
	dx := tensor.New(g.InC, g.InH, g.InW)
	tensor.Col2Im(dx, dcols, g)
	return dx
}

// Params implements Layer.
func (c *Conv2D) Params() []*Param { return []*Param{c.weight, c.bias} }

// Stats implements Counter.
func (c *Conv2D) Stats(in []int) Stats {
	g := c.geometry(in)
	outElems := c.OutC * g.OutH() * g.OutW()
	return Stats{
		MACs:       outElems * c.InC * c.KH * c.KW,
		ParamElems: c.weight.Value.Len() + c.bias.Value.Len(),
		ActElems:   outElems,
	}
}
