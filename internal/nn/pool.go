package nn

import (
	"fmt"
	"math"

	"repro/internal/tensor"
)

// MaxPool2D is a non-overlapping 2-d max pooling layer over [C,H,W] inputs.
// Inputs whose spatial extent is not a multiple of the window are cropped,
// matching the common floor-division convention.
type MaxPool2D struct {
	K int // window size and stride

	inShape []int
	argmax  []int // flat input index chosen per output element
}

var _ Layer = (*MaxPool2D)(nil)
var _ Counter = (*MaxPool2D)(nil)

// NewMaxPool2D creates a max-pooling layer with a k×k window and stride k.
func NewMaxPool2D(k int) *MaxPool2D { return &MaxPool2D{K: k} }

// Name implements Layer.
func (p *MaxPool2D) Name() string { return fmt.Sprintf("maxpool%dx%d", p.K, p.K) }

// OutShape implements Layer.
func (p *MaxPool2D) OutShape(in []int) ([]int, error) {
	if len(in) != 3 {
		return nil, shapeErr(p.Name(), in, "[C H W]")
	}
	oh, ow := in[1]/p.K, in[2]/p.K
	if oh == 0 || ow == 0 {
		return nil, fmt.Errorf("nn: %s: input %v smaller than window", p.Name(), in)
	}
	return []int{in[0], oh, ow}, nil
}

// Forward implements Layer.
func (p *MaxPool2D) Forward(x *tensor.T, train bool) *tensor.T {
	ch, h, w := x.Shape[0], x.Shape[1], x.Shape[2]
	oh, ow := h/p.K, w/p.K
	out := tensor.New(ch, oh, ow)
	var arg []int
	if train {
		arg = make([]int, ch*oh*ow)
	}
	for c := 0; c < ch; c++ {
		chanOff := c * h * w
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				best := math.Inf(-1)
				bestIdx := -1
				for ky := 0; ky < p.K; ky++ {
					rowOff := chanOff + (oy*p.K+ky)*w + ox*p.K
					for kx := 0; kx < p.K; kx++ {
						if v := x.Data[rowOff+kx]; v > best {
							best = v
							bestIdx = rowOff + kx
						}
					}
				}
				oi := c*oh*ow + oy*ow + ox
				out.Data[oi] = best
				if train {
					arg[oi] = bestIdx
				}
			}
		}
	}
	if train {
		p.inShape = append([]int(nil), x.Shape...)
		p.argmax = arg
	}
	return out
}

// Backward implements Layer.
func (p *MaxPool2D) Backward(grad *tensor.T) *tensor.T {
	if p.argmax == nil {
		panic("nn: MaxPool2D.Backward called before Forward(train=true)")
	}
	dx := tensor.New(p.inShape...)
	for oi, ii := range p.argmax {
		dx.Data[ii] += grad.Data[oi]
	}
	return dx
}

// Params implements Layer.
func (p *MaxPool2D) Params() []*Param { return nil }

// Stats implements Counter.
func (p *MaxPool2D) Stats(in []int) Stats {
	oh, ow := in[1]/p.K, in[2]/p.K
	return Stats{ActElems: in[0] * oh * ow}
}
