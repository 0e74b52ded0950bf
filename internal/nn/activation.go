package nn

import (
	"math"

	"repro/internal/tensor"
)

// ReLU applies max(0, x) element-wise.
type ReLU struct {
	mask []bool
}

var _ Layer = (*ReLU)(nil)
var _ Counter = (*ReLU)(nil)

// NewReLU creates a ReLU activation layer.
func NewReLU() *ReLU { return &ReLU{} }

// Name implements Layer.
func (r *ReLU) Name() string { return "relu" }

// OutShape implements Layer.
func (r *ReLU) OutShape(in []int) ([]int, error) { return append([]int(nil), in...), nil }

// Forward implements Layer.
func (r *ReLU) Forward(x *tensor.T, train bool) *tensor.T {
	out := tensor.New(x.Shape...)
	var mask []bool
	if train {
		mask = make([]bool, x.Len())
	}
	for i, v := range x.Data {
		if v > 0 {
			out.Data[i] = v
			if train {
				mask[i] = true
			}
		}
	}
	if train {
		r.mask = mask
	}
	return out
}

// Backward implements Layer.
func (r *ReLU) Backward(grad *tensor.T) *tensor.T {
	if r.mask == nil {
		panic("nn: ReLU.Backward called before Forward(train=true)")
	}
	dx := tensor.New(grad.Shape...)
	for i, m := range r.mask {
		if m {
			dx.Data[i] = grad.Data[i]
		}
	}
	return dx
}

// Params implements Layer.
func (r *ReLU) Params() []*Param { return nil }

// Stats implements Counter.
func (r *ReLU) Stats(in []int) Stats { return Stats{ActElems: prodShape(in)} }

// Flatten reshapes any input to a flat vector.
type Flatten struct {
	inShape []int
}

var _ Layer = (*Flatten)(nil)
var _ Counter = (*Flatten)(nil)

// NewFlatten creates a flattening layer.
func NewFlatten() *Flatten { return &Flatten{} }

// Name implements Layer.
func (f *Flatten) Name() string { return "flatten" }

// OutShape implements Layer.
func (f *Flatten) OutShape(in []int) ([]int, error) { return []int{prodShape(in)}, nil }

// Forward implements Layer.
func (f *Flatten) Forward(x *tensor.T, train bool) *tensor.T {
	if train {
		f.inShape = append([]int(nil), x.Shape...)
	}
	return x.Reshape(x.Len())
}

// Backward implements Layer.
func (f *Flatten) Backward(grad *tensor.T) *tensor.T {
	if f.inShape == nil {
		panic("nn: Flatten.Backward called before Forward(train=true)")
	}
	return grad.Reshape(f.inShape...)
}

// Params implements Layer.
func (f *Flatten) Params() []*Param { return nil }

// Stats implements Counter.
func (f *Flatten) Stats(in []int) Stats { return Stats{} }

// Softmax converts a logit vector into a probability distribution. Numerical
// stability is obtained by subtracting the max logit before exponentiation.
// Softmax is exposed as a function rather than a Layer: training uses the
// fused softmax cross-entropy in loss.go, and inference applies Softmax to
// the final network output.
func Softmax(logits *tensor.T) *tensor.T {
	out := tensor.New(logits.Shape...)
	softmaxRow(out.Data, logits.Data)
	return out
}

// softmaxRow writes softmax(logits) into out in float64 at every logit
// width: the max-shifted exponentials, then one multiply by the inverse of
// their sum. Degenerate logits (all -Inf) fall back to uniform.
func softmaxRow[E tensor.Float](out []float64, logits []E) {
	maxV := math.Inf(-1)
	for _, v := range logits {
		if fv := float64(v); fv > maxV {
			maxV = fv
		}
	}
	sum := 0.0
	for i, v := range logits {
		e := math.Exp(float64(v) - maxV)
		out[i] = e
		sum += e
	}
	if sum == 0 {
		u := 1.0 / float64(len(out))
		for i := range out {
			out[i] = u
		}
		return
	}
	inv := 1.0 / sum
	for i := range out {
		out[i] *= inv
	}
}

// SoftmaxTemp applies temperature-scaled softmax: softmax(logits / T).
// Temperature T=1 reproduces Softmax; T>1 softens the distribution. Used by
// the calibration experiments (paper §IV-E).
func SoftmaxTemp(logits *tensor.T, temp float64) *tensor.T {
	scaled := logits.Clone()
	scaled.Scale(1 / temp)
	return Softmax(scaled)
}
