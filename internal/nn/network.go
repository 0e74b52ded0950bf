package nn

import (
	"fmt"

	"repro/internal/tensor"
)

// Network is a sequential stack of layers ending in a logit vector with one
// element per class. Composite layers (ResidualBlock, DenseUnit) provide
// skip connections internally, so a sequential container suffices for every
// topology in the model zoo.
type Network struct {
	// InShape is the expected input shape, e.g. [3 32 32].
	InShape []int
	// Classes is the number of output classes.
	Classes int
	// Layers are applied in order.
	Layers []Layer

	// ActivationHook, when non-nil, is applied to the output of every layer
	// during inference (Forward with train=false). It is used by the
	// reduced-precision simulation to truncate inter-layer activations the
	// way the paper's variable-precision load/store kernels do. The hook
	// must modify x in place.
	ActivationHook func(layer int, x *tensor.T)
}

// NewNetwork validates that the layers chain correctly from inShape to a
// flat [classes] logit vector and returns the assembled network.
func NewNetwork(inShape []int, classes int, layers ...Layer) (*Network, error) {
	shape := append([]int(nil), inShape...)
	for i, l := range layers {
		out, err := l.OutShape(shape)
		if err != nil {
			return nil, fmt.Errorf("nn: layer %d (%s): %w", i, l.Name(), err)
		}
		shape = out
	}
	if len(shape) != 1 || shape[0] != classes {
		return nil, fmt.Errorf("nn: network output shape %v, want [%d]", shape, classes)
	}
	return &Network{InShape: append([]int(nil), inShape...), Classes: classes, Layers: layers}, nil
}

// MustNetwork is NewNetwork that panics on error; used by the model zoo
// builders whose topologies are fixed at compile time.
func MustNetwork(inShape []int, classes int, layers ...Layer) *Network {
	n, err := NewNetwork(inShape, classes, layers...)
	if err != nil {
		panic(err)
	}
	return n
}

// Forward runs the network and returns the logit vector. With train=true,
// layers cache state for Backward; with train=false the ActivationHook (if
// set) is applied after every layer.
func (n *Network) Forward(x *tensor.T, train bool) *tensor.T {
	h := x
	for i, l := range n.Layers {
		h = l.Forward(h, train)
		if !train && n.ActivationHook != nil {
			n.ActivationHook(i, h)
		}
	}
	return h
}

// Backward propagates the loss gradient through all layers, accumulating
// parameter gradients. It must follow a Forward with train=true.
func (n *Network) Backward(grad *tensor.T) {
	g := grad
	for i := len(n.Layers) - 1; i >= 0; i-- {
		g = n.Layers[i].Backward(g)
	}
}

// Infer runs the network on x and returns the softmax probability vector.
func (n *Network) Infer(x *tensor.T) *tensor.T {
	return Softmax(n.Forward(x, false))
}

// Predict returns the predicted class and its softmax probability.
func (n *Network) Predict(x *tensor.T) (label int, confidence float64) {
	probs := n.Infer(x)
	return probs.MaxIndex()
}

// Params returns all trainable parameters in a stable order.
func (n *Network) Params() []*Param {
	var ps []*Param
	for _, l := range n.Layers {
		ps = append(ps, l.Params()...)
	}
	return ps
}

// StateTensors returns all non-trainable state tensors (normalization
// running statistics) in a stable order, for serialization.
func (n *Network) StateTensors() []*tensor.T {
	var ts []*tensor.T
	for _, l := range n.Layers {
		if s, ok := l.(Stateful); ok {
			ts = append(ts, s.StateTensors()...)
		}
	}
	return ts
}

// NumParams returns the total number of trainable scalar parameters.
func (n *Network) NumParams() int {
	total := 0
	for _, p := range n.Params() {
		total += p.Value.Len()
	}
	return total
}

// LayerStats returns the per-layer computational footprint, in layer order,
// threading the shapes through the network.
func (n *Network) LayerStats() []Stats {
	stats := make([]Stats, 0, len(n.Layers))
	shape := n.InShape
	for _, l := range n.Layers {
		if c, ok := l.(Counter); ok {
			stats = append(stats, c.Stats(shape))
		} else {
			stats = append(stats, Stats{})
		}
		out, err := l.OutShape(shape)
		if err != nil {
			panic(fmt.Sprintf("nn: LayerStats on invalid network: %v", err))
		}
		shape = out
	}
	return stats
}
