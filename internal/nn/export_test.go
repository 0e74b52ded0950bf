package nn

import "repro/internal/tensor"

// CompileLayerwise64, CompileLayerwise32 and CompileLayerwiseInt8 compile
// without the epilogue fuse pass — one node per layer, the layer-by-layer
// reference the fused nets are held to.
func (n *Network) CompileLayerwise64() (*Net[float64], error) { return compileLayerwise[float64](n) }

func (n *Network) CompileLayerwise32() (*Net32, error) { return compileLayerwise[float32](n) }

func (n *Network) CompileLayerwiseInt8(calib []*tensor.T) (*Net32, error) {
	return n.compileInt8(calib)
}
