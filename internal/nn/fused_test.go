package nn_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/nn"
	"repro/internal/tensor"
)

// TestFusedEpilogueMatchesLayerwise holds the fused convolution epilogue to
// the network walked layer by layer: for every zoo topology on every
// backend at B ∈ {1, 7, 32}, each fused softmax row must
// be Float64bits-equal to the layerwise one. The f64 reference is the same
// network with a no-op ActivationHook (a hook must see every layer, so it
// switches fusion off); the compiled references skip the fuse pass. The
// fixtures' biases are drawn nonzero first (a fresh network's are all zero,
// which would hide a dropped or misplaced bias add).
func TestFusedEpilogueMatchesLayerwise(t *testing.T) {
	rng := rand.New(rand.NewSource(89))
	for _, f := range backendFixtures(t) {
		f := f
		for _, p := range f.net.Params() {
			if p.Name == "bias" || p.Name == "beta" {
				for i := range p.Value.Data {
					p.Value.Data[i] = 0.2 * rng.NormFloat64()
				}
			}
		}
		hooked := *f.net
		hooked.ActivationHook = func(int, *tensor.T) {}
		f32, err := f.net.Compile32()
		if err != nil {
			t.Fatal(err)
		}
		f32Layerwise, err := f.net.CompileLayerwise32()
		if err != nil {
			t.Fatal(err)
		}
		i8, err := f.net.CompileInt8(f.xs[:8])
		if err != nil {
			t.Fatal(err)
		}
		i8Layerwise, err := f.net.CompileLayerwiseInt8(f.xs[:8])
		if err != nil {
			t.Fatal(err)
		}
		f64Rows := func(net *nn.Network) func([]*tensor.T) [][]float64 {
			return func(xs []*tensor.T) [][]float64 {
				rows := make([][]float64, len(xs))
				for i, p := range net.InferBatchArena(xs, tensor.NewArena()) {
					rows[i] = p.Data
				}
				return rows
			}
		}
		net32Rows := func(net *nn.Net32) func([]*tensor.T) [][]float64 {
			return func(xs []*tensor.T) [][]float64 { return net.InferBatch(xs, tensor.NewArena32()) }
		}
		backends := []struct {
			name             string
			fused, layerwise func([]*tensor.T) [][]float64
		}{
			{"f64", f64Rows(f.net), f64Rows(&hooked)},
			{"f32", net32Rows(f32), net32Rows(f32Layerwise)},
			{"int8", net32Rows(i8), net32Rows(i8Layerwise)},
		}
		for _, be := range backends {
			be := be
			t.Run(f.name+"/"+be.name, func(t *testing.T) {
				kernelLeg(t, func(t *testing.T) {
					for _, bsz := range []int{1, 7, 32} {
						got, want := be.fused(f.xs[:bsz]), be.layerwise(f.xs[:bsz])
						for i := range want {
							for c := range want[i] {
								if math.Float64bits(got[i][c]) != math.Float64bits(want[i][c]) {
									t.Fatalf("B=%d image %d class %d: fused %v != layerwise %v", bsz, i, c, got[i][c], want[i][c])
								}
							}
						}
					}
				})
			})
		}
	}
}

// TestHookedNetworkSeesEveryLayer: fusion must not hide a layer from an
// ActivationHook — a hooked batch forward calls the hook once per layer
// per image, in layer order, with that layer's output shape.
func TestHookedNetworkSeesEveryLayer(t *testing.T) {
	for _, f := range backendFixtures(t) {
		net := *f.net
		var calls []string
		net.ActivationHook = func(i int, x *tensor.T) {
			calls = append(calls, fmt.Sprint(i, x.Shape))
		}
		const bsz = 3
		net.InferBatchArena(f.xs[:bsz], nil)
		var want []string
		shape := f.xs[0].Shape
		for i, l := range net.Layers {
			var err error
			if shape, err = l.OutShape(shape); err != nil {
				t.Fatal(err)
			}
			for b := 0; b < bsz; b++ {
				want = append(want, fmt.Sprint(i, shape))
			}
		}
		if fmt.Sprint(calls) != fmt.Sprint(want) {
			t.Errorf("%s: hook calls\n%v\nwant one per layer per image\n%v", f.name, calls, want)
		}
	}
}
