package nn_test

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/nn"
	"repro/internal/tensor"
)

// TestFusedEpilogueMatchesLayerwise holds the fused convolution epilogue to
// the network walked layer by layer: for every zoo topology on every
// backend at B ∈ {1, 7, 32}, each fused softmax row must
// be Float64bits-equal to the layerwise one. The references are the same
// networks compiled without the fuse pass, one node per layer. The
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
		f64, err := nn.Compile[float64](f.net)
		if err != nil {
			t.Fatal(err)
		}
		f64Layerwise, err := f.net.CompileLayerwise64()
		if err != nil {
			t.Fatal(err)
		}
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
		backends := []struct {
			name             string
			fused, layerwise func([]*tensor.T, *tensor.Arena) [][]float64
		}{
			{"f64", f64.InferBatch, f64Layerwise.InferBatch},
			{"f32", f32.InferBatch, f32Layerwise.InferBatch},
			{"int8", i8.InferBatch, i8Layerwise.InferBatch},
		}
		for _, be := range backends {
			be := be
			t.Run(f.name+"/"+be.name, func(t *testing.T) {
				kernelLeg(t, func(t *testing.T) {
					for _, bsz := range []int{1, 7, 32} {
						got, want := be.fused(f.xs[:bsz], tensor.NewArena()), be.layerwise(f.xs[:bsz], tensor.NewArena())
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
