package nn

import (
	"math/rand"
	"testing"

	"repro/internal/tensor"
)

// arenaTestNet covers every layer type with a fused batch kernel: conv,
// channel norm, relus, residual block, dense unit, both poolings, dropout,
// flatten, dense.
func arenaTestNet(rng *rand.Rand) *Network {
	return MustNetwork([]int{3, 8, 8}, 5,
		NewConv2D(3, 4, 3, 1, 1, rng),
		NewChannelNorm(4),
		NewReLU(),
		NewResidualBlock(4, 4, 1, rng),
		NewDenseUnit(4, 2, rng),
		NewMaxPool2D(2),
		NewLeakyReLU(0.1),
		NewDropout(0.3, 7),
		NewGlobalAvgPool(),
		NewFlatten(),
		NewDense(6, 5, rng),
	)
}

// TestInferBatchArenaDoesNotMutateInput guards the read-only inference
// contract the concurrency layer depends on, across every layer type.
func TestInferBatchArenaDoesNotMutateInput(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	net := arenaTestNet(rng)
	xs := make([]*tensor.T, 3)
	orig := make([][]float64, len(xs))
	for i := range xs {
		xs[i] = tensor.New(3, 8, 8)
		for j := range xs[i].Data {
			xs[i].Data[j] = rng.NormFloat64()
		}
		orig[i] = append([]float64(nil), xs[i].Data...)
	}
	net.InferBatchArena(xs, tensor.NewArena())
	for i, x := range xs {
		for j, v := range x.Data {
			if v != orig[i][j] {
				t.Fatalf("InferBatchArena mutated input %d at %d: %v -> %v", i, j, orig[i][j], v)
			}
		}
	}
}
