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
// contract the concurrency layer depends on, across every layer type and
// on every backend (InferBatchArena and both compiled Net32s). The
// rectifiers work in place, so the networks whose first layer is a
// ReLU/LeakyReLU check that they only ever see the entry copy of the
// caller's images.
func TestInferBatchArenaDoesNotMutateInput(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	nets := []struct {
		name string
		net  *Network
	}{
		{"every-layer", arenaTestNet(rng)},
		{"relu-first", MustNetwork([]int{3, 8, 8}, 5, NewReLU(), NewFlatten(), NewDense(192, 5, rng))},
		{"leaky-first", MustNetwork([]int{3, 8, 8}, 5,
			NewLeakyReLU(0.1), NewDropout(0.3, 7), NewLeakyReLU(2), NewFlatten(), NewDense(192, 5, rng))},
	}
	xs := make([]*tensor.T, 3)
	orig := make([][]float64, len(xs))
	for i := range xs {
		xs[i] = tensor.New(3, 8, 8)
		for j := range xs[i].Data {
			xs[i].Data[j] = rng.NormFloat64()
		}
		orig[i] = append([]float64(nil), xs[i].Data...)
	}
	check := func(what string) {
		t.Helper()
		for i, x := range xs {
			for j, v := range x.Data {
				if v != orig[i][j] {
					t.Fatalf("%s mutated input %d at %d: %v -> %v", what, i, j, orig[i][j], v)
				}
			}
		}
	}
	for _, n := range nets {
		n.net.InferBatchArena(xs, tensor.NewArena())
		check(n.name + " InferBatchArena")
		net32, err := n.net.Compile32()
		if err != nil {
			t.Fatal(err)
		}
		net32.InferBatch(xs, tensor.NewArena32())
		check(n.name + " f32 InferBatch")
		net8, err := n.net.CompileInt8(xs)
		if err != nil {
			t.Fatal(err)
		}
		net8.InferBatch(xs, tensor.NewArena32())
		check(n.name + " int8 InferBatch")
	}
}
