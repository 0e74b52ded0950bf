package nn

import (
	"math/rand"
	"testing"

	"repro/internal/tensor"
)

// arenaTestNet covers every layer kind the zoo builds, in every node form
// the compiler makes of them: a conv with its ReLU fused, plain and
// projected residual blocks, a dense unit, a standalone 2×2 pool after a
// non-conv node, a standalone ReLU, flatten and dense.
func arenaTestNet(rng *rand.Rand) *Network {
	return MustNetwork([]int{3, 8, 8}, 5,
		NewConv2D(3, 4, 3, 1, 1, rng),
		NewReLU(),
		NewPlainResidualBlock(4, 4, 1, rng),
		NewPlainResidualBlock(4, 6, 2, rng),
		NewDenseUnit(6, 2, rng),
		NewMaxPool2D(2),
		NewReLU(),
		NewFlatten(),
		NewDense(32, 5, rng),
	)
}

// TestInferBatchArenaDoesNotMutateInput guards the read-only inference
// contract the concurrency layer depends on, across every layer type and
// on every backend (InferBatchArena and both compiled Net32s). The
// rectifiers work in place, so the networks whose first layer is a ReLU
// or a standalone pool check that they only ever see the entry copy of the
// caller's images.
func TestInferBatchArenaDoesNotMutateInput(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	nets := []struct {
		name string
		net  *Network
	}{
		{"every-layer", arenaTestNet(rng)},
		{"relu-first", MustNetwork([]int{3, 8, 8}, 5, NewReLU(), NewFlatten(), NewDense(192, 5, rng))},
		{"pool-first", MustNetwork([]int{3, 8, 8}, 5, NewMaxPool2D(2), NewReLU(), NewFlatten(), NewDense(48, 5, rng))},
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
