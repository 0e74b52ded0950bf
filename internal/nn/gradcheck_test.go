package nn

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/tensor"
)

// lossOf runs a forward pass through the layer stack and computes the
// cross-entropy loss against the label — the scalar function whose gradient
// the checks below validate by central differences.
func lossOf(layers []Layer, x *tensor.T, label int, train bool) float64 {
	h := x
	for _, l := range layers {
		h = l.Forward(h, train)
	}
	loss, _ := SoftmaxCrossEntropy(h, label)
	return loss
}

// backwardOf runs forward(train)+backward and returns the input gradient.
func backwardOf(layers []Layer, x *tensor.T, label int) *tensor.T {
	h := x
	for _, l := range layers {
		h = l.Forward(h, true)
	}
	_, g := SoftmaxCrossEntropy(h, label)
	for i := len(layers) - 1; i >= 0; i-- {
		g = layers[i].Backward(g)
	}
	return g
}

// checkGradients validates both input gradients and parameter gradients of a
// layer stack by central finite differences.
func checkGradients(t *testing.T, layers []Layer, x *tensor.T, label int, tol float64) {
	t.Helper()
	const eps = 1e-5

	for _, l := range layers {
		for _, p := range l.Params() {
			p.Grad.Zero()
		}
	}
	analytic := backwardOf(layers, x, label)

	// Input gradient: perturb a sample of input coordinates.
	idxs := sampleIndices(x.Len(), 12)
	for _, i := range idxs {
		orig := x.Data[i]
		x.Data[i] = orig + eps
		up := lossOf(layers, x, label, false)
		x.Data[i] = orig - eps
		down := lossOf(layers, x, label, false)
		x.Data[i] = orig
		numeric := (up - down) / (2 * eps)
		if diff := math.Abs(numeric - analytic.Data[i]); diff > tol*(1+math.Abs(numeric)) {
			t.Errorf("input grad [%d]: analytic %.6g, numeric %.6g", i, analytic.Data[i], numeric)
		}
	}

	// Parameter gradients.
	for li, l := range layers {
		for pi, p := range l.Params() {
			idxs := sampleIndices(p.Value.Len(), 8)
			for _, i := range idxs {
				orig := p.Value.Data[i]
				p.Value.Data[i] = orig + eps
				up := lossOf(layers, x, label, false)
				p.Value.Data[i] = orig - eps
				down := lossOf(layers, x, label, false)
				p.Value.Data[i] = orig
				numeric := (up - down) / (2 * eps)
				if diff := math.Abs(numeric - p.Grad.Data[i]); diff > tol*(1+math.Abs(numeric)) {
					t.Errorf("layer %d (%s) param %d (%s) grad [%d]: analytic %.6g, numeric %.6g",
						li, l.Name(), pi, p.Name, i, p.Grad.Data[i], numeric)
				}
			}
		}
	}
}

func sampleIndices(n, k int) []int {
	if n <= k {
		idxs := make([]int, n)
		for i := range idxs {
			idxs[i] = i
		}
		return idxs
	}
	rng := rand.New(rand.NewSource(99))
	seen := map[int]bool{}
	var idxs []int
	for len(idxs) < k {
		i := rng.Intn(n)
		if !seen[i] {
			seen[i] = true
			idxs = append(idxs, i)
		}
	}
	return idxs
}

func randInput(rng *rand.Rand, shape ...int) *tensor.T {
	x := tensor.New(shape...)
	x.FillNormal(rng, 0, 1)
	return x
}

func TestGradCheckDense(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	layers := []Layer{NewDense(12, 5, rng)}
	checkGradients(t, layers, randInput(rng, 12), 2, 1e-4)
}

func TestGradCheckConv(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	layers := []Layer{
		NewConv2D(2, 3, 3, 1, 1, rng),
		NewFlatten(),
		NewDense(3*6*6, 4, rng),
	}
	checkGradients(t, layers, randInput(rng, 2, 6, 6), 1, 1e-4)
}

func TestGradCheckConvStride(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	layers := []Layer{
		NewConv2D(1, 2, 3, 2, 1, rng),
		NewFlatten(),
		NewDense(2*4*4, 3, rng),
	}
	checkGradients(t, layers, randInput(rng, 1, 7, 7), 0, 1e-4)
}

func TestGradCheckReLUChain(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	layers := []Layer{
		NewDense(10, 8, rng),
		NewReLU(),
		NewDense(8, 4, rng),
	}
	checkGradients(t, layers, randInput(rng, 10), 1, 1e-4)
}

func TestGradCheckMaxPool(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	layers := []Layer{
		NewConv2D(1, 2, 3, 1, 1, rng),
		NewMaxPool2D(2),
		NewFlatten(),
		NewDense(2*3*3, 3, rng),
	}
	checkGradients(t, layers, randInput(rng, 1, 6, 6), 2, 1e-4)
}

func TestGradCheckResidualBlockIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	layers := []Layer{
		NewPlainResidualBlock(3, 3, 1, rng),
		NewFlatten(),
		NewDense(3*4*4, 3, rng),
	}
	checkGradients(t, layers, randInput(rng, 3, 4, 4), 1, 2e-2)
}

func TestGradCheckResidualBlockProjection(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	layers := []Layer{
		NewPlainResidualBlock(2, 4, 2, rng),
		NewFlatten(),
		NewDense(4*3*3, 3, rng),
	}
	checkGradients(t, layers, randInput(rng, 2, 6, 6), 0, 2e-2)
}

// TestGradCheckDenseUnit checks the one normalization a zoo topology
// builds: the ChannelNorm inside a DenseUnit's growth branch. ChannelNorm
// updates its running statistics on every train-mode forward, which
// perturbs the function between the analytic pass and the finite
// difference evaluations. The finite-difference passes use train=false,
// and the analytic pass changes stats only once before gradients are
// measured, so a slightly looser tolerance absorbs the drift.
func TestGradCheckDenseUnit(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	layers := []Layer{
		NewDenseUnit(2, 3, rng),
		NewFlatten(),
		NewDense(5*4*4, 3, rng),
	}
	checkGradients(t, layers, randInput(rng, 2, 4, 4), 1, 2e-2)
}

func TestGradCheckChannelNorm(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	layers := []Layer{
		NewChannelNorm(2),
		NewFlatten(),
		NewDense(2*4*4, 3, rng),
	}
	checkGradients(t, layers, randInput(rng, 2, 4, 4), 1, 2e-2)
}
