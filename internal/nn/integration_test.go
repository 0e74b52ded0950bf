package nn

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/tensor"
)

// fourQuadrantSamples is a 4-class task (one bright quadrant per class),
// hard enough that a linear model cannot be perfect but trivial for a conv
// net — used for multi-class training integration tests.
func fourQuadrantSamples(rng *rand.Rand, n int) []Sample {
	samples := make([]Sample, n)
	for i := range samples {
		x := tensor.New(1, 8, 8)
		x.FillNormal(rng, 0.2, 0.05)
		label := i % 4
		y0, x0 := (label/2)*4, (label%2)*4
		for y := y0; y < y0+4; y++ {
			for xx := x0; xx < x0+4; xx++ {
				x.Data[y*8+xx] += 0.6
			}
		}
		samples[i] = Sample{X: x, Label: label}
	}
	return samples
}

func TestTrainFourClasses(t *testing.T) {
	rng := rand.New(rand.NewSource(100))
	net := MustNetwork([]int{1, 8, 8}, 4,
		NewConv2D(1, 6, 3, 1, 1, rng), NewReLU(), NewMaxPool2D(2),
		NewFlatten(), NewDense(6*4*4, 4, rng),
	)
	samples := fourQuadrantSamples(rng, 160)
	if _, err := Train(net, samples, TrainConfig{Epochs: 5, BatchSize: 8, LR: 0.02, Seed: 3}); err != nil {
		t.Fatal(err)
	}
	if acc := Accuracy(net, samples); acc < 0.95 {
		t.Errorf("4-class accuracy %.3f, want >= 0.95", acc)
	}
}

func TestResidualNetTrains(t *testing.T) {
	rng := rand.New(rand.NewSource(102))
	net := MustNetwork([]int{1, 8, 8}, 4,
		NewConv2D(1, 6, 3, 1, 1, rng), NewReLU(),
		NewPlainResidualBlock(6, 6, 1, rng),
		NewPlainResidualBlock(6, 8, 2, rng),
		NewFlatten(), NewDense(8*4*4, 4, rng),
	)
	samples := fourQuadrantSamples(rng, 160)
	if _, err := Train(net, samples, TrainConfig{Epochs: 6, BatchSize: 8, LR: 0.01, Seed: 4}); err != nil {
		t.Fatal(err)
	}
	if acc := Accuracy(net, samples); acc < 0.9 {
		t.Errorf("residual-net accuracy %.3f, want >= 0.9", acc)
	}
}

func TestDenseNetTrains(t *testing.T) {
	rng := rand.New(rand.NewSource(103))
	net := MustNetwork([]int{1, 8, 8}, 4,
		NewConv2D(1, 4, 3, 1, 1, rng), NewReLU(),
		NewDenseUnit(4, 4, rng),
		NewDenseUnit(8, 4, rng),
		NewMaxPool2D(2),
		NewFlatten(), NewDense(12*4*4, 4, rng),
	)
	samples := fourQuadrantSamples(rng, 160)
	if _, err := Train(net, samples, TrainConfig{Epochs: 6, BatchSize: 8, LR: 0.01, Seed: 5}); err != nil {
		t.Fatal(err)
	}
	if acc := Accuracy(net, samples); acc < 0.9 {
		t.Errorf("dense-net accuracy %.3f, want >= 0.9", acc)
	}
}

// TestLossDecreasesMonotonicallyEnough guards against optimizer regressions:
// over a well-conditioned task, epoch losses should broadly decrease.
func TestLossDecreasesMonotonicallyEnough(t *testing.T) {
	rng := rand.New(rand.NewSource(104))
	net := buildTinyNet(rng, 2)
	samples := twoBlobSamples(rng, 100)
	var losses []float64
	cfg := TrainConfig{Epochs: 6, BatchSize: 8, LR: 0.02, Seed: 6,
		Progress: func(_ int, loss float64) { losses = append(losses, loss) }}
	if _, err := Train(net, samples, cfg); err != nil {
		t.Fatal(err)
	}
	if len(losses) != 6 {
		t.Fatalf("got %d epoch losses", len(losses))
	}
	if losses[5] >= losses[0]*0.5 {
		t.Errorf("loss did not halve: %v", losses)
	}
	increases := 0
	for i := 1; i < len(losses); i++ {
		if losses[i] > losses[i-1] {
			increases++
		}
	}
	if increases > 2 {
		t.Errorf("loss increased in %d of 5 transitions: %v", increases, losses)
	}
}

// TestGradientAccumulationEquivalence: two samples accumulated then one
// step must equal the average-gradient step (the batch semantics Train
// relies on).
func TestGradientAccumulationEquivalence(t *testing.T) {
	build := func() *Network {
		r := rand.New(rand.NewSource(106))
		return MustNetwork([]int{4}, 2, NewDense(4, 2, r))
	}
	x1 := tensor.FromSlice([]float64{1, 0, -1, 0.5}, 4)
	x2 := tensor.FromSlice([]float64{0.3, -0.2, 0.8, -1}, 4)

	// Path A: accumulate both gradients, Step(batch=2).
	netA := build()
	for _, s := range []Sample{{X: x1, Label: 0}, {X: x2, Label: 1}} {
		logits := netA.Forward(s.X, true)
		_, g := SoftmaxCrossEntropy(logits, s.Label)
		netA.Backward(g)
	}
	NewSGD(0.1, 0).Step(netA.Params(), 2)

	// Path B: compute the averaged gradient by hand on a twin network.
	netB := build()
	grads := make([]*tensor.T, len(netB.Params()))
	for i, p := range netB.Params() {
		grads[i] = p.Value.ZerosLike()
	}
	for _, s := range []Sample{{X: x1, Label: 0}, {X: x2, Label: 1}} {
		logits := netB.Forward(s.X, true)
		_, g := SoftmaxCrossEntropy(logits, s.Label)
		netB.Backward(g)
	}
	for i, p := range netB.Params() {
		for j := range p.Grad.Data {
			grads[i].Data[j] = p.Grad.Data[j] / 2
		}
		p.Grad.Zero()
	}
	for i, p := range netB.Params() {
		for j, g := range grads[i].Data {
			p.Value.Data[j] -= 0.1 * g
		}
	}

	pa, pb := netA.Params(), netB.Params()
	for i := range pa {
		for j := range pa[i].Value.Data {
			if math.Abs(pa[i].Value.Data[j]-pb[i].Value.Data[j]) > 1e-12 {
				t.Fatalf("batch accumulation differs from mean gradient at param %d[%d]", i, j)
			}
		}
	}
}
