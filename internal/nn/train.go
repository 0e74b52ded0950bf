package nn

import (
	"fmt"
	"math/rand"

	"repro/internal/tensor"
)

// Sample is one labeled training or evaluation example.
type Sample struct {
	X     *tensor.T
	Label int
}

// TrainConfig controls the SGD training loop.
type TrainConfig struct {
	Epochs    int
	BatchSize int
	LR        float64
	// LRDecay multiplies the learning rate after every epoch (1 = constant).
	LRDecay     float64
	Momentum    float64
	WeightDecay float64
	ClipNorm    float64
	Seed        int64
	// Progress, when non-nil, receives a line per epoch.
	Progress func(epoch int, loss float64)
}

// withDefaults fills zero fields with sensible defaults.
func (c TrainConfig) withDefaults() TrainConfig {
	if c.Epochs == 0 {
		c.Epochs = 4
	}
	if c.BatchSize == 0 {
		c.BatchSize = 16
	}
	if c.LR == 0 {
		c.LR = 0.05
	}
	if c.LRDecay == 0 {
		c.LRDecay = 0.7
	}
	if c.Momentum == 0 {
		c.Momentum = 0.9
	}
	if c.ClipNorm == 0 {
		c.ClipNorm = 5
	}
	return c
}

// Train runs mini-batch SGD over the samples and returns the mean loss of
// the final epoch. The sample order is shuffled each epoch with a
// deterministic RNG derived from cfg.Seed, so training is reproducible.
func Train(net *Network, samples []Sample, cfg TrainConfig) (float64, error) {
	if len(samples) == 0 {
		return 0, fmt.Errorf("nn: Train: no samples")
	}
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	opt := NewSGD(cfg.LR, cfg.Momentum)
	opt.WeightDecay = cfg.WeightDecay
	opt.ClipNorm = cfg.ClipNorm
	params := net.Params()

	order := make([]int, len(samples))
	for i := range order {
		order[i] = i
	}

	var epochLoss float64
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		epochLoss = 0
		inBatch := 0
		for _, idx := range order {
			s := samples[idx]
			logits := net.Forward(s.X, true)
			loss, grad := SoftmaxCrossEntropy(logits, s.Label)
			epochLoss += loss
			net.Backward(grad)
			inBatch++
			if inBatch == cfg.BatchSize {
				opt.Step(params, inBatch)
				inBatch = 0
			}
		}
		if inBatch > 0 {
			opt.Step(params, inBatch)
		}
		epochLoss /= float64(len(samples))
		if cfg.Progress != nil {
			cfg.Progress(epoch, epochLoss)
		}
		opt.LR *= cfg.LRDecay
	}
	return epochLoss, nil
}

// Accuracy returns the top-1 accuracy of net over the samples.
func Accuracy(net *Network, samples []Sample) float64 {
	if len(samples) == 0 {
		return 0
	}
	correct := 0
	for _, s := range samples {
		if label, _ := net.Predict(s.X); label == s.Label {
			correct++
		}
	}
	return float64(correct) / float64(len(samples))
}

// LogitsAll runs the forward pass over all samples and returns raw logits;
// used by the calibration experiments, which re-apply temperature-scaled
// softmax.
func LogitsAll(net *Network, samples []Sample) [][]float64 {
	out := make([][]float64, len(samples))
	for i, s := range samples {
		out[i] = append([]float64(nil), net.Forward(s.X, false).Data...)
	}
	return out
}
