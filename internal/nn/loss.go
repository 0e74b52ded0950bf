package nn

import (
	"fmt"
	"math"

	"repro/internal/tensor"
)

// SoftmaxCrossEntropy computes the cross-entropy loss of a logit vector
// against an integer label, returning the loss and the gradient of the loss
// with respect to the logits (the fused softmax/cross-entropy gradient
// p − onehot(label)).
func SoftmaxCrossEntropy(logits *tensor.T, label int) (loss float64, grad *tensor.T) {
	if label < 0 || label >= logits.Len() {
		panic(fmt.Sprintf("nn: label %d out of range for %d classes", label, logits.Len()))
	}
	probs := Softmax(logits)
	p := probs.Data[label]
	// Clamp to avoid -Inf loss on numerically-zero probabilities.
	loss = -math.Log(math.Max(p, 1e-300))
	grad = probs
	grad.Data[label] -= 1
	return loss, grad
}
