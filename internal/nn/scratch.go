package nn

import (
	"repro/internal/tensor"

	"math"
)

// softmaxInto writes softmax(logits) into out (same algorithm as Softmax).
func softmaxInto(out, logits *tensor.T) *tensor.T {
	_, maxV := logits.MaxIndex()
	sum := 0.0
	for i, v := range logits.Data {
		e := math.Exp(v - maxV)
		out.Data[i] = e
		sum += e
	}
	if sum == 0 {
		// Degenerate logits (all -Inf); fall back to uniform.
		u := 1.0 / float64(out.Len())
		out.Fill(u)
		return out
	}
	inv := 1.0 / sum
	for i := range out.Data {
		out.Data[i] *= inv
	}
	return out
}
