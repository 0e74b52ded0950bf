// Package precision models the narrow floating-point representations of
// PolygraphMR's resource-aware MR (RAMR, paper §III-D). The paper modified
// Caffe's kernels to truncate values on loads and stores to a unified
// reduced precision; here the same numerical effect is obtained by rounding
// every weight once and every inter-layer activation tensor during
// inference to a configurable (sign, exponent, mantissa) format.
//
// This package is the accuracy model of RAMR: it answers "what do reduced
// bits do to decisions" for any (exp, mantissa) split, at full-precision
// speed. The executable counterpart lives in internal/nn (DESIGN.md §9):
// Network.Compile32 runs members on real float32 kernels and
// Network.CompileInt8 on 8-bit integer GEMMs, selected per member through
// core.Member.Backend — those backends actually save time, while Quantize
// below remains the reference rounding semantics that calibration and the
// precision sweeps are defined against.
package precision

import (
	"fmt"
	"math"

	"repro/internal/dataset"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// Format describes a floating-point representation with one sign bit,
// Exp exponent bits and Mantissa explicit mantissa bits.
type Format struct {
	Exp      int
	Mantissa int
}

// FromBits returns the format used by the paper's precision sweeps: a fixed
// 8-bit exponent (so dynamic range is never the bottleneck, matching the
// paper's observation that accuracy degrades through mantissa loss) and all
// remaining bits of the total assigned to the mantissa. Totals are clamped
// to [10, 64].
func FromBits(total int) Format {
	if total < 10 {
		total = 10
	}
	if total > 64 {
		total = 64
	}
	m := total - 1 - 8
	if m > 52 {
		m = 52
	}
	return Format{Exp: 8, Mantissa: m}
}

// Bits returns the total storage width of the format.
func (f Format) Bits() int { return 1 + f.Exp + f.Mantissa }

// String renders e.g. "fp17(e8m8)".
func (f Format) String() string { return fmt.Sprintf("fp%d(e%dm%d)", f.Bits(), f.Exp, f.Mantissa) }

// Validate reports an error for unrepresentable formats.
func (f Format) Validate() error {
	if f.Exp < 2 || f.Exp > 11 {
		return fmt.Errorf("precision: exponent width %d out of [2,11]", f.Exp)
	}
	if f.Mantissa < 0 || f.Mantissa > 52 {
		return fmt.Errorf("precision: mantissa width %d out of [0,52]", f.Mantissa)
	}
	return nil
}

// Quantize rounds v to the nearest representable value of the format, with
// round-to-nearest-even on the mantissa, flush-to-zero on exponent
// underflow, and saturation on overflow. NaN passes through unchanged.
func (f Format) Quantize(v float64) float64 {
	if v == 0 || math.IsNaN(v) {
		return v
	}
	if math.IsInf(v, 0) {
		return v
	}

	bits := math.Float64bits(v)
	expField := int((bits >> 52) & 0x7ff)
	if expField == 0 {
		// Float64 subnormals are far below any simulated format's range.
		return 0
	}
	e := expField - 1023

	bias := (1 << (f.Exp - 1)) - 1
	maxE := bias
	minE := 1 - bias

	// Round the mantissa to f.Mantissa bits (round-to-nearest-even). The
	// rounding may carry into the exponent; Float64frombits handles that
	// naturally because the mantissa overflow increments the exponent field.
	shift := uint(52 - f.Mantissa)
	if shift > 0 {
		half := uint64(1) << (shift - 1)
		odd := (bits >> shift) & 1
		bits += half - 1 + odd
		bits &^= (uint64(1) << shift) - 1
	}
	q := math.Float64frombits(bits)

	// Re-read the exponent after rounding for range handling.
	e = int((math.Float64bits(q)>>52)&0x7ff) - 1023
	switch {
	case e < minE:
		return 0
	case e > maxE:
		maxVal := math.Ldexp(2-math.Pow(2, -float64(f.Mantissa)), maxE)
		if q < 0 {
			return -maxVal
		}
		return maxVal
	}
	return q
}

// QuantizeTensor rounds every element of t in place.
func (f Format) QuantizeTensor(t *tensor.T) {
	for i, v := range t.Data {
		t.Data[i] = f.Quantize(v)
	}
}

// Apply converts a network to simulated reduced-precision inference: all
// weights and normalization state are quantized in place once, and an
// activation hook quantizes the output of every layer during inference —
// the equivalent of the paper's truncating load/store kernels with a
// unified precision for all layers.
//
// The network is modified; callers that need the full-precision model
// should pass a copy (model.Zoo.LogitsHooked does this automatically).
func Apply(net *nn.Network, f Format) error {
	if err := f.Validate(); err != nil {
		return err
	}
	for _, p := range net.Params() {
		f.QuantizeTensor(p.Value)
	}
	for _, st := range net.StateTensors() {
		f.QuantizeTensor(st)
	}
	net.ActivationHook = func(_ int, x *tensor.T) { f.QuantizeTensor(x) }
	return nil
}

// SweepBits is the bit-width sweep of the Fig. 6 / 10 / 11 experiments at
// a dataset profile: fine granularity in the interesting 10–20 region, then
// coarse steps up to fp32 (which needs no simulation).
func SweepBits(p dataset.Profile) []int {
	if p == dataset.Full {
		return []int{10, 11, 12, 13, 14, 15, 16, 17, 18, 20, 24, 32}
	}
	return []int{11, 12, 13, 14, 15, 16, 17, 18, 24, 32}
}
