package calibrate

import "math"

// Activation-range calibration for the int8 inference backend (DESIGN.md
// §9). The int8 backend quantizes each layer's input activations with a
// per-tensor affine uint8 scheme whose scale and zero point are fixed
// offline: the network runs forward over a small calibration sample while a
// Range records the min/max each quantized layer ever sees, and AffineU8
// turns that interval into quantization parameters. This reuses the same
// package that hosts the paper's temperature-scaling baseline because both
// are offline fitting passes over held-out data; they share no state.

// Range accumulates the observed extent of a stream of activation values.
// The zero value is an empty range.
type Range struct {
	Lo, Hi float64
	seen   bool
}

// Observe widens the range to include v. NaNs are ignored so a single
// degenerate activation cannot poison the calibration.
func (r *Range) Observe(v float64) {
	if math.IsNaN(v) {
		return
	}
	if !r.seen {
		r.Lo, r.Hi, r.seen = v, v, true
		return
	}
	if v < r.Lo {
		r.Lo = v
	}
	if v > r.Hi {
		r.Hi = v
	}
}

// ObserveSlice32 widens the range over a float32 activation buffer — the
// storage format of the backend forward pass that drives calibration.
func (r *Range) ObserveSlice32(vs []float32) {
	for _, v := range vs {
		r.Observe(float64(v))
	}
}

// Empty reports whether the range has observed no values.
func (r *Range) Empty() bool { return !r.seen }

// AffineU8 converts the observed range into affine uint8 quantization
// parameters: q = round(v/scale) + zp, clamped to [0, 255]. The covered
// interval is widened to include 0 so that zero activations (ReLU output,
// convolution padding) quantize exactly to zp — a requirement of the
// zero-point correction in the int8 GEMM. An empty or degenerate range
// yields scale 1, zp 0, which round-trips an all-zero tensor exactly.
func (r *Range) AffineU8() (scale float32, zp uint8) {
	lo := math.Min(r.Lo, 0)
	hi := math.Max(r.Hi, 0)
	if r.Empty() || hi == lo || math.IsInf(lo, 0) || math.IsInf(hi, 0) {
		return 1, 0
	}
	s := (hi - lo) / 255
	z := math.Round(-lo / s)
	if z < 0 {
		z = 0
	} else if z > 255 {
		z = 255
	}
	return float32(s), uint8(z)
}
