package calibrate

import (
	"math"
	"testing"
)

func TestRangeObserve(t *testing.T) {
	var r Range
	if !r.Empty() {
		t.Fatal("zero value must be empty")
	}
	r.Observe(math.NaN())
	if !r.Empty() {
		t.Fatal("NaN must not populate the range")
	}
	for _, v := range []float64{2, -3, 5} {
		r.Observe(v)
	}
	r.ObserveSlice32([]float32{4, -1})
	if r.Lo != -3 || r.Hi != 5 {
		t.Fatalf("range [%g, %g], want [-3, 5]", r.Lo, r.Hi)
	}
	r.Observe(math.NaN())
	if r.Lo != -3 || r.Hi != 5 {
		t.Fatalf("NaN widened the range to [%g, %g]", r.Lo, r.Hi)
	}
}

// TestAffineU8CoversRangeAndZero checks the quantization parameters: the
// interval [Lo, Hi] ∪ {0} maps into [0, 255] and zero maps exactly to zp.
func TestAffineU8CoversRangeAndZero(t *testing.T) {
	cases := []struct{ lo, hi float64 }{
		{0, 6.2},    // post-ReLU: non-negative
		{-1.5, 3.5}, // signed activations
		{-4, -1},    // all-negative: widened to include 0
		{0.5, 9},    // all-positive not touching 0: widened
	}
	for _, c := range cases {
		var r Range
		r.Observe(c.lo)
		r.Observe(c.hi)
		scale, zp := r.AffineU8()
		if scale <= 0 {
			t.Fatalf("[%g, %g]: scale %g must be positive", c.lo, c.hi, scale)
		}
		quant := func(v float64) float64 {
			return math.Round(v/float64(scale)) + float64(zp)
		}
		// Zero must quantize exactly to zp (within the round).
		if q := quant(0); q != float64(zp) {
			t.Errorf("[%g, %g]: zero maps to %g, want zp=%d", c.lo, c.hi, q, zp)
		}
		// Endpoints must land inside [0, 255] after rounding slack.
		for _, v := range []float64{c.lo, c.hi, 0} {
			if q := quant(v); q < -0.5 || q > 255.5 {
				t.Errorf("[%g, %g]: value %g maps to %g, outside [0,255]", c.lo, c.hi, v, q)
			}
		}
	}
}

func TestAffineU8Degenerate(t *testing.T) {
	var empty Range
	if s, z := empty.AffineU8(); s != 1 || z != 0 {
		t.Errorf("empty range: (%g, %d), want (1, 0)", s, z)
	}
	var zero Range
	zero.Observe(0)
	if s, z := zero.AffineU8(); s != 1 || z != 0 {
		t.Errorf("constant-zero range: (%g, %d), want (1, 0)", s, z)
	}
	var inf Range
	inf.Observe(math.Inf(1))
	inf.Observe(-1)
	if s, z := inf.AffineU8(); s != 1 || z != 0 {
		t.Errorf("infinite range: (%g, %d), want (1, 0)", s, z)
	}
}
