package precision

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/dataset"
	"repro/internal/nn"
	"repro/internal/tensor"
)

func TestFromBits(t *testing.T) {
	tests := []struct {
		total, wantBits, wantMant int
	}{
		{32, 32, 23},
		{17, 17, 8},
		{14, 14, 5},
		{10, 10, 1},
		{5, 10, 1},   // clamped up
		{80, 64, 52}, // clamped down (mantissa capped at float64's 52)
	}
	for _, tt := range tests {
		f := FromBits(tt.total)
		if f.Mantissa != tt.wantMant {
			t.Errorf("FromBits(%d).Mantissa = %d, want %d", tt.total, f.Mantissa, tt.wantMant)
		}
	}
	if FromBits(32).String() != "fp32(e8m23)" {
		t.Errorf("String = %s", FromBits(32).String())
	}
}

func TestValidate(t *testing.T) {
	if err := (Format{Exp: 8, Mantissa: 23}).Validate(); err != nil {
		t.Error(err)
	}
	if err := (Format{Exp: 1, Mantissa: 23}).Validate(); err == nil {
		t.Error("tiny exponent accepted")
	}
	if err := (Format{Exp: 8, Mantissa: 60}).Validate(); err == nil {
		t.Error("oversized mantissa accepted")
	}
}

func TestQuantizeExactValues(t *testing.T) {
	f := Format{Exp: 8, Mantissa: 8}
	// Powers of two and short dyadics are exactly representable.
	for _, v := range []float64{0, 1, -1, 0.5, 2, -4, 0.25, 1.5, 3.75} {
		if got := f.Quantize(v); got != v {
			t.Errorf("Quantize(%v) = %v; should be exact", v, got)
		}
	}
}

func TestQuantizeRounding(t *testing.T) {
	// With 2 mantissa bits, representable values near 1 are 1, 1.25, 1.5...
	f := Format{Exp: 8, Mantissa: 2}
	tests := []struct{ in, want float64 }{
		{1.1, 1.0},
		{1.2, 1.25},
		{1.124, 1.0},  // just below the 1.125 midpoint
		{1.126, 1.25}, // just above
		{1.125, 1.0},  // midpoint: round to even (1.0 has even mantissa 00)
	}
	for _, tt := range tests {
		if got := f.Quantize(tt.in); got != tt.want {
			t.Errorf("Quantize(%v) = %v, want %v", tt.in, got, tt.want)
		}
	}
}

func TestQuantizeRangeHandling(t *testing.T) {
	f := Format{Exp: 4, Mantissa: 4} // bias 7: max exp 7, min -6
	// Overflow saturates to the max representable magnitude.
	maxVal := math.Ldexp(2-math.Pow(2, -4), 7)
	if got := f.Quantize(1e6); got != maxVal {
		t.Errorf("overflow: %v, want %v", got, maxVal)
	}
	if got := f.Quantize(-1e6); got != -maxVal {
		t.Errorf("negative overflow: %v", got)
	}
	// Underflow flushes to zero.
	if got := f.Quantize(1e-8); got != 0 {
		t.Errorf("underflow: %v, want 0", got)
	}
	// NaN and Inf pass through.
	if got := f.Quantize(math.NaN()); !math.IsNaN(got) {
		t.Error("NaN not preserved")
	}
	if got := f.Quantize(math.Inf(1)); !math.IsInf(got, 1) {
		t.Error("Inf not preserved")
	}
}

// Property: quantization is idempotent and error is bounded by half an ulp.
func TestQuickQuantizeProperties(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		fmt := Format{Exp: 8, Mantissa: 3 + rng.Intn(20)}
		for i := 0; i < 50; i++ {
			v := (rng.Float64()*2 - 1) * math.Pow(10, float64(rng.Intn(6)-3))
			q := fmt.Quantize(v)
			if fmt.Quantize(q) != q {
				return false // not idempotent
			}
			if v != 0 && q != 0 {
				relErr := math.Abs(q-v) / math.Abs(v)
				if relErr > math.Pow(2, -float64(fmt.Mantissa)) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestQuantizeMonotonicity(t *testing.T) {
	f := Format{Exp: 8, Mantissa: 4}
	prev := math.Inf(-1)
	for v := -2.0; v <= 2.0; v += 0.001 {
		q := f.Quantize(v)
		if q < prev {
			t.Fatalf("quantization not monotone at %v: %v < %v", v, q, prev)
		}
		prev = q
	}
}

func TestApplyToNetwork(t *testing.T) {
	rng := rand.New(rand.NewSource(60))
	net := nn.MustNetwork([]int{1, 8, 8}, 3,
		nn.NewConv2D(1, 4, 3, 1, 1, rng), nn.NewReLU(), nn.NewMaxPool2D(2),
		nn.NewFlatten(), nn.NewDense(4*4*4, 3, rng),
	)
	x := tensor.New(1, 8, 8)
	x.FillNormal(rng, 0.5, 0.2)
	full := net.Infer(x).Clone()

	if err := Apply(net, FromBits(12)); err != nil {
		t.Fatal(err)
	}
	// Weights must all be representable now (idempotent under quantization).
	f := FromBits(12)
	for _, p := range net.Params() {
		for _, v := range p.Value.Data {
			if f.Quantize(v) != v {
				t.Fatal("weight not quantized")
			}
		}
	}
	low := net.Infer(x)
	diff := 0.0
	for i := range low.Data {
		diff += math.Abs(low.Data[i] - full.Data[i])
	}
	if diff == 0 {
		t.Error("12-bit inference identical to fp64; quantization had no effect")
	}
	// Probabilities must remain a valid distribution.
	if math.Abs(low.Sum()-1) > 1e-9 {
		t.Errorf("quantized softmax sums to %v", low.Sum())
	}

	if err := Apply(net, Format{Exp: 1, Mantissa: 1}); err == nil {
		t.Error("invalid format accepted")
	}
}

func TestAccuracyDegradesGracefully(t *testing.T) {
	// A trained tiny net should keep its predictions at 16+ bits and lose
	// fidelity only at very low widths.
	rng := rand.New(rand.NewSource(61))
	build := func() *nn.Network {
		r := rand.New(rand.NewSource(62))
		return nn.MustNetwork([]int{1, 8, 8}, 2,
			nn.NewConv2D(1, 4, 3, 1, 1, r), nn.NewReLU(), nn.NewMaxPool2D(2),
			nn.NewFlatten(), nn.NewDense(4*4*4, 2, r),
		)
	}
	samples := make([]nn.Sample, 60)
	for i := range samples {
		x := tensor.New(1, 8, 8)
		x.FillNormal(rng, 0.4, 0.1)
		label := i % 2
		if label == 1 {
			for j := 0; j < 32; j++ {
				x.Data[j] += 0.5
			}
		}
		samples[i] = nn.Sample{X: x, Label: label}
	}
	ref := build()
	if _, err := nn.Train(ref, samples, nn.TrainConfig{Epochs: 3, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	refAcc := nn.Accuracy(ref, samples)

	for _, bits := range []int{32, 16} {
		net := build()
		// Copy trained weights.
		src, dst := ref.Params(), net.Params()
		for i := range src {
			copy(dst[i].Value.Data, src[i].Value.Data)
		}
		if err := Apply(net, FromBits(bits)); err != nil {
			t.Fatal(err)
		}
		acc := nn.Accuracy(net, samples)
		if acc < refAcc-0.05 {
			t.Errorf("bits=%d accuracy %.3f dropped far below fp64 %.3f", bits, acc, refAcc)
		}
	}
}

func TestSweepBits(t *testing.T) {
	for _, p := range []dataset.Profile{dataset.Fast, dataset.Full} {
		bits := SweepBits(p)
		if bits[0] < 10 || bits[len(bits)-1] != 32 {
			t.Errorf("SweepBits(%v) = %v", p, bits)
		}
		for i := 1; i < len(bits); i++ {
			if bits[i] <= bits[i-1] {
				t.Errorf("SweepBits(%v) not increasing", p)
			}
		}
	}
}
