package preprocess

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/tensor"
)

func randImage(seed int64, c, h, w int) *tensor.T {
	rng := rand.New(rand.NewSource(seed))
	x := tensor.New(c, h, w)
	for i := range x.Data {
		x.Data[i] = rng.Float64()
	}
	return x
}

func all() []Preprocessor {
	return append(Candidates(), Identity{})
}

func TestAllPreserveShapeAndRange(t *testing.T) {
	x := randImage(1, 3, 16, 12)
	for _, p := range all() {
		t.Run(p.Name(), func(t *testing.T) {
			y := p.Apply(x)
			if !y.SameShape(x) {
				t.Fatalf("shape changed: %v -> %v", x.Shape, y.Shape)
			}
			for i, v := range y.Data {
				if v < -1e-9 || v > 1+1e-9 || math.IsNaN(v) {
					t.Fatalf("pixel %d = %v out of range", i, v)
				}
			}
		})
	}
}

func TestAllDoNotMutateInput(t *testing.T) {
	x := randImage(2, 1, 10, 10)
	orig := x.Clone()
	for _, p := range all() {
		p.Apply(x)
		for i := range x.Data {
			if x.Data[i] != orig.Data[i] {
				t.Fatalf("%s mutated its input at pixel %d", p.Name(), i)
			}
		}
	}
}

func TestFlipXInvolution(t *testing.T) {
	f := func(seed int64) bool {
		x := randImage(seed, 3, 7, 9)
		y := FlipX{}.Apply(FlipX{}.Apply(x))
		for i := range x.Data {
			if x.Data[i] != y.Data[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestFlipYInvolution(t *testing.T) {
	f := func(seed int64) bool {
		x := randImage(seed, 1, 8, 5)
		y := FlipY{}.Apply(FlipY{}.Apply(x))
		for i := range x.Data {
			if x.Data[i] != y.Data[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestFlipXMirrorsColumns(t *testing.T) {
	x := tensor.FromSlice([]float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6}, 1, 2, 3)
	y := FlipX{}.Apply(x)
	want := []float64{0.3, 0.2, 0.1, 0.6, 0.5, 0.4}
	for i, w := range want {
		if y.Data[i] != w {
			t.Fatalf("FlipX = %v, want %v", y.Data, want)
		}
	}
}

func TestFlipYMirrorsRows(t *testing.T) {
	x := tensor.FromSlice([]float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6}, 1, 2, 3)
	y := FlipY{}.Apply(x)
	want := []float64{0.4, 0.5, 0.6, 0.1, 0.2, 0.3}
	for i, w := range want {
		if y.Data[i] != w {
			t.Fatalf("FlipY = %v, want %v", y.Data, want)
		}
	}
}

// Out-of-range and non-finite pixels are sanitized into [0,1] by every
// preprocessor (the hardening FuzzPreprocess locks down).
func TestFlipClampsOutOfRange(t *testing.T) {
	x := tensor.FromSlice([]float64{-1, 2, math.NaN(), 0.5, math.Inf(1), math.Inf(-1)}, 1, 2, 3)
	for _, p := range []Preprocessor{FlipX{}, FlipY{}, Identity{}} {
		y := p.Apply(x)
		for i, v := range y.Data {
			if v < 0 || v > 1 || math.IsNaN(v) {
				t.Fatalf("%s.Data[%d] = %v, want in [0,1]", p.Name(), i, v)
			}
		}
	}
}

func TestGammaBehaviour(t *testing.T) {
	x := tensor.FromSlice([]float64{0, 0.25, 0.5, 1}, 1, 2, 2)
	y := Gamma{G: 2}.Apply(x)
	want := []float64{0, 0.0625, 0.25, 1}
	for i, w := range want {
		if math.Abs(y.Data[i]-w) > 1e-12 {
			t.Fatalf("Gamma(2) = %v, want %v", y.Data, want)
		}
	}
	// γ=1 is the identity.
	z := Gamma{G: 1}.Apply(x)
	for i := range x.Data {
		if math.Abs(z.Data[i]-x.Data[i]) > 1e-12 {
			t.Fatal("Gamma(1) is not identity")
		}
	}
	// γ>1 darkens mid-tones, γ<1 brightens them.
	dark := Gamma{G: 2}.Apply(x)
	bright := Gamma{G: 0.5}.Apply(x)
	if !(dark.Data[2] < x.Data[2] && bright.Data[2] > x.Data[2]) {
		t.Errorf("gamma ordering wrong: dark %v, orig %v, bright %v", dark.Data[2], x.Data[2], bright.Data[2])
	}
}

func TestHistEqualizesContrast(t *testing.T) {
	// A low-contrast image squeezed into [0.4, 0.6] should span more of
	// [0,1] after equalization.
	x := randImage(3, 1, 16, 16)
	for i := range x.Data {
		x.Data[i] = 0.4 + 0.2*x.Data[i]
	}
	y := Hist{}.Apply(x)
	lo, hi := 1.0, 0.0
	for _, v := range y.Data {
		lo, hi = math.Min(lo, v), math.Max(hi, v)
	}
	if hi-lo < 0.5 {
		t.Errorf("Hist output range [%v, %v] too narrow", lo, hi)
	}
}

func TestImAdjStretchesRange(t *testing.T) {
	x := randImage(4, 1, 16, 16)
	for i := range x.Data {
		x.Data[i] = 0.3 + 0.1*x.Data[i]
	}
	y := ImAdj{}.Apply(x)
	lo, hi := 1.0, 0.0
	for _, v := range y.Data {
		lo, hi = math.Min(lo, v), math.Max(hi, v)
	}
	if hi-lo < 0.8 {
		t.Errorf("ImAdj output range [%v, %v] not stretched", lo, hi)
	}
	// Constant image must pass through unchanged (zero span guard).
	flat := tensor.New(1, 8, 8)
	flat.Fill(0.5)
	z := ImAdj{}.Apply(flat)
	for _, v := range z.Data {
		if v != 0.5 {
			t.Fatalf("ImAdj on constant image produced %v", v)
		}
	}
}

// TestImAdjApplyToAllocationFree pins the form the batch engine calls at
// zero allocations per image.
func TestImAdjApplyToAllocationFree(t *testing.T) {
	x := randImage(1, 3, 32, 32)
	dst := tensor.New(x.Shape...)
	if a := testing.AllocsPerRun(50, func() { ImAdj{}.ApplyTo(dst, x) }); a != 0 {
		t.Fatalf("ImAdj.ApplyTo allocated %v times per image, want 0", a)
	}
}

func TestScaleSoftensDetail(t *testing.T) {
	// A checkerboard has maximal high-frequency energy; down-up scaling
	// must reduce its variance.
	x := tensor.New(1, 16, 16)
	for y := 0; y < 16; y++ {
		for xx := 0; xx < 16; xx++ {
			if (y+xx)%2 == 0 {
				x.Data[y*16+xx] = 1
			}
		}
	}
	y := Scale{P: 0.5}.Apply(x)
	if !y.SameShape(x) {
		t.Fatalf("Scale changed shape: %v", y.Shape)
	}
	varOf := func(t2 *tensor.T) float64 {
		m := t2.Sum() / float64(t2.Len())
		s := 0.0
		for _, v := range t2.Data {
			s += (v - m) * (v - m)
		}
		return s / float64(t2.Len())
	}
	if varOf(y) >= varOf(x)*0.9 {
		t.Errorf("Scale did not soften detail: var %v -> %v", varOf(x), varOf(y))
	}
}

func TestConNormCentersLocalContrast(t *testing.T) {
	// A bright half / dark half image should have both halves pulled toward
	// mid-gray away from the boundary.
	x := tensor.New(1, 12, 12)
	for y := 0; y < 12; y++ {
		for xx := 0; xx < 12; xx++ {
			if xx < 6 {
				x.Data[y*12+xx] = 0.9
			} else {
				x.Data[y*12+xx] = 0.1
			}
		}
	}
	y := ConNorm{}.Apply(x)
	// Interior of each half is locally flat → normalized toward 0.5.
	if math.Abs(y.At(0, 6, 1)-0.5) > 0.1 || math.Abs(y.At(0, 6, 10)-0.5) > 0.1 {
		t.Errorf("ConNorm interior not centered: %v, %v", y.At(0, 6, 1), y.At(0, 6, 10))
	}
}

func TestAdHistDiffersFromHistOnLocalStructure(t *testing.T) {
	// An image with a dark quadrant: local equalization treats the quadrant
	// independently, so outputs must differ from global equalization.
	x := randImage(5, 1, 16, 16)
	for y := 0; y < 8; y++ {
		for xx := 0; xx < 8; xx++ {
			x.Data[y*16+xx] *= 0.2
		}
	}
	g := Hist{}.Apply(x)
	a := AdHist{}.Apply(x)
	diff := 0.0
	for i := range g.Data {
		diff += math.Abs(g.Data[i] - a.Data[i])
	}
	if diff/float64(len(g.Data)) < 0.01 {
		t.Error("AdHist output identical to Hist; no local adaptation")
	}
}

func TestByNameRoundTrip(t *testing.T) {
	names := []string{"ORG", "FlipX", "FlipY", "Hist", "AdHist", "ConNorm", "ImAdj",
		"Gamma(1.5)", "Gamma(2)", "Scale(0.8)"}
	for _, name := range names {
		p, err := ByName(name)
		if err != nil {
			t.Fatalf("ByName(%q): %v", name, err)
		}
		if p.Name() != name {
			t.Errorf("ByName(%q).Name() = %q", name, p.Name())
		}
	}
}

func TestByNameErrors(t *testing.T) {
	for _, name := range []string{"Nope", "Gamma(x)", "Scale(?)"} {
		if _, err := ByName(name); err == nil {
			t.Errorf("ByName(%q) succeeded, want error", name)
		}
	}
}

func TestMustByNamePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustByName on bad name did not panic")
		}
	}()
	MustByName("Bogus")
}

func TestCandidatesDistinctNames(t *testing.T) {
	seen := map[string]bool{}
	for _, p := range Candidates() {
		if seen[p.Name()] {
			t.Errorf("duplicate candidate %q", p.Name())
		}
		seen[p.Name()] = true
	}
	if len(seen) < 8 {
		t.Errorf("only %d candidates; want the Table I pool", len(seen))
	}
}
