package dataset

import (
	"math"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/nn"
)

func smallConfig() Config {
	return Config{
		Name: "test", Classes: 6, Channels: 3, H: 16, W: 16,
		TrainN: 60, ValN: 30, TestN: 48,
		NoiseStd: 0.1, Contrast: 0.4, Jitter: 0.1, HardRate: 0.3, TextureAmp: 0.4,
		Seed: 42,
	}
}

func TestGenerateSplitsAndShapes(t *testing.T) {
	d, err := Generate(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Train()) != 60 || len(d.Val) != 30 || len(d.Test) != 48 {
		t.Fatalf("split sizes: %d/%d/%d", len(d.Train()), len(d.Val), len(d.Test))
	}
	if len(d.TestMeta) != len(d.Test) {
		t.Fatalf("TestMeta length %d != Test length %d", len(d.TestMeta), len(d.Test))
	}
	for _, s := range d.Train() {
		if !shapeIs(s.X.Shape, 3, 16, 16) {
			t.Fatalf("sample shape %v", s.X.Shape)
		}
		if s.Label < 0 || s.Label >= 6 {
			t.Fatalf("label %d out of range", s.Label)
		}
	}
}

func shapeIs(shape []int, dims ...int) bool {
	if len(shape) != len(dims) {
		return false
	}
	for i := range dims {
		if shape[i] != dims[i] {
			return false
		}
	}
	return true
}

func TestGenerateIsDeterministic(t *testing.T) {
	d1, err := Generate(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	d2, err := Generate(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	for i := range d1.Train() {
		if d1.Train()[i].Label != d2.Train()[i].Label {
			t.Fatalf("labels differ at %d", i)
		}
		for j := range d1.Train()[i].X.Data {
			if d1.Train()[i].X.Data[j] != d2.Train()[i].X.Data[j] {
				t.Fatalf("pixel differs at sample %d pixel %d", i, j)
			}
		}
	}
}

func TestGenerateDifferentSeedsDiffer(t *testing.T) {
	cfg := smallConfig()
	d1, _ := Generate(cfg)
	cfg.Seed = 43
	d2, _ := Generate(cfg)
	same := true
	for j := range d1.Train()[0].X.Data {
		if d1.Train()[0].X.Data[j] != d2.Train()[0].X.Data[j] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical first sample")
	}
}

func TestPixelsInUnitRange(t *testing.T) {
	d, err := Generate(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	for si, s := range d.Test {
		for pi, v := range s.X.Data {
			if v < 0 || v > 1 || math.IsNaN(v) {
				t.Fatalf("test sample %d pixel %d = %v out of [0,1]", si, pi, v)
			}
		}
	}
}

func TestClassBalance(t *testing.T) {
	d, err := Generate(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int, d.Classes)
	for _, s := range d.Train() {
		counts[s.Label]++
	}
	for c, n := range counts {
		if n != 10 { // 60 samples / 6 classes
			t.Errorf("class %d has %d train samples, want 10", c, n)
		}
	}
}

func TestHardRateRespected(t *testing.T) {
	cfg := smallConfig()
	cfg.TestN = 600
	cfg.HardRate = 0.5
	d, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	hard := 0
	kinds := map[HardKind]int{}
	for _, m := range d.TestMeta {
		if m.Hard != HardNone {
			hard++
			kinds[m.Hard]++
		}
	}
	frac := float64(hard) / float64(len(d.TestMeta))
	if frac < 0.4 || frac > 0.6 {
		t.Errorf("hard fraction %.3f, want ≈0.5", frac)
	}
	for _, k := range []HardKind{HardOcclusion, HardMultiObject, HardClassSim} {
		if kinds[k] == 0 {
			t.Errorf("no samples with characteristic %v", k)
		}
	}
}

func TestZeroHardRate(t *testing.T) {
	cfg := smallConfig()
	cfg.HardRate = 0
	d, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, m := range d.TestMeta {
		if m.Hard != HardNone {
			t.Fatalf("sample %d has hard kind %v with HardRate=0", i, m.Hard)
		}
	}
}

func TestConfigValidate(t *testing.T) {
	tests := []struct {
		name   string
		mutate func(*Config)
	}{
		{"one class", func(c *Config) { c.Classes = 1 }},
		{"bad channels", func(c *Config) { c.Channels = 2 }},
		{"tiny image", func(c *Config) { c.H = 4 }},
		{"no train", func(c *Config) { c.TrainN = 0 }},
		{"hard rate > 1", func(c *Config) { c.HardRate = 1.5 }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg := smallConfig()
			tt.mutate(&cfg)
			if _, err := Generate(cfg); err == nil {
				t.Error("invalid config accepted")
			}
		})
	}
}

func TestProfiles(t *testing.T) {
	for _, name := range []string{"synthmnist", "synthcifar", "synthimagenet"} {
		t.Run(name, func(t *testing.T) {
			cfg, ok := ByName(name, Fast)
			if !ok {
				t.Fatalf("ByName(%q) not found", name)
			}
			if err := cfg.Validate(); err != nil {
				t.Fatalf("Fast config invalid: %v", err)
			}
			full, _ := ByName(name, Full)
			if full.TrainN <= cfg.TrainN {
				t.Errorf("Full train split (%d) not larger than Fast (%d)", full.TrainN, cfg.TrainN)
			}
		})
	}
	if _, ok := ByName("nonexistent", Fast); ok {
		t.Error("ByName accepted unknown dataset")
	}
}

func TestHardKindString(t *testing.T) {
	tests := []struct {
		k    HardKind
		want string
	}{
		{HardNone, "none"},
		{HardOcclusion, "occlusion"},
		{HardMultiObject, "multi-object"},
		{HardClassSim, "class-similarity"},
		{HardKind(9), "HardKind(9)"},
	}
	for _, tt := range tests {
		if got := tt.k.String(); got != tt.want {
			t.Errorf("HardKind(%d).String() = %q, want %q", int(tt.k), got, tt.want)
		}
	}
}

// Property: every generated sample stays in [0,1] for arbitrary seeds and
// difficulty settings.
func TestQuickSamplesBounded(t *testing.T) {
	f := func(seed int64, noise, contrast float64) bool {
		cfg := smallConfig()
		cfg.Seed = seed
		cfg.NoiseStd = math.Mod(math.Abs(noise), 0.5)
		cfg.Contrast = math.Mod(math.Abs(contrast), 1)
		cfg.TrainN, cfg.ValN, cfg.TestN = 12, 6, 6
		d, err := Generate(cfg)
		if err != nil {
			return false
		}
		for _, s := range d.Train() {
			for _, v := range s.X.Data {
				if v < 0 || v > 1 || math.IsNaN(v) {
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

// TestTrainDrawnOnce: the training split is not drawn by Generate, and
// concurrent first reads draw it once and all see the same samples.
func TestTrainDrawnOnce(t *testing.T) {
	before := TrainDraws()
	d, err := Generate(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	if n := TrainDraws() - before; n != 0 {
		t.Fatalf("Generate drew %d training splits", n)
	}
	got := make([][]nn.Sample, 4)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = d.Train()
		}()
	}
	wg.Wait()
	if n := TrainDraws() - before; n != 1 {
		t.Fatalf("4 concurrent reads drew %d training splits, want 1", n)
	}
	for i := range got {
		if len(got[i]) != 60 || &got[i][0] != &got[0][0] {
			t.Fatalf("read %d saw a different split (%d samples)", i, len(got[i]))
		}
	}
}
