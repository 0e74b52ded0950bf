package core

import (
	"math/rand"
	"testing"

	"repro/internal/dataset"
	"repro/internal/model"
	"repro/internal/nn"
	"repro/internal/preprocess"
	"repro/internal/tensor"
)

// testBenchmark is a fast-training benchmark over the MNIST substitute used
// for zoo-backed integration tests.
func testBenchmark(name string) model.Benchmark {
	return model.Benchmark{
		Name: name, Display: "Test / MNIST", DatasetName: "synthmnist",
		PaperAccuracy: 0.9,
		// Deliberately under-trained (one epoch, low LR) so the baseline
		// leaves mispredictions for the MR system to detect.
		Build: func(rng *rand.Rand, classes int, in []int) *nn.Network {
			return nn.MustNetwork(in, classes,
				nn.NewConv2D(in[0], 4, 3, 1, 1, rng), nn.NewReLU(), nn.NewMaxPool2D(4),
				nn.NewFlatten(),
				nn.NewDense(4*(in[1]/4)*(in[2]/4), classes, rng),
			)
		},
		Train: nn.TrainConfig{Epochs: 2, BatchSize: 16, LR: 0.008},
	}
}

func TestBuildRecordedFromZoo(t *testing.T) {
	zoo := model.NewZoo(t.TempDir(), dataset.Fast)
	b := testBenchmark("coretest")
	variants := []model.Variant{{}, {Preproc: "FlipX"}}
	rec, err := BuildRecorded(zoo, b, variants, model.SplitVal)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Members() != 2 {
		t.Fatalf("members = %d", rec.Members())
	}
	ds, _ := zoo.Dataset(b.DatasetName)
	if rec.Samples() != len(ds.Val) {
		t.Fatalf("samples = %d, want %d", rec.Samples(), len(ds.Val))
	}
	// Both members should beat chance substantially on the easy dataset.
	for m, acc := range rec.MemberAccuracy() {
		if acc < 0.5 {
			t.Errorf("member %d accuracy %.3f; too low", m, acc)
		}
	}
}

func TestGreedyDesignSelectsAndImproves(t *testing.T) {
	zoo := model.NewZoo(t.TempDir(), dataset.Fast)
	b := testBenchmark("coredesign")
	candidates := []model.Variant{
		{Preproc: "FlipX"},
		{Preproc: "Gamma(2)"},
		{Preproc: "Scale(0.8)"},
	}
	design, err := GreedyDesign(zoo, b, candidates, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(design.Variants) != 3 {
		t.Fatalf("selected %d variants, want 3", len(design.Variants))
	}
	if design.Variants[0].Key() != "ORG" {
		t.Errorf("design must start with ORG, got %s", design.Variants[0].Key())
	}
	if len(design.Steps) != 2 {
		t.Fatalf("steps = %d, want 2", len(design.Steps))
	}
	// Greedy is forced to add a member each round, and on this deliberately
	// under-trained benchmark some rounds can only reach max-TP fallback
	// points; the essential property is that the procedure finds at least
	// one design point improving on the baseline FP, with valid thresholds
	// throughout. (The strong at-the-floor property is covered on
	// well-conditioned members by TestSelectThresholds.)
	improved := false
	for i, step := range design.Steps {
		if step.Rates.FP < design.BaselineFP {
			improved = true
		}
		if step.Thresholds.Freq < 1 || step.Thresholds.Freq > i+2 {
			t.Errorf("step %d has invalid Thr_Freq %d", i, step.Thresholds.Freq)
		}
	}
	if !improved {
		t.Errorf("no greedy step improved on baseline FP %v: %+v", design.BaselineFP, design.Steps)
	}
}

func TestGreedyDesignValidation(t *testing.T) {
	zoo := model.NewZoo("", dataset.Fast)
	if _, err := GreedyDesign(zoo, testBenchmark("x"), nil, 1); err == nil {
		t.Error("maxN=1 accepted")
	}
}

func TestPreprocessorDelta(t *testing.T) {
	zoo := model.NewZoo(t.TempDir(), dataset.Fast)
	b := testBenchmark("coredelta")
	p, err := PreprocessorDelta(zoo, b, model.Variant{Preproc: "FlipX"}, model.SplitVal)
	if err != nil {
		t.Fatal(err)
	}
	ds, _ := zoo.Dataset(b.DatasetName)
	if len(p.WrongDeltas)+len(p.RightDeltas) != len(ds.Val) {
		t.Fatalf("delta partition sizes %d+%d != %d", len(p.WrongDeltas), len(p.RightDeltas), len(ds.Val))
	}
	// Sorted outputs.
	for i := 1; i < len(p.RightDeltas); i++ {
		if p.RightDeltas[i] < p.RightDeltas[i-1] {
			t.Fatal("RightDeltas not sorted")
		}
	}
	// CDF sanity.
	if CDFAt(p.RightDeltas, 2) != 1 {
		t.Error("CDF at +2 should be 1 (deltas bounded by 1)")
	}
	if CDFAt(p.RightDeltas, -2) != 0 {
		t.Error("CDF at -2 should be 0")
	}
}

func TestNegativeShareAndCompare(t *testing.T) {
	a := &DeltaProfile{WrongDeltas: []float64{-0.5, -0.2, 0.1}, RightDeltas: []float64{-0.1, 0.2}}
	b := &DeltaProfile{WrongDeltas: []float64{-0.5, 0.2, 0.3}, RightDeltas: []float64{-0.4, -0.2}}
	if NegativeShare(a.WrongDeltas) != 2.0/3 {
		t.Errorf("NegativeShare = %v", NegativeShare(a.WrongDeltas))
	}
	if NegativeShare(nil) != 0 {
		t.Error("empty NegativeShare should be 0")
	}
	// a breaks more mispredictions (2/3 vs 1/3) → preferred.
	if CompareDeltas(a, b) != -1 {
		t.Errorf("CompareDeltas = %d, want -1", CompareDeltas(a, b))
	}
	if CompareDeltas(b, a) != 1 {
		t.Error("CompareDeltas not antisymmetric")
	}
	if CompareDeltas(a, a) != 0 {
		t.Error("CompareDeltas not reflexive-zero")
	}
}

func TestBuildSystemAndClassify(t *testing.T) {
	zoo := model.NewZoo(t.TempDir(), dataset.Fast)
	b := testBenchmark("coresys")
	variants := []model.Variant{{}, {Preproc: "FlipX"}, {Preproc: "Gamma(2)"}}
	sys, err := BuildSystem(zoo, b, variants)
	if err != nil {
		t.Fatal(err)
	}
	if len(sys.Members) != 3 {
		t.Fatalf("members = %d", len(sys.Members))
	}
	if !sys.Staged {
		t.Error("BuildSystem should enable staged activation")
	}

	ds, _ := zoo.Dataset(b.DatasetName)
	reliableCorrect, unreliable := 0, 0
	for _, s := range ds.Test[:100] {
		d := sys.Classify(s.X)
		if d.Activated < 1 || d.Activated > 3 {
			t.Fatalf("activated %d members", d.Activated)
		}
		if d.Reliable {
			if d.Label == s.Label {
				reliableCorrect++
			}
		} else {
			unreliable++
		}
	}
	if reliableCorrect == 0 {
		t.Error("no reliable correct predictions on the easy dataset")
	}
	t.Logf("reliable-correct=%d unreliable=%d", reliableCorrect, unreliable)

	// Full activation mode must consult every member.
	sys.Staged = false
	if d := sys.Classify(ds.Test[0].X); d.Activated != 3 {
		t.Errorf("full mode activated %d", d.Activated)
	}
}

func TestNewSystemValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	net := nn.MustNetwork([]int{1, 8, 8}, 2,
		nn.NewFlatten(), nn.NewDense(64, 2, rng))
	m := Member{Name: "m", Pre: mustPre(t, "ORG"), Net: net}
	if _, err := NewSystem(nil, Thresholds{Freq: 1}); err == nil {
		t.Error("empty members accepted")
	}
	if _, err := NewSystem([]Member{m}, Thresholds{Freq: 2}); err == nil {
		t.Error("Freq > members accepted")
	}
	if _, err := NewSystem([]Member{m}, Thresholds{Conf: 1.5, Freq: 1}); err == nil {
		t.Error("Conf > 1 accepted")
	}
	sys, err := NewSystem([]Member{m}, Thresholds{Conf: 0.5, Freq: 1})
	if err != nil {
		t.Fatal(err)
	}
	x := tensor.New(1, 8, 8)
	d := sys.Classify(x)
	if d.Activated != 1 {
		t.Errorf("activated = %d", d.Activated)
	}
}

func mustPre(t *testing.T, name string) preprocess.Preprocessor {
	t.Helper()
	v := model.Variant{Preproc: name}
	p, err := v.Preprocessor()
	if err != nil {
		t.Fatal(err)
	}
	return p
}
