package polygraph

import (
	"testing"
)

func TestImageValidate(t *testing.T) {
	tests := []struct {
		name    string
		im      Image
		wantErr bool
	}{
		{"ok", Image{Channels: 1, Height: 2, Width: 2, Pixels: make([]float64, 4)}, false},
		{"short buffer", Image{Channels: 1, Height: 2, Width: 2, Pixels: make([]float64, 3)}, true},
		{"zero dim", Image{Channels: 0, Height: 2, Width: 2}, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if err := tt.im.Validate(); (err != nil) != tt.wantErr {
				t.Errorf("Validate() = %v, wantErr %v", err, tt.wantErr)
			}
		})
	}
}

func TestBenchmarkNames(t *testing.T) {
	names := BenchmarkNames()
	if len(names) != 6 {
		t.Fatalf("BenchmarkNames = %v", names)
	}
	if names[0] != "lenet5" {
		t.Errorf("first benchmark %q", names[0])
	}
}

func TestBuildValidation(t *testing.T) {
	if _, err := Build("nonexistent", Options{}); err == nil {
		t.Error("unknown benchmark accepted")
	}
	if _, err := Build("lenet5", Options{Members: 1}); err == nil {
		t.Error("Members=1 accepted")
	}
	if _, err := Build("lenet5", Options{Members: 99}); err == nil {
		t.Error("Members=99 accepted")
	}
}

// TestBuildAndClassifyEndToEnd exercises the full public API path on the
// cheapest benchmark. It trains member networks on first run (cached under
// a temp dir), so it is the slowest test in this package.
func TestBuildAndClassifyEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end build in -short mode")
	}
	// Uses the shared repository zoo so a warmed cache (cmd/pgmr-train)
	// makes this test fast; cold it trains the LeNet-5 member pool once.
	sys, err := Build("lenet5", Options{Members: 3, Quiet: true})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(sys.Members()); got != 3 {
		t.Fatalf("Members() = %v", sys.Members())
	}
	conf, freq := sys.Thresholds()
	if conf < 0 || conf > 1 || freq < 1 || freq > 3 {
		t.Errorf("Thresholds() = %v, %v", conf, freq)
	}
	c, h, w := sys.InputShape()
	if c != 1 || h != 28 || w != 28 {
		t.Errorf("InputShape() = %d %d %d", c, h, w)
	}

	images, labels, err := TestImages("lenet5", 50)
	if err != nil {
		t.Fatal(err)
	}
	reliableCorrect, reliableWrong := 0, 0
	for i, im := range images {
		pred, err := sys.Classify(im)
		if err != nil {
			t.Fatal(err)
		}
		if pred.Activated < 1 || pred.Activated > 3 {
			t.Fatalf("Activated = %d", pred.Activated)
		}
		if pred.Reliable {
			if pred.Label == labels[i] {
				reliableCorrect++
			} else {
				reliableWrong++
			}
		}
	}
	if reliableCorrect == 0 {
		t.Error("no reliable correct predictions on MNIST substitute")
	}
	// The reliability gate must keep undetected mispredictions rare on the
	// easiest benchmark.
	if reliableWrong > reliableCorrect/2 {
		t.Errorf("reliable-wrong %d vs reliable-correct %d; gate ineffective", reliableWrong, reliableCorrect)
	}

	// Shape mismatch is rejected.
	if _, err := sys.Classify(Image{Channels: 3, Height: 2, Width: 2, Pixels: make([]float64, 12)}); err == nil {
		t.Error("mismatched image accepted")
	}
}

func TestBuildWithFPBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("zoo-backed build in -short mode")
	}
	sys, err := Build("lenet5", Options{Members: 3, FPBudget: 0.02, Quiet: true})
	if err != nil {
		t.Fatal(err)
	}
	images, labels, err := TestImages("lenet5", 200)
	if err != nil {
		t.Fatal(err)
	}
	fp := 0
	for i, im := range images {
		pred, err := sys.Classify(im)
		if err != nil {
			t.Fatal(err)
		}
		if pred.Reliable && pred.Label != labels[i] {
			fp++
		}
	}
	// Budget profiled on val, evaluated here on test: allow slack 2x.
	if rate := float64(fp) / float64(len(images)); rate > 0.04 {
		t.Errorf("FP rate %.3f far above the 0.02 budget", rate)
	}
	// An impossible budget errors.
	if _, err := Build("lenet5", Options{Members: 3, FPBudget: 1e-9, Quiet: true}); err == nil {
		// 1e-9 may still be satisfiable when val FP hits exactly zero; only
		// flag when the selection silently produced a degenerate gate.
		conf, freq := sys.Thresholds()
		if conf == 0 && freq == 0 {
			t.Error("impossible budget produced degenerate thresholds")
		}
	}
}

func TestTestImages(t *testing.T) {
	images, labels, err := TestImages("lenet5", 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(images) != 5 || len(labels) != 5 {
		t.Fatalf("got %d images, %d labels", len(images), len(labels))
	}
	for i, im := range images {
		if err := im.Validate(); err != nil {
			t.Fatalf("image %d invalid: %v", i, err)
		}
	}
	if _, _, err := TestImages("bogus", 1); err == nil {
		t.Error("unknown benchmark accepted")
	}
}
