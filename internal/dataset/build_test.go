package dataset_test

import (
	"testing"

	polygraph "repro"
	"repro/internal/dataset"
)

// TestWarmBuildDrawsNoTrainingSplit: bring-up over a trained zoo reads the
// validation and test splits only, so it never generates the training
// split.
func TestWarmBuildDrawsNoTrainingSplit(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end build in -short mode")
	}
	build := func() {
		sys, err := polygraph.Build("convnet", polygraph.Options{Quiet: true})
		if err != nil {
			t.Fatal(err)
		}
		sys.Close()
	}
	build() // trains and caches any member the shared zoo lacks
	before := dataset.TrainDraws()
	build()
	if n := dataset.TrainDraws() - before; n != 0 {
		t.Errorf("a warm-zoo Build generated %d training splits, want 0", n)
	}
}
