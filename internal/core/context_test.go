package core

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"repro/internal/tensor"
)

// TestClassifyContextMatchesClassify checks the context variants are exact
// aliases of the plain calls under a never-done context, on a real (shared
// network) system with a serial and a concurrent member fan-out.
func TestClassifyContextMatchesClassify(t *testing.T) {
	sys, xs := raceFixture(t)
	for _, workers := range []int{1, 4} {
		sys.Workers = workers
		for i, x := range xs {
			want := sys.Classify(x)
			got, err := sys.ClassifyContext(context.Background(), x)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(want, got) {
				t.Errorf("workers=%d frame %d: %+v != %+v", workers, i, got, want)
			}
		}
	}
	want := sys.ClassifyBatch(xs)
	got, err := sys.ClassifyBatchContext(context.Background(), xs)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Errorf("ClassifyBatchContext diverges from ClassifyBatch")
	}
}

// TestClassifyContextCancelled checks a pre-cancelled context aborts before
// any member runs, in the oracle and in the served engine at a serial and a
// concurrent member fan-out.
func TestClassifyContextCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	x := tensor.New(1)
	ran := 0
	infer := func(i int, _ *tensor.T) []float64 {
		ran++
		return []float64{1, 0}
	}
	s := tableSystem(3, Thresholds{Conf: 0.5, Freq: 2}, true, 1, 3)
	if _, err := s.classifySequential(ctx, x, infer); !errors.Is(err, context.Canceled) {
		t.Errorf("sequential err = %v, want context.Canceled", err)
	}
	if ran != 0 {
		t.Errorf("sequential ran %d members under a cancelled context", ran)
	}
	sys, xs := raceFixture(t)
	for _, workers := range []int{1, 4} {
		sys.Workers = workers
		if _, err := sys.ClassifyContext(ctx, xs[0]); !errors.Is(err, context.Canceled) {
			t.Errorf("workers=%d err = %v, want context.Canceled", workers, err)
		}
	}
}

// TestClassifyBatchContextCancelled checks batch classification reports the
// abort instead of returning partial results.
func TestClassifyBatchContextCancelled(t *testing.T) {
	s := tableSystem(2, Thresholds{Conf: 0, Freq: 1}, false, 1, 2)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	xs := []*tensor.T{tensor.New(1), tensor.New(1), tensor.New(1)}
	if out, err := s.ClassifyBatchContext(ctx, xs); !errors.Is(err, context.Canceled) || out != nil {
		t.Errorf("ClassifyBatchContext = %v, %v; want nil, context.Canceled", out, err)
	}
	// Empty input returns successfully even under a cancelled context —
	// there is no work to abort.
	if out, err := s.ClassifyBatchContext(ctx, nil); err != nil || len(out) != 0 {
		t.Errorf("empty batch = %v, %v; want [], nil", out, err)
	}
}
