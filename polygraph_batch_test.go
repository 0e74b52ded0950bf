package polygraph

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/nn"
	"repro/internal/preprocess"
)

// testSystem hand-assembles a tiny System around an untrained shared
// network, bypassing Build so the API edge cases run without a zoo.
func testSystem(t *testing.T) *System {
	t.Helper()
	rng := rand.New(rand.NewSource(5))
	net := nn.MustNetwork([]int{1, 8, 8}, 4,
		nn.NewConv2D(1, 3, 3, 1, 1, rng), nn.NewReLU(), nn.NewMaxPool2D(2),
		nn.NewFlatten(), nn.NewDense(3*4*4, 4, rng),
	)
	names := []preprocess.Preprocessor{preprocess.Identity{}, preprocess.FlipX{}, preprocess.FlipY{}, preprocess.Gamma{G: 2}}
	members := make([]core.Member, len(names))
	for i, p := range names {
		members[i] = core.Member{Name: p.Name(), Pre: p, Net: net}
	}
	sys, err := core.NewSystem(members, core.Thresholds{Conf: 0.2, Freq: 2})
	if err != nil {
		t.Fatal(err)
	}
	sys.Staged = true
	return &System{sys: sys, inShape: []int{1, 8, 8}}
}

func testImage(seed int64) Image {
	rng := rand.New(rand.NewSource(seed))
	px := make([]float64, 64)
	for i := range px {
		px[i] = rng.Float64()
	}
	return Image{Channels: 1, Height: 8, Width: 8, Pixels: px}
}

// TestClassifyBatchEmpty locks in the zero-length fast path: an empty batch
// returns an empty, non-nil slice without entering the worker pool.
func TestClassifyBatchEmpty(t *testing.T) {
	s := testSystem(t)
	for _, images := range [][]Image{nil, {}} {
		preds, err := s.ClassifyBatch(images)
		if err != nil {
			t.Fatalf("ClassifyBatch(%v) error: %v", images, err)
		}
		if preds == nil || len(preds) != 0 {
			t.Errorf("ClassifyBatch(%v) = %#v, want empty non-nil slice", images, preds)
		}
	}
	// The early return wins even over a cancelled context: no work, no abort.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if preds, err := s.ClassifyBatchContext(ctx, nil); err != nil || len(preds) != 0 {
		t.Errorf("empty batch under cancelled ctx = %v, %v", preds, err)
	}
}

// TestClassifyBatchSingle checks the one-image batch agrees exactly with
// the single-image Classify path.
func TestClassifyBatchSingle(t *testing.T) {
	s := testSystem(t)
	im := testImage(11)
	want, err := s.Classify(im)
	if err != nil {
		t.Fatal(err)
	}
	preds, err := s.ClassifyBatch([]Image{im})
	if err != nil {
		t.Fatal(err)
	}
	if len(preds) != 1 || !reflect.DeepEqual(preds[0], want) {
		t.Errorf("ClassifyBatch([1 image]) = %+v, want [%+v]", preds, want)
	}
}

// TestClassifyContextVariants checks the public context entry points: they
// match the plain calls under a live context and abort under a dead one.
func TestClassifyContextVariants(t *testing.T) {
	s := testSystem(t)
	images := []Image{testImage(1), testImage(2), testImage(3)}

	for i, im := range images {
		want, err := s.Classify(im)
		if err != nil {
			t.Fatal(err)
		}
		got, err := s.ClassifyContext(context.Background(), im)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Errorf("image %d: ClassifyContext %+v != Classify %+v", i, got, want)
		}
		// Agreement is the modal accepted-vote count; a reliable prediction
		// must have reached Thr_Freq.
		if got.Reliable && got.Agreement < 2 {
			t.Errorf("image %d: reliable with Agreement=%d < Thr_Freq", i, got.Agreement)
		}
	}

	want, err := s.ClassifyBatch(images)
	if err != nil {
		t.Fatal(err)
	}
	got, err := s.ClassifyBatchContext(context.Background(), images)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Errorf("ClassifyBatchContext diverges from ClassifyBatch")
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.ClassifyContext(ctx, images[0]); !errors.Is(err, context.Canceled) {
		t.Errorf("ClassifyContext under cancelled ctx: err = %v", err)
	}
	if _, err := s.ClassifyBatchContext(ctx, images); !errors.Is(err, context.Canceled) {
		t.Errorf("ClassifyBatchContext under cancelled ctx: err = %v", err)
	}
	// Invalid images are rejected before the context is consulted.
	if _, err := s.ClassifyContext(ctx, Image{}); err == nil || errors.Is(err, context.Canceled) {
		t.Errorf("invalid image error = %v, want validation error", err)
	}
}
