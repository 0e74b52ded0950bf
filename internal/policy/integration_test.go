package policy

import (
	"context"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/nn"
	"repro/internal/preprocess"
	"repro/internal/tensor"
)

// realSystem builds a small 4-member system on one shared real network —
// the same shape as core's race fixture — so the controller can be
// exercised against actual staged inference rather than synthetic tables.
func realSystem(t *testing.T) (*core.System, []*tensor.T) {
	t.Helper()
	rng := rand.New(rand.NewSource(99))
	net := nn.MustNetwork([]int{1, 8, 8}, 4,
		nn.NewConv2D(1, 3, 3, 1, 1, rng), nn.NewReLU(), nn.NewMaxPool2D(2),
		nn.NewFlatten(), nn.NewDense(3*4*4, 4, rng),
	)
	pres := []string{"ORG", "FlipX", "FlipY", "Gamma(2)"}
	members := make([]core.Member, len(pres))
	for i, p := range pres {
		members[i] = core.Member{Name: p, Pre: preprocess.MustByName(p), Net: net}
	}
	sys, err := core.NewSystem(members, core.Thresholds{Conf: 0.2, Freq: 2})
	if err != nil {
		t.Fatal(err)
	}
	sys.Staged = true

	xs := make([]*tensor.T, 16)
	for i := range xs {
		xs[i] = tensor.New(1, 8, 8)
		for j := range xs[i].Data {
			xs[i].Data[j] = rng.Float64()
		}
	}
	return sys, xs
}

// TestColdControllerRealSystemMatchesStatic is the end-to-end half of the
// bit-identity criterion: a real system with a cold, unloaded Controller
// attached must return decisions DeepEqual to its policy-free twin's, and
// its batches must stay clean, so the prediction cache fills exactly as it
// would without the controller.
func TestColdControllerRealSystemMatchesStatic(t *testing.T) {
	ref, xs := realSystem(t)
	ref.Workers = 1
	want := ref.ClassifyBatch(xs)

	sys, _ := realSystem(t)
	sys.Members = ref.Members
	sys.Workers = 1
	ctrl, err := New(Config{
		// A huge SLO and an empty queue: the controller has no reason to
		// leave tier 0 no matter what costs it measures.
		SLO: time.Hour, Members: len(sys.Members), Freq: sys.Th.Freq,
		StageBatch: sys.Batch,
		BaseEarly:  core.BackendF64, BaseLate: core.BackendF64,
	})
	if err != nil {
		t.Fatal(err)
	}
	sys.Policy = ctrl
	sys.EnableCache(cache.Config{MaxBytes: 1 << 20, TTL: time.Hour, Shards: 4}, "")

	for pass := 0; pass < 2; pass++ {
		got, gerr := sys.ClassifyBatchContext(context.Background(), xs)
		if gerr != nil {
			t.Fatal(gerr)
		}
		for i := range xs {
			if !reflect.DeepEqual(want[i], got[i]) {
				t.Fatalf("pass %d frame %d: cold-controller decision %+v != static %+v", pass, i, got[i], want[i])
			}
		}
	}
	if ti, name := ctrl.Tier(); ti != 0 {
		t.Fatalf("cold controller drifted to tier %d (%s) on an unloaded run", ti, name)
	}
	// Tier-0 batches are clean: the cache must have filled on pass one and
	// served pass two.
	st := sys.Cache.Stats()
	if st.Entries == 0 || st.Hits == 0 {
		t.Fatalf("cold-controller batches were not cached: %+v", st)
	}
	// The controller observed the run: its cost model is learning even when
	// it never deviates.
	if s := ctrl.Snapshot(); s.Batches == 0 || len(s.StageCosts) == 0 {
		t.Fatalf("controller observed nothing: batches=%d costs=%d", s.Batches, len(s.StageCosts))
	}
}
