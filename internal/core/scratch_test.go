package core

import (
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"repro/internal/model"
	"repro/internal/tensor"
)

// TestScratchListBounded: the scratch free list lives as long as the
// System, so it must stay bounded however callers vary the batch. Eight
// goroutines share one System and classify seeded random batches of 1…64
// images; every decision must equal the single-image reference, and
// afterwards the list may hold no more scratches than could be in flight
// at once — the worker cap per concurrent caller, however many (member,
// tile) units each call ran.
func TestScratchListBounded(t *testing.T) {
	sys, base := raceFixture(t)
	sys.Workers = 0
	xs := make([]*tensor.T, 64)
	for i := range xs {
		xs[i] = base[i%len(base)]
	}
	want := make([]Decision, len(base))
	for i, x := range base {
		want[i] = sys.Classify(x)
	}

	const callers = 8
	var wg sync.WaitGroup
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for it := 0; it < 6; it++ {
				lo := rng.Intn(len(base))
				got := sys.ClassifyBatch(xs[lo : lo+1+rng.Intn(len(xs)-lo)])
				for i, d := range got {
					if !reflect.DeepEqual(d, want[(lo+i)%len(base)]) {
						t.Errorf("caller %d: image %d diverged on the shared scratch", g, lo+i)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	// Workers=0: the cap is GOMAXPROCS.
	if n, bound := len(sys.scratch.free), runtime.GOMAXPROCS(0)*callers; n > bound {
		t.Errorf("scratch free list holds %d entries after %d callers, want ≤ %d", n, callers, bound)
	}
}

// TestClassifyBatchAllocBound: once the System's scratch is warm, a
// classification allocates only its bookkeeping — decisions, votes and the
// probability rows — not its activations. Per image that stays ≤ 64 kB at
// B=1 and B=32 on the served convnet topology, on every backend (a
// per-call scratch drew ~1.5 MB per image from the heap at B=1). The count
// is skipped under -race, whose instrumentation allocates.
func TestClassifyBatchAllocBound(t *testing.T) {
	b, err := model.ByName("convnet")
	if err != nil {
		t.Fatal(err)
	}
	for _, be := range []Backend{BackendF64, BackendF32, BackendInt8} {
		sys, xs := backendSystem(t, b, be)
		sys.Staged = false // every member runs on every image
		// Warm up at the largest batch until every worker has its scratch:
		// how many run at once depends on scheduling, and each one's arenas
		// grow to the call it first serves.
		for i := 0; i < 100 && len(sys.scratch.free) < sys.workerCount(len(sys.Members)); i++ {
			sys.ClassifyBatch(xs[:32])
		}
		for _, bsz := range []int{1, 32} {
			const calls = 16
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < calls; i++ {
				sys.ClassifyBatch(xs[:bsz])
			}
			runtime.ReadMemStats(&after)
			perImage := (after.TotalAlloc - before.TotalAlloc) / uint64(calls*bsz)
			t.Logf("%s B=%d: %d B allocated per image", be, bsz, perImage)
			if perImage > 64<<10 && !raceEnabled {
				t.Errorf("%s B=%d: %d B allocated per image, want ≤ 64 kB", be, bsz, perImage)
			}
		}
	}
}

// TestScratchGrowsOnlyServedSlabs holds the lazy-arena promise of
// batchScratch: a worker's one arena grows only the slabs of the element
// types its members' nets draw. After a ClassifyBatch, a pure-f64 System
// has grown its float64 slab and nothing else; a pure-int8 System has no
// float64 slab (its nets convert the float64 images to float32 on entry).
func TestScratchGrowsOnlyServedSlabs(t *testing.T) {
	b, err := model.ByName("convnet")
	if err != nil {
		t.Fatal(err)
	}
	for _, be := range []Backend{BackendF64, BackendInt8} {
		sys, xs := backendSystem(t, b, be)
		sys.ClassifyBatch(xs[:8])
		if len(sys.scratch.free) == 0 {
			t.Fatalf("%s: no scratch went back to the free list", be)
		}
		for _, sc := range sys.scratch.free {
			f64, f32 := tensor.SlabLen[float64](&sc.a), tensor.SlabLen[float32](&sc.a)
			u8, i32 := tensor.SlabLen[uint8](&sc.a), tensor.SlabLen[int32](&sc.a)
			switch be {
			case BackendF64:
				if f64 == 0 || f32 != 0 || u8 != 0 || i32 != 0 {
					t.Errorf("f64 system slabs f64=%d f32=%d u8=%d i32=%d, want only f64 grown", f64, f32, u8, i32)
				}
			case BackendInt8:
				if f64 != 0 || f32 == 0 || u8 == 0 || i32 == 0 {
					t.Errorf("int8 system slabs f64=%d f32=%d u8=%d i32=%d, want no f64 and the rest grown", f64, f32, u8, i32)
				}
			}
		}
	}
}
