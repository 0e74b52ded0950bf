package core

import (
	"context"
	"math/rand"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"

	"repro/internal/dataset"
	"repro/internal/model"
	"repro/internal/tensor"
)

// tableSystem builds a System driven purely through an injected inferFn —
// the members are placeholders, so the decision engine can be exercised on
// synthetic softmax tables without any networks. Their nets only size the
// engine's units: one image per (member, tile) forward.
func tableSystem(n int, th Thresholds, staged bool, batch, workers int) *System {
	s := &System{Members: make([]Member, n), Th: th, Staged: staged, Batch: batch, Workers: workers}
	for i := range s.Members {
		s.Members[i].net = tableNet{}
	}
	return s
}

// tableNet is a placeholder member's compiled net: a tile of one image,
// and no forward — the table-driven tests inject the rows.
type tableNet struct{}

func (tableNet) Tile() int { return 1 }
func (tableNet) InferBatch([]*tensor.T, *tensor.Arena) [][]float64 {
	panic("core: a table-driven test reached a placeholder member's forward")
}

// tableInfer serves precomputed softmax rows. Safe for concurrent calls.
func tableInfer(rows [][]float64) inferFn {
	return func(i int, _ *tensor.T) []float64 {
		return append([]float64(nil), rows[i]...)
	}
}

func TestWorkerCount(t *testing.T) {
	s := &System{Workers: 4}
	if got := s.workerCount(8); got != 4 {
		t.Errorf("workerCount(8) with Workers=4 = %d", got)
	}
	if got := s.workerCount(2); got != 2 {
		t.Errorf("workerCount clamps to work units: got %d", got)
	}
	s.Workers = -3
	if got := s.workerCount(1); got != 1 {
		t.Errorf("workerCount floor = %d, want 1", got)
	}
}

// TestWorkerCountFollowsGOMAXPROCS pins the unit pool to the scheduler's
// Ps, not the machine's CPUs: under GOMAXPROCS(1) the default pool is one
// worker, and an explicit larger Workers never has two (member, tile)
// forwards in flight at once (each yields mid-forward, so a second
// goroutine would get in) — while the 8 members × 12 images still split
// into tiles.
func TestWorkerCountFollowsGOMAXPROCS(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	if got := (&System{}).workerCount(16); got != 1 {
		t.Errorf("GOMAXPROCS(1), Workers=0: workerCount(16) = %d, want 1", got)
	}
	xs := indexedInputs(12)
	for _, w := range []int{0, 2, 8} {
		s := &System{Members: make([]Member, 8), Workers: w}
		var inFlight, peak, calls atomic.Int32
		infer := func(_ int, xs []*tensor.T) [][]float64 {
			calls.Add(1)
			n := inFlight.Add(1)
			if n > peak.Load() {
				peak.Store(n)
			}
			for i := 0; i < 4; i++ {
				runtime.Gosched()
			}
			inFlight.Add(-1)
			return make([][]float64, len(xs))
		}
		tile := func(int) int { return 5 }
		if _, err := s.runMemberRange(context.Background(), 0, 8, xs, tile, infer); err != nil {
			t.Fatal(err)
		}
		if p := peak.Load(); p != 1 {
			t.Errorf("GOMAXPROCS(1), Workers=%d: %d forwards in flight, want 1", w, p)
		}
		if c := calls.Load(); c != 8*3 {
			t.Errorf("GOMAXPROCS(1), Workers=%d: %d forwards, want 8 members × 3 tiles", w, c)
		}
	}
}

// TestClassifyBatchNetworksMatchesSequential is the equivalence property of
// the per-network batched engine: for random member-output tables, staging
// configurations and batch compositions, classifyBatchNetworks must return,
// for every image, a Decision deeply equal to running classifySequential on
// that image alone — same label, reliability, confidence, vote histogram and
// Activated count — even though images share a global stage schedule and
// drop out of the batch at different boundaries. The injected tables are
// exact, so the comparison is bit-exact here; float tolerance only enters
// with real batched kernels (covered by TestParallelAndBatchMatchOnRealSystem).
func TestClassifyBatchNetworksMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(1234))
	const cases = 1500
	for c := 0; c < cases; c++ {
		n := 2 + rng.Intn(7)
		classes := 2 + rng.Intn(5)
		B := 1 + rng.Intn(9)
		// tables[i][m] is image i's softmax row from member m.
		tables := make([][][]float64, B)
		for i := range tables {
			tables[i] = make([][]float64, n)
			for m := range tables[i] {
				tables[i][m] = randDist(rng, classes)
				if rng.Intn(2) == 0 {
					peak := rng.Intn(classes)
					for j := range tables[i][m] {
						tables[i][m][j] *= 0.2
					}
					tables[i][m][peak] += 0.8
				}
			}
		}
		th := Thresholds{Conf: rng.Float64() * 0.95, Freq: 1 + rng.Intn(n)}
		staged := rng.Intn(4) != 0
		batch := 1 + rng.Intn(3)
		workers := 1 + rng.Intn(8)
		s := tableSystem(n, th, staged, batch, workers)

		// Images carry their table index in Data[0] so the batched seam can
		// serve the right rows regardless of pending-set composition.
		xs := make([]*tensor.T, B)
		for i := range xs {
			xs[i] = tensor.New(1)
			xs[i].Data[0] = float64(i)
		}
		batchInfer := func(m int, pend []*tensor.T) [][]float64 {
			rows := make([][]float64, len(pend))
			for i, x := range pend {
				rows[i] = append([]float64(nil), tables[int(x.Data[0])][m]...)
			}
			return rows
		}

		got, err := s.classifyBatchNetworks(context.Background(), xs, batchInfer)
		if err != nil {
			t.Fatalf("case %d: unexpected error %v", c, err)
		}
		for i := 0; i < B; i++ {
			want, werr := s.classifySequential(context.Background(), xs[i], tableInfer(tables[i]))
			if werr != nil {
				t.Fatalf("case %d: sequential error %v", c, werr)
			}
			if !reflect.DeepEqual(want, got[i]) {
				t.Fatalf("case %d image %d (n=%d B=%d th=%v staged=%v batch=%d workers=%d):\nsequential %+v\nbatched    %+v",
					c, i, n, B, th, staged, batch, workers, want, got[i])
			}
		}
	}
}

// TestClassifyBatchNetworksDuplicateHeavy extends the equivalence property
// to duplicate-heavy batches: when many positions repeat the same image,
// every position's Decision — Activated count, votes, label, reliability,
// confidence — must stay bit-identical to the undeduped sequential path,
// and duplicate positions must agree with each other exactly. This is the
// correctness floor the cache layer's intra-batch dedup builds on.
func TestClassifyBatchNetworksDuplicateHeavy(t *testing.T) {
	rng := rand.New(rand.NewSource(4321))
	const cases = 500
	for c := 0; c < cases; c++ {
		n := 2 + rng.Intn(7)
		classes := 2 + rng.Intn(5)
		unique := 1 + rng.Intn(4)
		B := unique + rng.Intn(12) // every batch has at least one duplicate candidate
		tables := make([][][]float64, unique)
		for u := range tables {
			tables[u] = make([][]float64, n)
			for m := range tables[u] {
				tables[u][m] = randDist(rng, classes)
				if rng.Intn(2) == 0 {
					peak := rng.Intn(classes)
					for j := range tables[u][m] {
						tables[u][m][j] *= 0.2
					}
					tables[u][m][peak] += 0.8
				}
			}
		}
		th := Thresholds{Conf: rng.Float64() * 0.95, Freq: 1 + rng.Intn(n)}
		s := tableSystem(n, th, rng.Intn(4) != 0, 1+rng.Intn(3), 1+rng.Intn(8))

		idx := make([]int, B)
		xs := make([]*tensor.T, B)
		for i := range xs {
			idx[i] = rng.Intn(unique)
			xs[i] = tensor.New(1)
			xs[i].Data[0] = float64(idx[i])
		}
		batchInfer := func(m int, pend []*tensor.T) [][]float64 {
			rows := make([][]float64, len(pend))
			for i, x := range pend {
				rows[i] = append([]float64(nil), tables[int(x.Data[0])][m]...)
			}
			return rows
		}
		got, err := s.classifyBatchNetworks(context.Background(), xs, batchInfer)
		if err != nil {
			t.Fatalf("case %d: %v", c, err)
		}
		firstOf := map[int]int{}
		for i := 0; i < B; i++ {
			want, werr := s.classifySequential(context.Background(), xs[i], tableInfer(tables[idx[i]]))
			if werr != nil {
				t.Fatalf("case %d: sequential error %v", c, werr)
			}
			if !reflect.DeepEqual(want, got[i]) {
				t.Fatalf("case %d position %d (table %d):\nsequential %+v\nbatched    %+v",
					c, i, idx[i], want, got[i])
			}
			if j, dup := firstOf[idx[i]]; dup {
				if !reflect.DeepEqual(got[j], got[i]) {
					t.Fatalf("case %d: duplicate positions %d and %d diverged:\n%+v\n%+v",
						c, j, i, got[j], got[i])
				}
			} else {
				firstOf[idx[i]] = i
			}
		}
	}
}

// TestClassifyBatchNetworksCancelled checks the batched engine aborts before
// any member inference under a pre-cancelled context.
func TestClassifyBatchNetworksCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var ran int32
	infer := func(m int, pend []*tensor.T) [][]float64 {
		ran++
		rows := make([][]float64, len(pend))
		for i := range rows {
			rows[i] = []float64{1, 0}
		}
		return rows
	}
	s := tableSystem(3, Thresholds{Conf: 0.5, Freq: 2}, true, 1, 3)
	xs := []*tensor.T{tensor.New(1), tensor.New(1)}
	if out, err := s.classifyBatchNetworks(ctx, xs, infer); err == nil || out != nil {
		t.Errorf("classifyBatchNetworks = %v, %v; want nil, ctx error", out, err)
	}
	if ran != 0 {
		t.Errorf("ran %d member inferences under a cancelled context", ran)
	}
}

func TestClassifyBatchEmpty(t *testing.T) {
	s := tableSystem(2, Thresholds{Freq: 1}, false, 1, 2)
	if out := s.ClassifyBatch(nil); len(out) != 0 {
		t.Errorf("ClassifyBatch(nil) = %v", out)
	}
}

// TestParallelAndBatchMatchOnRealSystem locks the equivalence down on a real
// zoo-trained system: for every test image, Classify with a concurrent
// member fan-out and ClassifyBatch at any Workers setting must reproduce the
// serial Classify decision exactly — including the float64 Confidence.
func TestParallelAndBatchMatchOnRealSystem(t *testing.T) {
	zoo := model.NewZoo(t.TempDir(), dataset.Fast)
	b := testBenchmark("corepar")
	variants := []model.Variant{{}, {Preproc: "FlipX"}, {Preproc: "Gamma(2)"}, {Preproc: "FlipY"}}
	seq, err := BuildSystem(zoo, b, variants)
	if err != nil {
		t.Fatal(err)
	}
	par, err := BuildSystem(zoo, b, variants)
	if err != nil {
		t.Fatal(err)
	}
	seq.Workers = 1

	ds, _ := zoo.Dataset(b.DatasetName)
	frames := ds.Test
	if len(frames) > 120 {
		frames = frames[:120]
	}
	xs := make([]*tensor.T, len(frames))
	for i, s := range frames {
		xs[i] = s.X
	}

	for _, staged := range []bool{true, false} {
		seq.Staged, par.Staged = staged, staged
		par.Workers = 4
		want := make([]Decision, len(xs))
		for i, x := range xs {
			want[i] = seq.Classify(x)
		}
		for i, x := range xs {
			if got := par.Classify(x); !reflect.DeepEqual(want[i], got) {
				t.Fatalf("staged=%v workers=4 Classify frame %d: %+v != %+v", staged, i, got, want[i])
			}
		}
		// Classify is the batched engine at B=1 and the kernels are
		// batch-composition invariant, so every Workers setting is
		// bit-exact against it.
		for _, workers := range []int{1, 3} {
			par.Workers = workers
			got := par.ClassifyBatch(xs)
			for i := range got {
				if !reflect.DeepEqual(want[i], got[i]) {
					t.Fatalf("staged=%v workers=%d ClassifyBatch frame %d: %+v != %+v",
						staged, workers, i, got[i], want[i])
				}
			}
		}
	}
}
