package nn_test

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"repro/internal/nn"
	"repro/internal/tensor"
)

// perImageTol bounds |Δsoftmax| between the batched engine and the
// Network.Infer oracle (the training Forward). The two differ by named
// reassociations only: the convolution GEMM fuses each ascending-k
// multiply-add (FMA) on AVX2 machines where Forward's im2col GEMM rounds
// product and sum separately, and the batched Dense adds the bias after
// an unrolled dot where Forward starts from it.
const perImageTol = 1e-9

// TestInferBatchArenaMatchesInfer holds the compiled f64 net to the
// oracle: for every zoo topology and B ∈ {1, 2, 7, 32}, InferBatchArena
// (compile to Net[float64], then InferBatch) must agree with Network.Infer on the argmax always and
// on every softmax probability within perImageTol. B=1 is an ordinary
// batch here — that batches agree with each other bit for bit, whatever
// their composition, is TestBatchCompositionInvariant's job.
func TestInferBatchArenaMatchesInfer(t *testing.T) {
	for _, f := range backendFixtures(t) {
		f := f
		t.Run(f.name, func(t *testing.T) {
			want := make([]*tensor.T, len(f.xs))
			for i, x := range f.xs {
				want[i] = f.net.Infer(x)
			}
			for _, bsz := range []int{1, 2, 7, 32} {
				a := tensor.NewArena()
				got := f.net.InferBatchArena(f.xs[:bsz], a)
				if len(got) != bsz {
					t.Fatalf("B=%d: got %d outputs", bsz, len(got))
				}
				for i, p := range got {
					wi, _ := want[i].MaxIndex()
					if gi := argmax(p); wi != gi {
						t.Errorf("B=%d image %d: argmax %d != Infer %d", bsz, i, gi, wi)
					}
					for j := range p {
						if d := math.Abs(p[j] - want[i].Data[j]); d > perImageTol {
							t.Fatalf("B=%d image %d class %d: |Δsoftmax| = %g > %g (batched %v, Infer %v)",
								bsz, i, j, d, perImageTol, p[j], want[i].Data[j])
						}
					}
				}
				a.Reset()
			}
		})
	}
}

// TestInferBatchArenaSharedNetwork hammers one compiled f64 net from
// several goroutines, each running batched inference with its own arena —
// the serving layout, and the read-only inference contract extended to
// the compiled graph, whose nodes share the network's parameter slices
// (run under -race via the race job, and meaningful without it too:
// results must match the single-goroutine reference exactly).
func TestInferBatchArenaSharedNetwork(t *testing.T) {
	f := backendFixtures(t)[1] // convnet
	net, err := nn.Compile[float64](f.net)
	if err != nil {
		t.Fatal(err)
	}
	want := net.InferBatch(f.xs, tensor.NewArena())

	const goroutines = 6
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			a := tensor.NewArena()
			for rep := 0; rep < 3; rep++ {
				got := net.InferBatch(f.xs, a)
				for i, p := range got {
					for j := range p {
						if p[j] != want[i][j] {
							errs <- fmt.Errorf("image %d class %d: concurrent result diverged", i, j)
							return
						}
					}
				}
				a.Reset()
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestInferBatchArenaEdgeCases covers the degenerate entry points.
func TestInferBatchArenaEdgeCases(t *testing.T) {
	f := backendFixtures(t)[0] // lenet5
	if out := f.net.InferBatchArena(nil, tensor.NewArena()); len(out) != 0 {
		t.Errorf("empty batch returned %d outputs", len(out))
	}
	// A nil arena runs the same kernels on a private arena.
	out := f.net.InferBatchArena(f.xs[:2], nil)
	a := tensor.NewArena()
	want := f.net.InferBatchArena(f.xs[:2], a)
	for i := range out {
		for j := range out[i] {
			if math.Float64bits(out[i][j]) != math.Float64bits(want[i][j]) {
				t.Fatalf("nil-arena path diverged at image %d class %d", i, j)
			}
		}
	}
	// Mixed shapes must panic.
	defer func() {
		if recover() == nil {
			t.Error("mixed-shape batch did not panic")
		}
	}()
	f.net.InferBatchArena([]*tensor.T{f.xs[0], tensor.New(1, 2, 2)}, a)
}
