package nn_test

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/model"
	"repro/internal/tensor"
)

// batchFixtures builds one (untrained, deterministically initialized)
// network per zoo topology at its native input shape, plus a pool of random
// inputs. Training is irrelevant to the kernel-equivalence property, so the
// fixtures stay fast.
func batchFixtures(t testing.TB) []struct {
	name string
	net  interface {
		Infer(*tensor.T) *tensor.T
		InferBatchArena([]*tensor.T, *tensor.Arena) []*tensor.T
	}
	xs []*tensor.T
} {
	t.Helper()
	type fixture = struct {
		name string
		net  interface {
			Infer(*tensor.T) *tensor.T
			InferBatchArena([]*tensor.T, *tensor.Arena) []*tensor.T
		}
		xs []*tensor.T
	}
	var fs []fixture
	for _, b := range model.Benchmarks() {
		cfg, err := b.DatasetConfig(0) // dataset.Fast
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(71))
		net := b.Build(rng, cfg.Classes, []int{cfg.Channels, cfg.H, cfg.W})
		xs := make([]*tensor.T, 32)
		for i := range xs {
			xs[i] = tensor.New(cfg.Channels, cfg.H, cfg.W)
			xs[i].FillUniform(rng, 0, 1)
		}
		fs = append(fs, fixture{name: b.Name, net: net, xs: xs})
	}
	return fs
}

// perImageTol bounds |Δsoftmax| between the batched engine and the
// Network.Infer oracle (the training Forward). The two differ by named
// reassociations only: the convolution GEMM fuses each ascending-k
// multiply-add (FMA) on AVX2 machines where Forward's im2col GEMM rounds
// product and sum separately, and the batched Dense adds the bias after
// an unrolled dot where Forward starts from it.
const perImageTol = 1e-9

// TestInferBatchArenaMatchesInfer holds the batched engine to the oracle:
// for every zoo topology and B ∈ {1, 2, 7, 32}, the
// fused batch path must agree with Network.Infer on the argmax always and
// on every softmax probability within perImageTol. B=1 is an ordinary
// batch here — that batches agree with each other bit for bit, whatever
// their composition, is TestBatchCompositionInvariant's job.
func TestInferBatchArenaMatchesInfer(t *testing.T) {
	for _, f := range batchFixtures(t) {
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
					gi, _ := p.MaxIndex()
					if wi != gi {
						t.Errorf("B=%d image %d: argmax %d != Infer %d", bsz, i, gi, wi)
					}
					for j := range p.Data {
						if d := math.Abs(p.Data[j] - want[i].Data[j]); d > perImageTol {
							t.Fatalf("B=%d image %d class %d: |Δsoftmax| = %g > %g (batched %v, Infer %v)",
								bsz, i, j, d, perImageTol, p.Data[j], want[i].Data[j])
						}
					}
				}
				a.Reset()
			}
		})
	}
}

// TestInferBatchArenaSharedNetwork hammers one network from several
// goroutines, each running batched inference with its own arena — the
// read-only inference contract extended to the fused path (run under -race
// via the core race job, and meaningful without it too: results must match
// the single-goroutine reference exactly).
func TestInferBatchArenaSharedNetwork(t *testing.T) {
	f := batchFixtures(t)[1] // convnet
	ref := tensor.NewArena()
	want := f.net.InferBatchArena(f.xs, ref)
	wantCopy := make([]*tensor.T, len(want))
	for i, w := range want {
		wantCopy[i] = w.Clone()
	}
	ref.Reset()

	const goroutines = 6
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			a := tensor.NewArena()
			for rep := 0; rep < 3; rep++ {
				got := f.net.InferBatchArena(f.xs, a)
				for i, p := range got {
					for j := range p.Data {
						if p.Data[j] != wantCopy[i].Data[j] {
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
	f := batchFixtures(t)[0] // lenet5
	if out := f.net.InferBatchArena(nil, tensor.NewArena()); len(out) != 0 {
		t.Errorf("empty batch returned %d outputs", len(out))
	}
	// A nil arena runs the same kernels on a private arena.
	out := f.net.InferBatchArena(f.xs[:2], nil)
	a := tensor.NewArena()
	want := f.net.InferBatchArena(f.xs[:2], a)
	for i := range out {
		for j := range out[i].Data {
			if math.Float64bits(out[i].Data[j]) != math.Float64bits(want[i].Data[j]) {
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
