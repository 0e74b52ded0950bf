package nn_test

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/nn"
	"repro/internal/tensor"
)

// TestBatchCompositionInvariant is the exactness contract of the batched
// engine: an image's softmax row does not depend on the batch it was
// computed in. For every zoo topology on every backend (f64, f32, int8),
// the row an image gets inside the B=32 reference batch must be
// Float64bits-equal to the row it gets when the batch is permuted, split
// into sub-batches of 1/2/3/7/31, or padded with unrelated batchmates in
// front and behind. This is what lets the server's work-conserving batcher,
// the cluster's per-owner sub-batches and the cache all return the same
// bits for the same image (DESIGN.md §7).
func TestBatchCompositionInvariant(t *testing.T) {
	for _, f := range backendFixtures(t) {
		f := f
		net64, err := nn.Compile[float64](f.net)
		if err != nil {
			t.Fatal(err)
		}
		net32, err := f.net.Compile32()
		if err != nil {
			t.Fatal(err)
		}
		net8, err := f.net.CompileInt8(f.xs[:8])
		if err != nil {
			t.Fatal(err)
		}
		a := tensor.NewArena()
		backends := []struct {
			name string
			run  func(xs []*tensor.T) [][]float64
		}{
			{"f64", func(xs []*tensor.T) [][]float64 { defer a.Reset(); return net64.InferBatch(xs, a) }},
			{"f32", func(xs []*tensor.T) [][]float64 { defer a.Reset(); return net32.InferBatch(xs, a) }},
			{"int8", func(xs []*tensor.T) [][]float64 { defer a.Reset(); return net8.InferBatch(xs, a) }},
		}
		for _, be := range backends {
			be := be
			t.Run(f.name+"/"+be.name, func(t *testing.T) {
				want := be.run(f.xs)
				// check runs the images idx (indices into f.xs, -1 = an
				// unrelated filler image) as one batch and compares every
				// real image against its B=32 row.
				rng := rand.New(rand.NewSource(23))
				filler := tensor.New(f.xs[0].Shape...)
				filler.FillUniform(rng, 0, 1)
				check := func(what string, idx []int) {
					t.Helper()
					xs := make([]*tensor.T, len(idx))
					for j, i := range idx {
						xs[j] = filler
						if i >= 0 {
							xs[j] = f.xs[i]
						}
					}
					got := be.run(xs)
					for j, i := range idx {
						if i < 0 {
							continue
						}
						for c := range got[j] {
							if math.Float64bits(got[j][c]) != math.Float64bits(want[i][c]) {
								t.Fatalf("%s: image %d at position %d of B=%d, class %d: %v != %v inside B=32",
									what, i, j, len(idx), c, got[j][c], want[i][c])
							}
						}
					}
				}

				check("permuted", rng.Perm(len(f.xs)))
				for _, sz := range []int{1, 2, 3, 7, 31} {
					for lo := 0; lo < len(f.xs); lo += sz {
						var idx []int
						for i := lo; i < min(lo+sz, len(f.xs)); i++ {
							idx = append(idx, i)
						}
						check("split", idx)
					}
				}
				check("padded", []int{-1, -1, -1, 17, -1})
				check("padded", append([]int{-1, 31, 5, -1, -1}, rng.Perm(len(f.xs))[:28]...))
			})
		}
	}
}

// TestPoisonedScratchIdentity: the arenas hand any byte to any tensor, so
// a kernel that read scratch it had not written would make an image's
// answer depend on whatever the previous call left behind. Each arena is
// driven with a poison batch first — NaN images on f64/f32, ±1e30 on int8
// (quantization saturates rather than converting NaN) — so every scratch
// element a kernel writes holds garbage; the real batch then runs on it at
// B ∈ {1, 7, 32} and its rows must be Float64bits-equal to a fresh-arena
// run, for every zoo topology on every backend and both kernel routes.
func TestPoisonedScratchIdentity(t *testing.T) {
	for _, f := range backendFixtures(t) {
		f := f
		net64, err := nn.Compile[float64](f.net)
		if err != nil {
			t.Fatal(err)
		}
		net32, err := f.net.Compile32()
		if err != nil {
			t.Fatal(err)
		}
		net8, err := f.net.CompileInt8(f.xs[:8])
		if err != nil {
			t.Fatal(err)
		}
		backends := []struct {
			name   string
			poison float64
			run    func(xs []*tensor.T, a *tensor.Arena) [][]float64
		}{
			{"f64", math.NaN(), func(xs []*tensor.T, a *tensor.Arena) [][]float64 { defer a.Reset(); return net64.InferBatch(xs, a) }},
			{"f32", math.NaN(), func(xs []*tensor.T, a *tensor.Arena) [][]float64 { defer a.Reset(); return net32.InferBatch(xs, a) }},
			{"int8", 1e30, func(xs []*tensor.T, a *tensor.Arena) [][]float64 { defer a.Reset(); return net8.InferBatch(xs, a) }},
		}
		for _, be := range backends {
			be := be
			t.Run(f.name+"/"+be.name, func(t *testing.T) {
				kernelLeg(t, func(t *testing.T) {
					poison := make([]*tensor.T, len(f.xs))
					for i := range poison {
						poison[i] = tensor.New(f.xs[0].Shape...)
						for j := range poison[i].Data {
							poison[i].Data[j] = be.poison
							if j%2 == 1 {
								poison[i].Data[j] = -be.poison
							}
						}
					}
					a := tensor.NewArena()
					be.run(poison, a) // grows the slabs to the largest call
					for _, bsz := range []int{1, 7, 32} {
						want := be.run(f.xs[:bsz], tensor.NewArena())
						be.run(poison, a)
						got := be.run(f.xs[:bsz], a)
						for i := range want {
							for c := range want[i] {
								if math.Float64bits(got[i][c]) != math.Float64bits(want[i][c]) {
									t.Fatalf("B=%d image %d class %d: poisoned arena %v != fresh %v", bsz, i, c, got[i][c], want[i][c])
								}
							}
						}
					}
				})
			})
		}
	}
}
