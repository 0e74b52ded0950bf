package nn_test

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/model"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// backendFixture is one zoo topology with a random-input pool — the same
// construction as batchFixtures, but with the concrete network type so the
// compiled backends are reachable.
type backendFixture struct {
	name string
	net  *nn.Network
	xs   []*tensor.T
}

func backendFixtures(t testing.TB) []backendFixture {
	t.Helper()
	var fs []backendFixture
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
		fs = append(fs, backendFixture{name: b.Name, net: net, xs: xs})
	}
	return fs
}

// kernelLeg runs f in one subtest named for the kernel bodies this build
// serves with: "simd" where the AVX2 kernels are available, "scalar" on a
// pure-Go build. It selects nothing; it names what the machine picked, so a
// failure says which bodies it ran on.
func kernelLeg(t *testing.T, f func(t *testing.T)) {
	name := "scalar"
	if tensor.SIMDAvailable() {
		name = "simd"
	}
	t.Run(name, f)
}

// f64Reference computes the per-image float64 softmax rows.
func f64Reference(f backendFixture) [][]float64 {
	out := make([][]float64, len(f.xs))
	for i, x := range f.xs {
		out[i] = f.net.Infer(x).Data
	}
	return out
}

func argmax(row []float64) int {
	best, bv := 0, math.Inf(-1)
	for i, v := range row {
		if v > bv {
			best, bv = i, v
		}
	}
	return best
}

// TestCompile32MatchesF64 locks the float32 backend's accuracy contract
// against the float64 reference: for every zoo topology and B ∈ {1, 2, 7,
// 32}, identical argmax on every input and softmax probabilities within
// 1e-6 (ISSUE 5 acceptance bound).
func TestCompile32MatchesF64(t *testing.T) {
	for _, f := range backendFixtures(t) {
		f := f
		t.Run(f.name, func(t *testing.T) {
			kernelLeg(t, func(t *testing.T) {
				net32, err := f.net.Compile32()
				if err != nil {
					t.Fatal(err)
				}
				want := f64Reference(f)
				for _, bsz := range []int{1, 2, 7, 32} {
					a := tensor.NewArena32()
					got := net32.InferBatch(f.xs[:bsz], a)
					if len(got) != bsz {
						t.Fatalf("B=%d: got %d rows", bsz, len(got))
					}
					for i, row := range got {
						if w, g := argmax(want[i]), argmax(row); w != g {
							t.Errorf("B=%d image %d: f32 argmax %d != f64 %d", bsz, i, g, w)
						}
						for j := range row {
							if d := math.Abs(row[j] - want[i][j]); d > 1e-6 {
								t.Fatalf("B=%d image %d class %d: |Δsoftmax| = %g > 1e-6", bsz, i, j, d)
							}
						}
					}
					a.Reset()
				}
			})
		})
	}
}

// TestNet32BatchSizeInvariant locks that every batch size runs the same
// fused kernels: row 0 of a B=32 inference matches a B=1 inference of the
// same image bit for bit on both compiled backends (the full composition
// property across the zoo is TestBatchCompositionInvariant).
func TestNet32BatchSizeInvariant(t *testing.T) {
	for _, f := range backendFixtures(t)[:2] { // lenet5, convnet
		f := f
		t.Run(f.name, func(t *testing.T) {
			net32, err := f.net.Compile32()
			if err != nil {
				t.Fatal(err)
			}
			net8, err := f.net.CompileInt8(f.xs[:8])
			if err != nil {
				t.Fatal(err)
			}
			for _, net := range []*nn.Net32{net32, net8} {
				a := tensor.NewArena32()
				batch := net.InferBatch(f.xs, a)
				a.Reset()
				single := net.InferBatch(f.xs[:1], a)
				for j := range single[0] {
					if single[0][j] != batch[0][j] {
						t.Fatalf("quantized=%v class %d: B=1 %v != B=32 row 0 %v (bit-exact required)",
							net.Quantized, j, single[0][j], batch[0][j])
					}
				}
			}
		})
	}
}

// TestCompileInt8Agreement locks the int8 backend's accuracy contract:
// top-1 agreement with the float64 path of at least 99% aggregated across
// the zoo's topologies at B=32, with every disagreement logged.
func TestCompileInt8Agreement(t *testing.T) {
	total, agree := 0, 0
	for _, f := range backendFixtures(t) {
		net8, err := f.net.CompileInt8(f.xs[:8])
		if err != nil {
			t.Fatal(err)
		}
		if !net8.Quantized {
			t.Fatalf("%s: CompileInt8 returned an unquantized net", f.name)
		}
		want := f64Reference(f)
		got := net8.InferBatch(f.xs, tensor.NewArena32())
		for i, row := range got {
			total++
			if argmax(row) == argmax(want[i]) {
				agree++
			} else {
				t.Logf("%s image %d: int8 argmax %d != f64 %d (f64 row %v)",
					f.name, i, argmax(row), argmax(want[i]), want[i])
			}
			// Probabilities must stay close in absolute terms even where
			// near-ties flip the argmax.
			for j := range row {
				if d := math.Abs(row[j] - want[i][j]); d > 0.05 {
					t.Fatalf("%s image %d class %d: |Δsoftmax| = %g > 0.05", f.name, i, j, d)
				}
			}
		}
	}
	if rate := float64(agree) / float64(total); rate < 0.99 {
		t.Fatalf("int8 top-1 agreement %d/%d = %.4f < 0.99", agree, total, rate)
	}
}

// TestNet32SharedConcurrent hammers one quantized net from several
// goroutines with private arenas — the compiled nets are read-only after
// construction, so concurrent results must match the single-goroutine
// reference exactly (run under -race by the CI race job).
func TestNet32SharedConcurrent(t *testing.T) {
	f := backendFixtures(t)[1] // convnet
	net8, err := f.net.CompileInt8(f.xs[:8])
	if err != nil {
		t.Fatal(err)
	}
	want := net8.InferBatch(f.xs, tensor.NewArena32())

	const goroutines = 6
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			a := tensor.NewArena32()
			for rep := 0; rep < 3; rep++ {
				got := net8.InferBatch(f.xs, a)
				for i, row := range got {
					for j := range row {
						if row[j] != want[i][j] {
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

// TestCompileErrors covers the refusal paths: activation hooks are a
// float64-only contract, and int8 calibration needs data.
func TestCompileErrors(t *testing.T) {
	f := backendFixtures(t)[0]
	f.net.ActivationHook = func(int, *tensor.T) {}
	if _, err := f.net.Compile32(); err == nil {
		t.Error("Compile32 accepted a network with an ActivationHook")
	}
	if _, err := f.net.CompileInt8(f.xs[:4]); err == nil {
		t.Error("CompileInt8 accepted a network with an ActivationHook")
	}
	f.net.ActivationHook = nil
	if _, err := f.net.CompileInt8(nil); err == nil {
		t.Error("CompileInt8 accepted an empty calibration sample")
	}
	if _, err := f.net.CompileInt8([]*tensor.T{f.xs[0], tensor.New(1, 2, 2)}); err == nil {
		t.Error("CompileInt8 accepted mixed calibration shapes")
	}
}

// TestNet32EmptyBatch covers the degenerate entry point.
func TestNet32EmptyBatch(t *testing.T) {
	f := backendFixtures(t)[0]
	net32, err := f.net.Compile32()
	if err != nil {
		t.Fatal(err)
	}
	if out := net32.InferBatch(nil, nil); len(out) != 0 {
		t.Errorf("empty batch returned %d rows", len(out))
	}
	// nil arena allocates a private one.
	got := net32.InferBatch(f.xs[:2], nil)
	want := net32.InferBatch(f.xs[:2], tensor.NewArena32())
	for i := range got {
		for j := range got[i] {
			if got[i][j] != want[i][j] {
				t.Fatalf("nil-arena path diverged at image %d class %d", i, j)
			}
		}
	}
}
