package nn_test

import (
	"math"
	"sync"
	"testing"

	"repro/internal/nn"
	"repro/internal/tensor"
)

// TestVerifiedRowsMatchServed locks verified mode to what serving runs.
// An arena with an ABFT sink runs the same kernels as one without — the
// implicit or explicit float GEMM by batch width, the int8 direct shift
// convolution and the packed int8 Dense — and only adds the checksum
// epilogue, which must leave a clean product untouched: the two must
// produce Float64bits-equal rows for every zoo topology, backend and batch
// size, and the verifier must have checked something without detecting
// anything. The f64 net and the Net32 backends are separate subtrees:
// f64/<topology>/<kernel set> and net32/<topology>/<f32|int8>/<kernel
// set>, the last level named by kernelLeg.
func TestVerifiedRowsMatchServed(t *testing.T) {
	t.Run("f64", func(t *testing.T) {
		for _, f := range backendFixtures(t) {
			f := f
			t.Run(f.name, func(t *testing.T) {
				net64, err := nn.Compile[float64](f.net)
				if err != nil {
					t.Fatal(err)
				}
				kernelLeg(t, func(t *testing.T) {
					checkVerifiedRowsMatchServed(t, f.xs, func(xs []*tensor.T, abft *tensor.AbftStats) [][]float64 {
						a := tensor.NewArena()
						a.SetAbft(abft)
						return net64.InferBatch(xs, a)
					})
				})
			})
		}
	})
	t.Run("net32", func(t *testing.T) {
		for _, f := range backendFixtures(t) {
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
				for _, b := range []struct {
					name string
					net  *nn.Net32
				}{{"f32", net32}, {"int8", net8}} {
					b := b
					t.Run(b.name, func(t *testing.T) {
						kernelLeg(t, func(t *testing.T) {
							checkVerifiedRowsMatchServed(t, f.xs, func(xs []*tensor.T, abft *tensor.AbftStats) [][]float64 {
								a := tensor.NewArena()
								a.SetAbft(abft)
								return b.net.InferBatch(xs, a)
							})
						})
					})
				}
			})
		}
	})
}

// checkVerifiedRowsMatchServed runs one backend at B ∈ {1, 2, 7, 32} with
// and without an ABFT sink and requires Float64bits-equal rows, checks
// recorded and no detections.
func checkVerifiedRowsMatchServed(t *testing.T, xs []*tensor.T, run func(xs []*tensor.T, abft *tensor.AbftStats) [][]float64) {
	t.Helper()
	for _, bsz := range []int{1, 2, 7, 32} {
		served := run(xs[:bsz], nil)
		sink := &tensor.AbftStats{}
		verified := run(xs[:bsz], sink)
		for i := range served {
			for j, v := range served[i] {
				if math.Float64bits(v) != math.Float64bits(verified[i][j]) {
					t.Fatalf("B=%d image %d class %d: served %v verified %v", bsz, i, j, v, verified[i][j])
				}
			}
		}
		if c := sink.Counts(); c.Checks == 0 || c.Detected != 0 {
			t.Fatalf("B=%d: verifier counts %+v, want checks > 0 and no detections", bsz, c)
		}
	}
}

// TestVerifiedDrawsServedScratch holds verified mode to the served
// lowering's scratch: at B=32 a verified forward draws exactly as many
// arena buffers as an unverified one, and grows every slab to the same
// length, for every zoo topology on the f64 and f32 nets. A verified-only
// lowering — say, an im2col matrix materialized for the checksums to read
// — would draw more. (The int8 Dense check draws one scratch copy of its
// precomputed column sums, which the verifier's repair writes through.)
func TestVerifiedDrawsServedScratch(t *testing.T) {
	type draws struct{ live, f64, f32, u8, i32 int }
	for _, f := range backendFixtures(t) {
		net64, err := nn.Compile[float64](f.net)
		if err != nil {
			t.Fatal(err)
		}
		net32, err := f.net.Compile32()
		if err != nil {
			t.Fatal(err)
		}
		for _, be := range []struct {
			name  string
			infer func([]*tensor.T, *tensor.Arena) [][]float64
		}{{"f64", net64.InferBatch}, {"f32", net32.InferBatch}} {
			run := func(abft *tensor.AbftStats) draws {
				a := tensor.NewArena()
				a.SetAbft(abft)
				be.infer(f.xs[:32], a)
				live := a.Live()
				a.Reset()
				return draws{live, tensor.SlabLen[float64](a), tensor.SlabLen[float32](a), tensor.SlabLen[uint8](a), tensor.SlabLen[int32](a)}
			}
			if served, verified := run(nil), run(&tensor.AbftStats{}); verified != served {
				t.Errorf("%s/%s: verified forward drew %+v (buffers, slab elements), served %+v", f.name, be.name, verified, served)
			}
		}
	}
}

// TestSharedNetworkConcurrent hammers one network's compiled f64, f32 and
// int8 nets from many goroutines with private arenas — the
// serving layout. Run under -race this locks that the served forward paths
// (pooled generation blocks, shared packed weight buffers) are data-race
// free and deterministic across goroutines.
func TestSharedNetworkConcurrent(t *testing.T) {
	fs := backendFixtures(t)
	f := fs[1] // convnet: conv-heavy, exercises every implicit path
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

	want32 := net32.InferBatch(f.xs[:8], tensor.NewArena())
	want8 := net8.InferBatch(f.xs[:8], tensor.NewArena())
	wantF64 := net64.InferBatch(f.xs[:8], tensor.NewArena())

	const workers = 8
	var wg sync.WaitGroup
	errs := make(chan string, workers*3)
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for iter := 0; iter < 5; iter++ {
				a := tensor.NewArena()
				if got := net32.InferBatch(f.xs[:8], a); !rowsEqual(got, want32) {
					errs <- "f32 rows diverged across goroutines"
					return
				}
				a.Reset()
				if got := net8.InferBatch(f.xs[:8], a); !rowsEqual(got, want8) {
					errs <- "int8 rows diverged across goroutines"
					return
				}
				a.Reset()
				if got := net64.InferBatch(f.xs[:8], a); !rowsEqual(got, wantF64) {
					errs <- "f64 rows diverged across goroutines"
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}

func rowsEqual(a, b [][]float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				return false
			}
		}
	}
	return true
}
