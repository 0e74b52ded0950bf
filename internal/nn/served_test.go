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
// anything. The f64 network and the compiled Net32 backends are separate
// subtrees: f64/<topology>/<kernel set> and
// net32/<topology>/<f32|int8>/<kernel set>, the last level named by
// kernelLeg.
func TestVerifiedRowsMatchServed(t *testing.T) {
	t.Run("f64", func(t *testing.T) {
		for _, f := range backendFixtures(t) {
			f := f
			t.Run(f.name, func(t *testing.T) {
				kernelLeg(t, func(t *testing.T) {
					checkVerifiedRowsMatchServed(t, f.xs, func(xs []*tensor.T, abft *tensor.AbftStats) [][]float64 {
						a := tensor.NewArena()
						a.SetAbft(abft)
						return copyRows(f.net.InferBatchArena(xs, a))
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
								a := tensor.NewArena32()
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
// lowering's scratch: at B=32 a verified forward hands out exactly as many
// arena tensors as an unverified one, for every zoo topology on the f64
// engine and the f32 backend. A verified-only lowering — say, an im2col
// matrix materialized for the checksums to read — would draw more.
func TestVerifiedDrawsServedScratch(t *testing.T) {
	for _, f := range backendFixtures(t) {
		net32, err := f.net.Compile32()
		if err != nil {
			t.Fatal(err)
		}
		live := func(abft *tensor.AbftStats) (f64, f32 int) {
			a := tensor.NewArena()
			a.SetAbft(abft)
			f.net.InferBatchArena(f.xs[:32], a)
			a32 := tensor.NewArena32()
			a32.SetAbft(abft)
			net32.InferBatch(f.xs[:32], a32)
			return a.Live(), a32.Live()
		}
		s64, s32 := live(nil)
		v64, v32 := live(&tensor.AbftStats{})
		if v64 != s64 || v32 != s32 {
			t.Errorf("%s: verified forward drew %d (f64) / %d (f32) arena tensors, served %d / %d", f.name, v64, v32, s64, s32)
		}
	}
}

// TestSharedNetworkConcurrent hammers one f64 network and its compiled
// f32 and int8 nets from many goroutines with private arenas — the
// serving layout. Run under -race this locks that the served forward paths
// (pooled generation blocks, shared packed weight buffers) are data-race
// free and deterministic across goroutines.
func TestSharedNetworkConcurrent(t *testing.T) {
	fs := backendFixtures(t)
	f := fs[1] // convnet: conv-heavy, exercises every implicit path
	net32, err := f.net.Compile32()
	if err != nil {
		t.Fatal(err)
	}
	net8, err := f.net.CompileInt8(f.xs[:8])
	if err != nil {
		t.Fatal(err)
	}

	want32 := net32.InferBatch(f.xs[:8], tensor.NewArena32())
	want8 := net8.InferBatch(f.xs[:8], tensor.NewArena32())
	wantF64 := copyRows(f.net.InferBatchArena(f.xs[:8], tensor.NewArena()))

	const workers = 8
	var wg sync.WaitGroup
	errs := make(chan string, workers*3)
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for iter := 0; iter < 5; iter++ {
				a32 := tensor.NewArena32()
				if got := net32.InferBatch(f.xs[:8], a32); !rowsEqual(got, want32) {
					errs <- "f32 rows diverged across goroutines"
					return
				}
				a32.Reset()
				if got := net8.InferBatch(f.xs[:8], a32); !rowsEqual(got, want8) {
					errs <- "int8 rows diverged across goroutines"
					return
				}
				if got := copyRows(f.net.InferBatchArena(f.xs[:8], tensor.NewArena())); !rowsEqual(got, wantF64) {
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

// copyRows copies arena-owned softmax tensors out into plain rows.
func copyRows(outs []*tensor.T) [][]float64 {
	rows := make([][]float64, len(outs))
	for i, o := range outs {
		rows[i] = append([]float64(nil), o.Data...)
	}
	return rows
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
