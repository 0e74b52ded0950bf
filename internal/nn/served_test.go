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
// lowering's scratch: at B=32 a verified forward returns with exactly as
// many arena buffers live, and exactly as many bytes drawn, as an
// unverified one, for every zoo topology on the f64, f32 and int8 nets. A
// verified-only lowering held across the forward — say, an im2col matrix
// materialized for the checksums to read — would show in both. The
// checksum epilogues draw their own scratch between an arena Mark and
// Release, so it leaves no trace at return; it shows only in the slabs,
// which grow to cover it. The test logs that difference, the checksum
// scratch cost, per topology and backend. On a warm arena the verified
// forward also makes exactly the served forward's heap allocations (its
// result rows and shape bookkeeping): no kernel scratch comes from the
// heap in either mode.
func TestVerifiedDrawsServedScratch(t *testing.T) {
	type draws struct {
		live, drawn, slab int
		allocs            float64
	}
	for _, f := range backendFixtures(t) {
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
		for _, be := range []struct {
			name  string
			infer func([]*tensor.T, *tensor.Arena) [][]float64
		}{{"f64", net64.InferBatch}, {"f32", net32.InferBatch}, {"int8", net8.InferBatch}} {
			run := func(abft *tensor.AbftStats) draws {
				a := tensor.NewArena()
				a.SetAbft(abft)
				be.infer(f.xs[:32], a)
				d := draws{live: a.Live(), drawn: a.Drawn()}
				a.Reset()
				d.slab = 8*tensor.SlabLen[float64](a) + 4*tensor.SlabLen[float32](a) + tensor.SlabLen[uint8](a) +
					4*tensor.SlabLen[int32](a) + 8*tensor.SlabLen[int64](a)
				d.allocs = testing.AllocsPerRun(3, func() {
					be.infer(f.xs[:32], a)
					a.Reset()
				})
				return d
			}
			served, verified := run(nil), run(&tensor.AbftStats{})
			if verified.live != served.live || verified.drawn != served.drawn {
				t.Errorf("%s/%s: verified forward returned with %d buffers live, %d bytes drawn; served %d, %d",
					f.name, be.name, verified.live, verified.drawn, served.live, served.drawn)
			}
			if verified.allocs != served.allocs {
				t.Errorf("%s/%s: warm verified forward allocates %.1f times, served %.1f",
					f.name, be.name, verified.allocs, served.allocs)
			}
			t.Logf("%s/%s: slabs %d B served, %d B verified (checksum scratch +%d B)",
				f.name, be.name, served.slab, verified.slab, verified.slab-served.slab)
		}
	}
}

// TestSharedNetworkConcurrent hammers one network's compiled f64, f32 and
// int8 nets from many goroutines with private arenas — the
// serving layout. Run under -race this locks that the served forward paths
// (kernel scratch on each goroutine's own arena, shared packed weight
// buffers) are data-race free and deterministic across goroutines.
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
