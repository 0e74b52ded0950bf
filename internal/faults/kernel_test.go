package faults

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/nn"
	"repro/internal/tensor"
)

func testImages(n int) []*tensor.T {
	rng := rand.New(rand.NewSource(9))
	xs := make([]*tensor.T, n)
	for i := range xs {
		x := tensor.New(1, 8, 8)
		x.FillNormal(rng, 0.5, 0.2)
		xs[i] = x
	}
	return xs
}

// rowsClose compares probability rows treating NaN==NaN as equal (weight
// faults can legitimately drive both execution paths to NaN).
func rowsClose(t *testing.T, a, b []float64, tol float64, ctx string) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: row length %d vs %d", ctx, len(a), len(b))
	}
	for i := range a {
		if math.IsNaN(a[i]) && math.IsNaN(b[i]) {
			continue
		}
		if d := math.Abs(a[i] - b[i]); !(d <= tol) {
			t.Fatalf("%s: element %d: %v vs %v (|Δ|=%v > %v)", ctx, i, a[i], b[i], d, tol)
		}
	}
}

// TestKernelInjectionCoverageF64 runs a live-buffer bit-flip campaign
// against the compiled float64 net one image at a time — a batch of one,
// which is what a lone served image runs; the convolutions run on the
// explicit GEMM and the conv checksum epilogue checks them. Every verified
// kernel call suffers one high-order mantissa/exponent flip, and the
// checksum epilogues must detect nearly all of them and correct every
// detection. When nothing slipped through, the repaired probabilities
// match the fault-free run bit for bit: repair re-runs a GEMM column
// through the served GEMM driver, and a dense row through the served dot.
func TestKernelInjectionCoverageF64(t *testing.T) {
	net, err := nn.Compile[float64](testNet(t))
	if err != nil {
		t.Fatal(err)
	}
	xs := testImages(60)
	a := tensor.NewArena()
	infer := func(x *tensor.T) []float64 {
		row := net.InferBatch([]*tensor.T{x}, a)[0]
		a.Reset()
		return row
	}
	clean := make([][]float64, len(xs))
	for i, x := range xs {
		clean[i] = infer(x)
	}

	ki := NewKernelInjector(41, 1)
	ki.Install()
	st := &tensor.AbftStats{}
	a.SetAbft(st)
	faulty := make([][]float64, len(xs))
	for i, x := range xs {
		faulty[i] = infer(x)
	}
	ki.Remove()

	c := st.Counts()
	inj := uint64(ki.Injected())
	if inj < 100 {
		t.Fatalf("campaign too small: %d flips", inj)
	}
	if c.Uncorrectable != 0 {
		t.Fatalf("transient flips must be correctable: %+v", c)
	}
	if c.Corrected != c.Detected {
		t.Fatalf("detected %d but corrected %d", c.Detected, c.Corrected)
	}
	if rate := float64(c.Detected) / float64(inj); rate < 0.95 {
		t.Fatalf("f64 detection rate %.3f < 0.95 (%d/%d)", rate, c.Detected, inj)
	}
	if c.Detected == inj {
		for i := range xs {
			rowsClose(t, faulty[i], clean[i], 0, "f64 corrected run")
		}
	}
}

// TestKernelInjectionCoverageBatched drives the same campaign through the
// compiled f64 net's fused minibatch kernels, which the weight-fault tests
// in this package never reach. testNet's padded 3×3 conv has an 8×8
// output, so B=48 (GEMM width 3072) runs the explicit lowering and B=64
// (4096 = tensor.ImplicitConvMinN) the implicit GEMM; the checksums must
// catch and repair flips on both, and corrected outputs match the clean
// batched run bit for bit.
func TestKernelInjectionCoverageBatched(t *testing.T) {
	for _, bsz := range []int{48, 64} {
		t.Run(fmt.Sprintf("B%d", bsz), func(t *testing.T) { batchedCampaignF64(t, bsz) })
	}
}

func batchedCampaignF64(t *testing.T, bsz int) {
	net, err := nn.Compile[float64](testNet(t))
	if err != nil {
		t.Fatal(err)
	}
	xs := testImages(bsz)
	a := tensor.NewArena()
	clean := net.InferBatch(xs, a)
	a.Reset()

	ki := NewKernelInjector(43, 1)
	ki.Install()
	defer ki.Remove()
	st := &tensor.AbftStats{}
	a.SetAbft(st)
	// One fused call per layer per batch: loop rounds for statistics.
	var faulty [][][]float64
	for round := 0; round < 40; round++ {
		faulty = append(faulty, net.InferBatch(xs, a))
		a.Reset()
	}
	ki.Remove()

	c := st.Counts()
	inj := uint64(ki.Injected())
	if inj < 40 {
		t.Fatalf("campaign too small: %d flips", inj)
	}
	if c.Uncorrectable != 0 || c.Corrected != c.Detected {
		t.Fatalf("batched campaign outcome: %+v", c)
	}
	if rate := float64(c.Detected) / float64(inj); rate < 0.95 {
		t.Fatalf("batched f64 detection rate %.3f < 0.95 (%d/%d)", rate, c.Detected, inj)
	}
	if c.Detected == inj {
		for _, rows := range faulty {
			for i := range xs {
				rowsClose(t, rows[i], clean[i], 0, "batched corrected run")
			}
		}
	}
}

// TestKernelInjectionCoverageF32 runs the campaign against the float32
// backend's verified kernels: at B=60 (GEMM width 3840) on the explicit
// lowering, at B=64 on the implicit GEMM.
func TestKernelInjectionCoverageF32(t *testing.T) {
	for _, bsz := range []int{60, 64} {
		t.Run(fmt.Sprintf("B%d", bsz), func(t *testing.T) { campaignF32(t, bsz) })
	}
}

func campaignF32(t *testing.T, bsz int) {
	net := testNet(t)
	n32, err := net.Compile32()
	if err != nil {
		t.Fatal(err)
	}
	xs := testImages(bsz)
	a := tensor.NewArena32()
	clean := n32.InferBatch(xs, a)
	a.Reset()

	ki := NewKernelInjector(47, 1)
	ki.Install()
	st := &tensor.AbftStats{}
	a.SetAbft(st)
	var faulty [][][]float64
	for round := 0; round < 40; round++ {
		rows := n32.InferBatch(xs, a)
		faulty = append(faulty, rows)
		a.Reset()
	}
	ki.Remove()

	c := st.Counts()
	inj := uint64(ki.Injected())
	if inj < 40 {
		t.Fatalf("campaign too small: %d flips", inj)
	}
	if c.Uncorrectable != 0 || c.Corrected != c.Detected {
		t.Fatalf("campaign outcome %+v", c)
	}
	if rate := float64(c.Detected) / float64(inj); rate < 0.90 {
		t.Fatalf("f32 detection rate %.3f < 0.90 (%d/%d)", rate, c.Detected, inj)
	}
	if c.Detected == inj {
		// f32 repairs re-run the served kernels, so corrected
		// probabilities are the clean run's bits.
		for _, rows := range faulty {
			for i := range xs {
				rowsClose(t, rows[i], clean[i], 0, "f32 corrected run")
			}
		}
	}
}

// TestKernelInjectionCoverageInt8 covers the int8 backend, whose stride-1
// conv runs on the served direct shift kernel: the int32 checksum is
// exact, so EVERY flip — any bit of any accumulator or column sum — must
// be detected, and the repaired batch must reproduce the clean output bit
// for bit.
func TestKernelInjectionCoverageInt8(t *testing.T) {
	net := testNet(t)
	calib := testImages(8)
	n8, err := net.CompileInt8(calib)
	if err != nil {
		t.Fatal(err)
	}
	xs := testImages(8)

	a := tensor.NewArena32()
	clean := n8.InferBatch(xs, a)
	a.Reset()

	ki := NewKernelInjector(53, 1)
	ki.Install()
	defer ki.Remove()
	st := &tensor.AbftStats{}
	a.SetAbft(st)
	// The fused int8 kernels run once per layer per batch, so a single
	// batch only offers two injection sites; loop rounds to build a
	// campaign with real statistics.
	for round := 0; round < 60; round++ {
		faulty := n8.InferBatch(xs, a)
		for i := range xs {
			rowsClose(t, faulty[i], clean[i], 0, "int8 corrected run")
		}
		a.Reset()
	}
	ki.Remove()

	c := st.Counts()
	inj := uint64(ki.Injected())
	if inj < 100 {
		t.Fatalf("campaign too small: %d flips", inj)
	}
	if c.Detected != inj {
		t.Fatalf("int8 must detect every flip: %d/%d", c.Detected, inj)
	}
	if c.Uncorrectable != 0 || c.Corrected != c.Detected {
		t.Fatalf("campaign outcome: %+v", c)
	}
}

// TestCampaignBatchedMatchesSequential pins the batched/sequential
// contract under weight faults: a network corrupted by any of the fault
// models must produce the same probabilities through the compiled f64 net
// (InferBatchArena) as through per-image Network.Infer (within the documented 1e-9 batched-kernel
// tolerance). The weight-fault campaigns elsewhere in this package only
// ever exercised the sequential path.
func TestCampaignBatchedMatchesSequential(t *testing.T) {
	xs := testImages(7)
	for _, model := range []Model{BitFlip, StuckAtZero, SignFlip} {
		t.Run(model.String(), func(t *testing.T) {
			net := testNet(t)
			in := NewInjector(net, 17)
			if _, err := in.Inject(model, 6); err != nil {
				t.Fatal(err)
			}
			defer in.Revert()

			probs := net.InferBatchArena(xs, tensor.NewArena())
			for i, p := range probs {
				rowsClose(t, p, net.Infer(xs[i]).Data, 1e-9, "batched vs sequential")
			}
		})
	}
}
