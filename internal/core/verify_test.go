package core

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/model"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// TestVerifiedCleanMatchesUnverified locks the central ABFT property at the
// system level: verification is a pure epilogue, so on fault-free runs a
// verified system must produce decisions IDENTICAL to an unverified one —
// every field, Confidence included — across the full model zoo, all three
// backends, the sequential and batched engines and B ∈ {1, 2, 7, 32}.
// Checks must have been performed and nothing detected.
func TestVerifiedCleanMatchesUnverified(t *testing.T) {
	for _, backend := range []Backend{BackendF64, BackendF32, BackendInt8} {
		for _, b := range model.Benchmarks() {
			b := b
			t.Run(backend.String()+"/"+b.Name, func(t *testing.T) {
				ref, xs := backendSystem(t, b, backend)
				sys, _ := backendSystem(t, b, backend)
				sys.PrepareVerified(true)
				if !sys.Verified() || ref.Verified() {
					t.Fatal("PrepareVerified wiring broken")
				}
				for i, x := range xs {
					want := ref.Classify(x)
					got := sys.Classify(x)
					if !reflect.DeepEqual(want, got) {
						t.Fatalf("image %d: verified %+v != unverified %+v", i, got, want)
					}
				}
				for _, bsz := range []int{1, 2, 7, 32} {
					for _, workers := range []int{1, 3} {
						ref.Workers, sys.Workers = workers, workers
						want := ref.ClassifyBatch(xs[:bsz])
						got := sys.ClassifyBatch(xs[:bsz])
						if !reflect.DeepEqual(want, got) {
							t.Fatalf("B=%d workers=%d: verified batch diverged", bsz, workers)
						}
					}
				}
				c := sys.AbftCounts()
				if c.Checks == 0 {
					t.Fatal("verified system performed no checksum checks")
				}
				if c.Detected != 0 || c.Corrected != 0 || c.Uncorrectable != 0 {
					t.Fatalf("clean run reported faults: %+v", c)
				}
			})
		}
	}
}

// TestPrepareVerifiedToggle pins the half-configured-is-just-unverified
// contract: flags without a sink (or a later PrepareVerified(false)) leave
// the system running plain kernels with zero accounting.
func TestPrepareVerifiedToggle(t *testing.T) {
	sys, xs := backendSystem(t, testBenchmark("verify-toggle"), BackendF64)
	sys.PrepareVerified(true)
	sys.Classify(xs[0])
	if sys.AbftCounts().Checks == 0 {
		t.Fatal("verified classify performed no checks")
	}
	sys.PrepareVerified(false)
	if sys.Verified() {
		t.Fatal("PrepareVerified(false) left the system verified")
	}
	for i := range sys.Members {
		if sys.Members[i].Verified {
			t.Fatal("PrepareVerified(false) left member flags set")
		}
	}
	if c := sys.AbftCounts(); c != (tensor.AbftCounts{}) {
		t.Fatalf("unverified system reports counts: %+v", c)
	}
}

// corruptOnce is a minimal tensor.AbftInjector that lands exactly one large
// perturbation in the first float64 buffer it sees.
type corruptOnce struct{ fired bool }

func (c *corruptOnce) CorruptF64(buf []float64) {
	if !c.fired && len(buf) > 0 {
		buf[0] += 1e8
		c.fired = true
	}
}
func (c *corruptOnce) CorruptF32(buf []float32)       {}
func (c *corruptOnce) CorruptI32(acc, colsum []int32) {}

// TestVerifiedUncorrectableAbstains drives the suspect-vote path end to
// end: one output corruption plus a retry hook that corrupts an operand
// (the member's conv weights) makes re-execution reproduce the mismatch, so
// the fault is uncorrectable and the member's probability row must abstain
// as the uniform distribution — the decision cannot clear any confidence
// threshold above chance.
func TestVerifiedUncorrectableAbstains(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	net := nn.MustNetwork([]int{1, 8, 8}, 4,
		nn.NewConv2D(1, 3, 3, 1, 1, rng), nn.NewReLU(), nn.NewMaxPool2D(2),
		nn.NewFlatten(), nn.NewDense(3*4*4, 4, rng),
	)
	sys, err := NewSystem([]Member{{Name: "ORG", Pre: mustPre(t, "ORG"), Net: net}},
		Thresholds{Conf: 0.5, Freq: 1})
	if err != nil {
		t.Fatal(err)
	}
	sys.PrepareVerified(true)

	x := tensor.New(1, 8, 8)
	x.FillUniform(rng, 0, 1)

	sink := sys.AbftSink()
	sink.Injector = &corruptOnce{}
	// Corrupt the CENTER tap of the first 3×3 kernel: for the corrupted
	// output column 0 (pixel (0,0)) the corner taps multiply zero padding,
	// so only a tap that touches live input makes the recompute diverge.
	w := net.Params()[0].Value.Data
	sink.RetryHook = func(int) { w[4] = 1e30 }

	d := sys.Classify(x)
	c := sys.AbftCounts()
	if c.Uncorrectable == 0 {
		t.Fatalf("persistent fault not reported uncorrectable: %+v", c)
	}
	if d.Reliable {
		t.Fatalf("suspect member produced a reliable decision: %+v", d)
	}
	// The uniform row cannot clear Thr_Conf = 0.5, so the member's vote is
	// not accepted at all: the decision escalates with an empty vote
	// histogram and zero confidence.
	if len(d.Votes) != 0 || d.Confidence != 0 {
		t.Fatalf("abstaining member still voted: %+v", d)
	}
}

// restoreOnSecond is corruptOnce for a fault that stays uncorrectable
// through one product only: its first float64 buffer takes the
// perturbation, and its second — the next verified product — runs undo
// first, so later products compute on clean operands again.
type restoreOnSecond struct {
	corruptOnce
	calls int
	undo  func()
}

func (r *restoreOnSecond) CorruptF64(buf []float64) {
	if r.calls++; r.calls == 2 {
		r.undo()
	}
	r.corruptOnce.CorruptF64(buf)
}

// TestVerifiedUncorrectableAbstainsPerTile: the engine's unit of work is a
// (member, image tile) forward, so an uncorrectable fault voids only the
// rows of the tile it hit. At Workers=1 a batch of two tiles runs them in
// order; a one-shot fault made persistent across re-execution lands in the
// first tile's convolution, and the weights are restored before the second
// tile's. Every first-tile decision abstains; every second-tile decision
// DeepEquals the clean run.
func TestVerifiedUncorrectableAbstainsPerTile(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	net := nn.MustNetwork([]int{1, 8, 8}, 4,
		nn.NewConv2D(1, 3, 3, 1, 1, rng), nn.NewReLU(), nn.NewMaxPool2D(2),
		nn.NewFlatten(), nn.NewDense(3*4*4, 4, rng),
	)
	// Thr_Conf just above chance: the uniform row of an abstaining member
	// never clears it, a clean row usually does.
	sys, err := NewSystem([]Member{{Name: "ORG", Pre: mustPre(t, "ORG"), Net: net}},
		Thresholds{Conf: 0.26, Freq: 1})
	if err != nil {
		t.Fatal(err)
	}
	sys.PrepareVerified(true)
	sys.Workers = 1
	tile := sys.Members[0].net.Tile()
	xs := make([]*tensor.T, 2*tile)
	for i := range xs {
		xs[i] = tensor.New(1, 8, 8)
		xs[i].FillUniform(rng, 0, 1)
	}
	want := sys.ClassifyBatch(xs)

	w := net.Params()[0].Value.Data
	orig := w[4]
	sink := sys.AbftSink()
	sink.Injector = &restoreOnSecond{undo: func() { w[4] = orig }}
	// As in TestVerifiedUncorrectableAbstains: the center tap touches live
	// input for the corrupted column, so the recompute diverges again.
	sink.RetryHook = func(int) { w[4] = 1e30 }

	got := sys.ClassifyBatch(xs)
	if c := sys.AbftCounts(); c.Uncorrectable != 1 {
		t.Fatalf("want exactly one uncorrectable product: %+v", c)
	}
	voted := 0
	for i := 0; i < tile; i++ {
		voted += len(want[i].Votes)
		if len(got[i].Votes) != 0 || got[i].Confidence != 0 || got[i].Reliable {
			t.Fatalf("image %d of the faulted tile still voted: %+v", i, got[i])
		}
	}
	if voted == 0 {
		t.Fatal("no first-tile image voted in the clean run; the test checks nothing")
	}
	if !reflect.DeepEqual(got[tile:], want[tile:]) {
		t.Fatal("the fault reached decisions outside the tile it hit")
	}
}
