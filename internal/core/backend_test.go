package core

import (
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/model"
	"repro/internal/nn"
	"repro/internal/tensor"
)

func TestParseBackend(t *testing.T) {
	cases := map[string]Backend{"": BackendF64, "f64": BackendF64, "f32": BackendF32, "int8": BackendInt8}
	for s, want := range cases {
		got, err := ParseBackend(s)
		if err != nil || got != want {
			t.Errorf("ParseBackend(%q) = %v, %v; want %v", s, got, err, want)
		}
	}
	for _, s := range []string{"f16", "INT8", "float32", "junk"} {
		if _, err := ParseBackend(s); err == nil {
			t.Errorf("ParseBackend(%q) accepted", s)
		}
	}
	if BackendInt8.String() != "int8" || BackendF32.String() != "f32" || BackendF64.String() != "f64" {
		t.Error("Backend.String round-trip broken")
	}
}

// backendSystem builds a 3-member system sharing one deterministic network
// per zoo topology, with the members set to the given backend and prepared
// on a calibration slice of the input pool.
func backendSystem(t *testing.T, b model.Benchmark, backend Backend) (*System, []*tensor.T) {
	t.Helper()
	sys, xs := unpreparedSystem(t, b, backend)
	if err := sys.PrepareBackends(xs[:8]); err != nil {
		t.Fatal(err)
	}
	return sys, xs
}

// unpreparedSystem is backendSystem before PrepareBackends: nothing is
// compiled or prepacked, which only an f64 system can serve.
func unpreparedSystem(t *testing.T, b model.Benchmark, backend Backend) (*System, []*tensor.T) {
	t.Helper()
	cfg, err := b.DatasetConfig(0) // dataset.Fast
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(71))
	net := b.Build(rng, cfg.Classes, []int{cfg.Channels, cfg.H, cfg.W})
	pres := []string{"ORG", "FlipX", "FlipY"}
	members := make([]Member, len(pres))
	for i, p := range pres {
		members[i] = Member{Name: p, Pre: mustPre(t, p), Net: net, Backend: backend}
	}
	sys, err := NewSystem(members, Thresholds{Conf: 0.2, Freq: 2})
	if err != nil {
		t.Fatal(err)
	}
	sys.Staged = true
	xs := make([]*tensor.T, 32)
	for i := range xs {
		xs[i] = tensor.New(cfg.Channels, cfg.H, cfg.W)
		xs[i].FillUniform(rng, 0, 1)
	}
	return sys, xs
}

// checkBatchEqualsSingle asserts the engine identity for one topology on
// one backend: Classify is the batched engine at a batch of one and the
// kernels are batch-composition invariant (nn.TestBatchCompositionInvariant),
// so at each Workers setting ClassifyBatch(xs)[i] must DeepEqual
// Classify(xs[i]) — label, reliability, votes, the RADE dropout schedule via
// Activated, and the Confidence to the bit. The batch sizes straddle the
// edges of the members' image tile t (t−1, t, t+1, 2t+1) and reach 64, so
// every stage splits into full and partial (member, tile) units.
func checkBatchEqualsSingle(t *testing.T, b model.Benchmark, backend Backend, workers ...int) {
	t.Helper()
	sys, base := backendSystem(t, b, backend)
	want := make([]Decision, len(base))
	for i, x := range base {
		want[i] = sys.Classify(x)
	}
	xs := make([]*tensor.T, 64)
	for i := range xs {
		xs[i] = base[i%len(base)]
	}
	tile := sys.Members[0].net.Tile()
	sizes := []int{1, tile + 1, 2*tile + 1, 64}
	if tile > 1 {
		sizes = append(sizes, tile-1, tile)
	}
	for _, w := range workers {
		sys.Workers = w
		for _, bsz := range sizes {
			got := sys.ClassifyBatch(xs[:min(bsz, len(xs))])
			for i := range got {
				if !reflect.DeepEqual(want[i%len(base)], got[i]) {
					t.Fatalf("workers=%d tile=%d B=%d image %d: batched %+v != single %+v", w, tile, bsz, i, got[i], want[i%len(base)])
				}
			}
		}
	}
}

// TestBackendBatchMatchesSequential locks the engine identity WITHIN each
// backend on multi-worker pools, for every zoo topology (see
// checkBatchEqualsSingle).
func TestBackendBatchMatchesSequential(t *testing.T) {
	for _, backend := range []Backend{BackendF64, BackendF32, BackendInt8} {
		for _, b := range model.Benchmarks() {
			b := b
			t.Run(backend.String()+"/"+b.Name, func(t *testing.T) {
				checkBatchEqualsSingle(t, b, backend, 2, 3)
			})
		}
	}
}

// TestClassifyEqualsClassifyBatch is the same identity on all three
// backends at Workers 1 and default — the two settings that used to select
// different engines for a single image.
func TestClassifyEqualsClassifyBatch(t *testing.T) {
	for _, backend := range []Backend{BackendF64, BackendF32, BackendInt8} {
		for _, b := range model.Benchmarks() {
			b := b
			t.Run(backend.String()+"/"+b.Name, func(t *testing.T) {
				checkBatchEqualsSingle(t, b, backend, 1, 0)
			})
		}
	}
}

// TestBackendAgreementWithF64 locks the accuracy contract of the reduced
// backends at the decision level: aggregated across every zoo topology,
// ClassifyBatch decisions under f32 and int8 must agree with the f64
// sequential reference on ≥99% of labels.
func TestBackendAgreementWithF64(t *testing.T) {
	for _, backend := range []Backend{BackendF32, BackendInt8} {
		t.Run(backend.String(), func(t *testing.T) {
			total, agree := 0, 0
			for _, b := range model.Benchmarks() {
				ref, xs := backendSystem(t, b, BackendF64)
				want := make([]Decision, len(xs))
				for i, x := range xs {
					want[i] = ref.Classify(x)
				}
				sys, _ := backendSystem(t, b, backend)
				sys.Workers = 3
				got := sys.ClassifyBatch(xs)
				for i := range got {
					total++
					if got[i].Label == want[i].Label {
						agree++
					} else {
						t.Logf("%s image %d: %s label %d != f64 %d", b.Name, i, backend, got[i].Label, want[i].Label)
					}
				}
			}
			if rate := float64(agree) / float64(total); rate < 0.99 {
				t.Fatalf("%s label agreement %d/%d = %.4f < 0.99", backend, agree, total, rate)
			}
		})
	}
}

// TestMemberInferMatchesClassify: the rows Member.Infer returns are the
// rows Classify votes on, on every backend — with staging off, Decide over
// every member's Infer row must DeepEqual Classify, Confidence bits
// included.
func TestMemberInferMatchesClassify(t *testing.T) {
	for _, be := range []Backend{BackendF64, BackendF32, BackendInt8} {
		sys, xs := raceFixture(t)
		sys.Staged = false
		for i := range sys.Members {
			sys.Members[i].Backend = be
		}
		if err := sys.PrepareBackends(xs[:4]); err != nil {
			t.Fatal(err)
		}
		for i, x := range xs {
			rows := make([][]float64, len(sys.Members))
			for m, mem := range sys.Members {
				rows[m] = mem.Infer(x)
			}
			if got, want := Decide(rows, sys.Th), sys.Classify(x); !reflect.DeepEqual(got, want) {
				t.Errorf("%s frame %d: Decide(Member.Infer rows) %+v != Classify %+v", be, i, got, want)
			}
		}
	}
}

// TestPrepareBackendsErrors covers the refusal paths.
func TestPrepareBackendsErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	net := nn.MustNetwork([]int{1, 8, 8}, 4,
		nn.NewConv2D(1, 3, 3, 1, 1, rng), nn.NewReLU(), nn.NewMaxPool2D(2),
		nn.NewFlatten(), nn.NewDense(3*4*4, 4, rng),
	)
	sys, err := NewSystem([]Member{{Name: "ORG", Pre: mustPre(t, "ORG"), Net: net, Backend: BackendInt8}},
		Thresholds{Conf: 0.2, Freq: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.PrepareBackends(nil); err == nil {
		t.Error("PrepareBackends accepted int8 without calibration data")
	}
	sys.Members[0].Backend = Backend(42)
	if err := sys.PrepareBackends(nil); err == nil {
		t.Error("PrepareBackends accepted an unknown backend")
	}
	// f64 needs no calibration and replaces any stale compiled net.
	sys.Members[0].Backend = BackendF64
	if err := sys.PrepareBackends(nil); err != nil {
		t.Errorf("PrepareBackends(f64) = %v", err)
	}
	// An ActivationHook blocks compilation on every backend — the served
	// graph fuses layers and cannot call it per layer — and the error
	// names the member.
	net.ActivationHook = func(int, *tensor.T) {}
	for _, be := range []Backend{BackendF64, BackendF32, BackendInt8} {
		sys.Members[0].Backend = be
		if err := sys.PrepareBackends(nil); err == nil || !strings.Contains(err.Error(), "member ORG") {
			t.Errorf("%s: PrepareBackends on a hooked network = %v, want an error naming member ORG", be, err)
		}
	}
	if _, err := NewSystem([]Member{{Name: "ORG", Pre: mustPre(t, "ORG"), Net: net}},
		Thresholds{Conf: 0.2, Freq: 1}); err == nil || !strings.Contains(err.Error(), "member ORG") {
		t.Errorf("NewSystem on a hooked network = %v, want an error naming member ORG", err)
	}
}

// TestBackendFingerprint locks that the backend schedule is
// decision-relevant configuration: changing any member's backend must
// change the system fingerprint (and with it every cache key).
func TestBackendFingerprint(t *testing.T) {
	sys, _ := backendSystem(t, testBenchmark("fp"), BackendF64)
	base := sys.ConfigFingerprint("")
	sys.Members[1].Backend = BackendInt8
	if sys.ConfigFingerprint("") == base {
		t.Error("changing a member backend kept the fingerprint")
	}
	sys.Members[1].Backend = BackendF32
	if sys.ConfigFingerprint("") == base {
		t.Error("f32 backend kept the fingerprint")
	}
}

// TestBackendInt8SharedRace is the shared-member hammer on the int8 path:
// four members share ONE underlying network, each compiled to its own int8
// net, and many goroutines run overlapping batched classifications on the
// shared System. Under -race this flags any mutation in the quantized
// forward pass; without it, the reference comparison still catches
// cross-talk corruption (int8 inference is bit-deterministic).
func TestBackendInt8SharedRace(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	net := nn.MustNetwork([]int{1, 8, 8}, 4,
		nn.NewConv2D(1, 3, 3, 1, 1, rng), nn.NewReLU(), nn.NewMaxPool2D(2),
		nn.NewFlatten(), nn.NewDense(3*4*4, 4, rng),
	)
	pres := []string{"ORG", "FlipX", "FlipY", "Gamma(2)"}
	members := make([]Member, len(pres))
	for i, p := range pres {
		members[i] = Member{Name: p, Pre: mustPre(t, p), Net: net, Backend: BackendInt8}
	}
	sys, err := NewSystem(members, Thresholds{Conf: 0.2, Freq: 2})
	if err != nil {
		t.Fatal(err)
	}
	sys.Staged = true
	sys.Workers = 3
	xs := make([]*tensor.T, 16)
	for i := range xs {
		xs[i] = tensor.New(1, 8, 8)
		for j := range xs[i].Data {
			xs[i].Data[j] = rng.Float64()
		}
	}
	if err := sys.PrepareBackends(xs[:4]); err != nil {
		t.Fatal(err)
	}

	want := sys.ClassifyBatch(xs)
	const goroutines = 8
	var wg sync.WaitGroup
	errs := make(chan string, goroutines)
	for g := 0; g < goroutines; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for rep := 0; rep < 4; rep++ {
				lo := (g + rep) % 8
				got := sys.ClassifyBatch(xs[lo : lo+8])
				for i := range got {
					if !reflect.DeepEqual(got[i], want[lo+i]) {
						errs <- "concurrent int8 decision diverged"
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}
