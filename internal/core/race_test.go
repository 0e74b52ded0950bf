package core

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"repro/internal/nn"
	"repro/internal/tensor"
)

// raceFixture builds a 4-member system in which every member shares ONE
// *nn.Network. Sharing a single network across members (and, in the tests,
// across goroutines) is the most race-sensitive configuration possible: if
// any layer's inference path mutated layer state, parameters, or the input —
// violating the internal/nn read-only contract — `go test -race` would flag
// it here. Preprocessor diversity keeps the member rows distinct so the
// decision engine does real voting work.
func raceFixture(t *testing.T) (*System, []*tensor.T) {
	t.Helper()
	rng := rand.New(rand.NewSource(99))
	net := nn.MustNetwork([]int{1, 8, 8}, 4,
		nn.NewConv2D(1, 3, 3, 1, 1, rng), nn.NewReLU(), nn.NewMaxPool2D(2),
		nn.NewFlatten(), nn.NewDense(3*4*4, 4, rng),
	)
	pres := []string{"ORG", "FlipX", "FlipY", "Gamma(2)"}
	members := make([]Member, len(pres))
	for i, p := range pres {
		members[i] = Member{Name: p, Pre: mustPre(t, p), Net: net}
	}
	sys, err := NewSystem(members, Thresholds{Conf: 0.2, Freq: 2})
	if err != nil {
		t.Fatal(err)
	}
	sys.Staged = true

	xs := make([]*tensor.T, 16)
	for i := range xs {
		xs[i] = tensor.New(1, 8, 8)
		for j := range xs[i].Data {
			xs[i].Data[j] = rng.Float64()
		}
	}
	return sys, xs
}

// TestClassifyConcurrentSharedSystem hammers one shared System from many
// goroutines with overlapping inputs, mixing serial and concurrent member
// fan-outs with batched calls, and checks every decision against a
// reference computed up front. Run under
// -race (the CI race job does), this test fails if any forward pass mutates
// shared state; run without, it still catches cross-talk corruption through
// the reference comparison.
func TestClassifyConcurrentSharedSystem(t *testing.T) {
	seq, xs := raceFixture(t)
	seq.Workers = 1
	par, _ := raceFixture(t)
	par.Workers = 4
	// par shares seq's members so every goroutine really hits one network.
	par.Members = seq.Members

	ref := make([]Decision, len(xs))
	for i, x := range xs {
		ref[i] = seq.Classify(x)
	}

	const goroutines = 8
	const iters = 25
	var wg sync.WaitGroup
	errs := make(chan string, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for it := 0; it < iters; it++ {
				switch (g + it) % 3 {
				case 0: // serial member fan-out over overlapping inputs
					for i, x := range xs {
						if d := seq.Classify(x); !reflect.DeepEqual(d, ref[i]) {
							errs <- "sequential decision diverged under concurrency"
							return
						}
					}
				case 1: // concurrent member fan-out
					for i, x := range xs {
						if d := par.Classify(x); !reflect.DeepEqual(d, ref[i]) {
							errs <- "concurrent fan-out decision diverged under concurrency"
							return
						}
					}
				default: // batched, overlapping window of the shared inputs
					lo := (g + it) % (len(xs) / 2)
					window := xs[lo : lo+len(xs)/2]
					ds := seq.ClassifyBatch(window)
					for i, d := range ds {
						if !reflect.DeepEqual(d, ref[lo+i]) {
							errs <- "batch decision diverged under concurrency"
							return
						}
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}

// TestRecordedConcurrentEvaluate exercises the compiled-representation cache
// (a sync.Map keyed by *Recorded) from many goroutines: concurrent first
// access may build the compiled form twice, but must never race or disagree.
func TestRecordedConcurrentEvaluate(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	rec := syntheticRecorded(rng, 4, 200, 5, []float64{0.9, 0.85, 0.8, 0.75})
	th := Thresholds{Conf: 0.5, Freq: 2}
	want := rec.Evaluate(th)

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for it := 0; it < 20; it++ {
				if got := rec.Evaluate(th); got != want {
					t.Errorf("concurrent Evaluate = %+v, want %+v", got, want)
					return
				}
				rec.Outcomes(Thresholds{Conf: 0.3, Freq: 3})
			}
		}()
	}
	wg.Wait()
}
