package core

import (
	"math/rand"
	"testing"

	"repro/internal/nn"
	"repro/internal/tensor"
)

// benchFixture builds an untrained (random-weight) 4-member system and a
// 32-image workload. Untrained weights classify garbage but cost exactly the
// same FLOPs as trained ones, so the fixture benchmarks the execution
// strategies without paying zoo training time. Staged activation is off so
// every strategy does identical work (all members on all images).
func benchFixture(b *testing.B) (*System, []*tensor.T) {
	b.Helper()
	rng := rand.New(rand.NewSource(3))
	members := make([]Member, 4)
	for i, p := range []string{"ORG", "FlipX", "FlipY", "Gamma(2)"} {
		net := nn.MustNetwork([]int{1, 16, 16}, 10,
			nn.NewConv2D(1, 6, 3, 1, 1, rng), nn.NewReLU(), nn.NewMaxPool2D(2),
			nn.NewConv2D(6, 8, 3, 1, 1, rng), nn.NewReLU(), nn.NewMaxPool2D(2),
			nn.NewFlatten(), nn.NewDense(8*4*4, 10, rng),
		)
		members[i] = Member{Name: p, Pre: mustPre(b, p), Net: net}
	}
	sys, err := NewSystem(members, Thresholds{Conf: 0.3, Freq: 3})
	if err != nil {
		b.Fatal(err)
	}
	sys.Staged = false
	xs := make([]*tensor.T, 32)
	for i := range xs {
		xs[i] = tensor.New(1, 16, 16)
		for j := range xs[i].Data {
			xs[i].Data[j] = rng.Float64()
		}
	}
	return sys, xs
}

// The benchmarks below process the same 32-image workload per iteration,
// so ns/op and allocs/op are directly comparable across strategies
// (EXPERIMENTS.md records the numbers).

func BenchmarkClassifySequential(b *testing.B) {
	sys, xs := benchFixture(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, x := range xs {
			sys.Classify(x)
		}
	}
}

func BenchmarkClassifyBatch(b *testing.B) {
	sys, xs := benchFixture(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sys.ClassifyBatch(xs)
	}
}

// BenchmarkClassifyBatchSingleWorker isolates the arena effect: one worker,
// so the entire allocation win over BenchmarkClassifySequential comes from
// scratch-buffer reuse rather than parallelism.
func BenchmarkClassifyBatchSingleWorker(b *testing.B) {
	sys, xs := benchFixture(b)
	sys.Workers = 1
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sys.ClassifyBatch(xs)
	}
}
