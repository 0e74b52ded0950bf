package faults

import (
	"math"
	"math/rand"
	"sync"

	"repro/internal/tensor"
)

// KernelInjector flips bits inside live kernel output buffers during
// verified inference — the transient-compute-fault model the ABFT checksum
// epilogues (tensor.Verify*, DESIGN.md §10) exist to catch. Where Injector
// corrupts weights at rest (a fault in stored parameters), KernelInjector
// corrupts the freshly computed product the checksums are about to measure,
// modelling an upset that struck an accumulator or a store during the
// kernel itself. Install hands the injector to one verification sink; every
// verified kernel call recording into that sink (or, for a core.System's
// sink, into the per-call sinks drawn from it) then suffers at most one
// flip with probability Rate,
// so detections attribute 1:1 to injections and a campaign's detection
// rate is simply Detected/Injected.
//
// Flips target the high-order mantissa and exponent bits by default — the
// severity band real soft errors are dangerous in (low mantissa bits
// perturb below the checksum tolerance AND below any decision-relevant
// magnitude; they are misses by construction, not by weakness). Float flips
// skip zero and non-finite elements: flipping a mantissa bit of ±0 yields a
// denormal perturbation ~1e-300 that no tolerance can or should see. The
// int32 path is checked exactly, so every bit position is fair game there.
type KernelInjector struct {
	// Rate is the per-kernel-call probability of one bit flip.
	Rate float64
	// Lo64/Hi64, Lo32/Hi32 and LoI32/HiI32 are the inclusive bit ranges
	// flips are drawn from for float64, float32 and int32 buffers.
	Lo64, Hi64   int
	Lo32, Hi32   int
	LoI32, HiI32 int

	mu       sync.Mutex
	rng      *rand.Rand
	injected int
}

// NewKernelInjector builds an injector with a deterministic RNG and the
// default high-order bit ranges: f64 bits 47–62 (top mantissa + exponent,
// ≥ 2⁻⁵ relative), f32 bits 21–30 (≥ 2⁻² relative), int32 bits 0–30 (the
// exact integer check detects any of them).
func NewKernelInjector(seed int64, rate float64) *KernelInjector {
	return &KernelInjector{
		Rate: rate,
		Lo64: 47, Hi64: 62,
		Lo32: 21, Hi32: 30,
		LoI32: 0, HiI32: 30,
		rng: rand.New(rand.NewSource(seed)),
	}
}

// Install makes this injector the kernel corruption hook of s: verified
// kernels recording into s hand it their live output buffers. Install
// before the runs it strikes start.
func (ki *KernelInjector) Install(s *tensor.AbftStats) { s.Injector = ki }

// Injected returns how many bit flips have been applied so far.
func (ki *KernelInjector) Injected() int {
	ki.mu.Lock()
	defer ki.mu.Unlock()
	return ki.injected
}

// fire decides whether this kernel call suffers a flip.
func (ki *KernelInjector) fire() bool { return ki.rng.Float64() < ki.Rate }

// pickTarget returns a random index of buf holding a finite nonzero value,
// probing a bounded number of times (a buffer of all zeros yields no
// target).
func pickTarget[F interface{ ~float32 | ~float64 }](rng *rand.Rand, buf []F) (int, bool) {
	for try := 0; try < 32; try++ {
		i := rng.Intn(len(buf))
		v := float64(buf[i])
		if v != 0 && !math.IsNaN(v) && !math.IsInf(v, 0) {
			return i, true
		}
	}
	return 0, false
}

// CorruptF64 implements tensor.AbftInjector.
func (ki *KernelInjector) CorruptF64(buf []float64) {
	ki.mu.Lock()
	defer ki.mu.Unlock()
	if len(buf) == 0 || !ki.fire() {
		return
	}
	i, ok := pickTarget(ki.rng, buf)
	if !ok {
		return
	}
	bit := ki.Lo64 + ki.rng.Intn(ki.Hi64-ki.Lo64+1)
	buf[i] = math.Float64frombits(math.Float64bits(buf[i]) ^ (1 << uint(bit)))
	ki.injected++
}

// CorruptF32 implements tensor.AbftInjector.
func (ki *KernelInjector) CorruptF32(buf []float32) {
	ki.mu.Lock()
	defer ki.mu.Unlock()
	if len(buf) == 0 || !ki.fire() {
		return
	}
	i, ok := pickTarget(ki.rng, buf)
	if !ok {
		return
	}
	bit := ki.Lo32 + ki.rng.Intn(ki.Hi32-ki.Lo32+1)
	buf[i] = math.Float32frombits(math.Float32bits(buf[i]) ^ (1 << uint(bit)))
	ki.injected++
}

// CorruptI32 implements tensor.AbftInjector. The flip lands in the
// accumulators or, proportionally to its share of the checked state, in the
// column-sum sideband — both are covered by the exact int8 checksum.
func (ki *KernelInjector) CorruptI32(acc, colsum []int32) {
	ki.mu.Lock()
	defer ki.mu.Unlock()
	total := len(acc) + len(colsum)
	if total == 0 || !ki.fire() {
		return
	}
	i := ki.rng.Intn(total)
	bit := ki.LoI32 + ki.rng.Intn(ki.HiI32-ki.LoI32+1)
	if i < len(acc) {
		acc[i] ^= 1 << uint(bit)
	} else {
		colsum[i-len(acc)] ^= 1 << uint(bit)
	}
	ki.injected++
}
