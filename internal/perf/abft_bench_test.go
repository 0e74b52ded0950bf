package perf

import (
	"math"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/faults"
)

// Measured ABFT verified-mode benchmarks (DESIGN.md §10). Running them with
// -bench collects the clean-run overhead of checksum verification on the
// SynthCIFAR convnet system at B=32 per numeric backend, plus a live-buffer
// bit-flip campaign closing the loop against faults.KernelInjector, and
// TestMain writes the BENCH_abft.json report. The headline contract is
// overhead_pct ≤ 25 on every backend together with a ≥1000-flip campaign
// whose detected faults re-execution corrects back to the fault-free
// decisions.

// bestOfReps returns the fastest of reps timed passes of fn, in nanoseconds,
// after one untimed warmup pass. Min-of-N is robust against scheduler noise
// in a way mean-of-N is not, so both sides of the overhead ratio use it.
func bestOfReps(reps int, fn func()) float64 {
	fn()
	best := math.MaxFloat64
	for i := 0; i < reps; i++ {
		start := time.Now()
		fn()
		if e := float64(time.Since(start).Nanoseconds()); e < best {
			best = e
		}
	}
	return best
}

// BenchmarkAbftClassifyBatch measures the clean-run cost of verified mode on
// ClassifyBatch at B=32 per backend. The unverified baseline is measured in
// the same process on an identical second system, so overhead_pct compares
// like with like; the benchmark fails if the verified decisions diverge from
// the unverified ones on any frame (they must be identical on clean runs).
func BenchmarkAbftClassifyBatch(b *testing.B) {
	for _, backend := range []core.Backend{core.BackendF64, core.BackendF32, core.BackendInt8} {
		b.Run(backend.String(), func(b *testing.B) {
			ref, xs := quantSystem(b, backend)
			want := ref.ClassifyBatch(xs)

			sys, _ := quantSystem(b, backend)
			sys.PrepareVerified(true)
			got := sys.ClassifyBatch(xs)
			for i := range got {
				if got[i].Label != want[i].Label || got[i].Reliable != want[i].Reliable {
					b.Fatalf("verified clean decision diverges from unverified on frame %d", i)
				}
			}

			baseline := bestOfReps(8, func() { ref.ClassifyBatch(xs) })
			verified := bestOfReps(8, func() { sys.ClassifyBatch(xs) })
			before := sys.AbftCounts()
			e := timeOp(b, func() { sys.ClassifyBatch(xs) })
			c := sys.AbftCounts()
			if c.Detected != before.Detected {
				b.Fatalf("clean benchmark run detected faults: %+v", c)
			}
			checksPerBatch := float64(c.Checks-before.Checks) / float64(b.N)
			overheadPct := (verified/baseline - 1) * 100
			e.Metrics = map[string]float64{
				"overhead_pct":     overheadPct,
				"baseline_ns":      baseline,
				"verified_ns":      verified,
				"img_per_sec":      float64(len(xs)) * 1e9 / e.NsPerOp,
				"checks_per_batch": checksPerBatch,
			}
			b.ReportMetric(overheadPct, "overhead%")
			b.ReportMetric(checksPerBatch, "checks/batch")
		})
	}
}

// BenchmarkAbftInjection runs the closed-loop bit-flip campaign per backend:
// every verified kernel call suffers one high-order flip in its live output
// buffer (faults.KernelInjector at rate 1) and the campaign continues past
// the timed window until at least 1000 flips landed. The recorded metrics
// pin the measured detection rate, the correction outcome, and the fraction
// of campaign rounds whose decisions re-execution restored to the fault-free
// result; ns/op is the cost of a fully-faulty B=32 round including repairs.
func BenchmarkAbftInjection(b *testing.B) {
	const targetFlips = 1000
	for _, backend := range []core.Backend{core.BackendF64, core.BackendF32, core.BackendInt8} {
		b.Run(backend.String(), func(b *testing.B) {
			sys, xs := quantSystem(b, backend)
			sys.PrepareVerified(true)
			clean := sys.ClassifyBatch(xs)
			before := sys.AbftCounts()

			ki := faults.NewKernelInjector(211+int64(backend), 1)
			ki.Install(sys.AbftSink())
			rounds, faultFree := 0, 0
			round := func() {
				got := sys.ClassifyBatch(xs)
				rounds++
				for i := range got {
					if got[i].Label != clean[i].Label || got[i].Reliable != clean[i].Reliable {
						return
					}
				}
				faultFree++
			}
			e := timeOp(b, round)
			for ki.Injected() < targetFlips {
				round()
			}

			c := sys.AbftCounts()
			inj := uint64(ki.Injected())
			detected := c.Detected - before.Detected
			corrected := c.Corrected - before.Corrected
			uncorrectable := c.Uncorrectable - before.Uncorrectable
			rate := float64(detected) / float64(inj)
			if rate < 0.95 {
				b.Fatalf("detection rate %.3f (%d/%d flips) below the 0.95 floor", rate, detected, inj)
			}
			if backend == core.BackendInt8 && detected != inj {
				b.Fatalf("int8 checksums are exact but missed flips: %d/%d", detected, inj)
			}
			if uncorrectable == 0 && faultFree != rounds {
				b.Fatalf("all faults corrected yet %d/%d rounds diverged from the fault-free decisions",
					rounds-faultFree, rounds)
			}
			e.Metrics = map[string]float64{
				"flips":                float64(inj),
				"detection_rate":       rate,
				"corrected":            float64(corrected),
				"uncorrectable":        float64(uncorrectable),
				"fault_free_round_pct": 100 * float64(faultFree) / float64(rounds),
			}
			b.ReportMetric(100*rate, "detect%")
			b.ReportMetric(100*float64(faultFree)/float64(rounds), "faultfree%")
		})
	}
}
