//go:build amd64

package main

import "repro/internal/tensor"

func peakFMAF64(iters int)
func peakFMAF32(iters int)
func peakMADDI8(iters int)

// peakLoops returns the issue-rate loops and the operations one iteration
// of each performs: an FMA is two flops per lane, a VPMADDWD+VPADDD pair is
// sixteen 16-bit multiply-accumulates, two operations each — the same
// counting the kernel rates use.
func peakLoops() (f64, f32, i8 peakLoop) {
	if !tensor.SIMDAvailable() {
		return goPeakLoops()
	}
	return peakLoop{peakFMAF64, 10 * 4 * 2}, peakLoop{peakFMAF32, 10 * 8 * 2}, peakLoop{peakMADDI8, 6 * 16 * 2}
}
