package main

import "time"

// peakLoop is a register-resident arithmetic loop and the number of
// operations one of its iterations performs.
type peakLoop struct {
	run        func(iters int)
	opsPerIter float64
}

// rate is the loop's best rate over a few repetitions, in 1e9 operations
// per second on the calling thread. A peak is a ceiling, so the best
// repetition is the estimate.
func (l peakLoop) rate() float64 {
	const iters = 1 << 20
	best := 0.0
	for rep := 0; rep < 7; rep++ {
		start := time.Now()
		l.run(iters)
		if r := l.opsPerIter * iters / time.Since(start).Seconds() / 1e9; r > best {
			best = r
		}
	}
	return best
}

// goPeakLoops is the portable fallback: scalar multiply-add chains the
// compiler keeps in registers. It calibrates what pure Go reaches, which is
// what the kernels' scalar paths are written in.
func goPeakLoops() (f64, f32, i8 peakLoop) {
	return peakLoop{goPeakF64, 8 * 2}, peakLoop{goPeakF32, 8 * 2}, peakLoop{goPeakI32, 8 * 2}
}

var peakSink float64

func goPeakF64(iters int) {
	a0, a1, a2, a3, a4, a5, a6, a7 := 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0
	x, y := 0.5, 0.25
	for i := 0; i < iters; i++ {
		a0, a1, a2, a3 = a0*x+y, a1*x+y, a2*x+y, a3*x+y
		a4, a5, a6, a7 = a4*x+y, a5*x+y, a6*x+y, a7*x+y
	}
	peakSink = a0 + a1 + a2 + a3 + a4 + a5 + a6 + a7
}

func goPeakF32(iters int) {
	var a0, a1, a2, a3, a4, a5, a6, a7 float32
	x, y := float32(0.5), float32(0.25)
	for i := 0; i < iters; i++ {
		a0, a1, a2, a3 = a0*x+y, a1*x+y, a2*x+y, a3*x+y
		a4, a5, a6, a7 = a4*x+y, a5*x+y, a6*x+y, a7*x+y
	}
	peakSink = float64(a0 + a1 + a2 + a3 + a4 + a5 + a6 + a7)
}

func goPeakI32(iters int) {
	var a0, a1, a2, a3, a4, a5, a6, a7 int32
	x, y := int32(3), int32(1)
	for i := 0; i < iters; i++ {
		a0, a1, a2, a3 = a0*x+y, a1*x+y, a2*x+y, a3*x+y
		a4, a5, a6, a7 = a4*x+y, a5*x+y, a6*x+y, a7*x+y
	}
	peakSink = float64(a0 + a1 + a2 + a3 + a4 + a5 + a6 + a7)
}
