//go:build !amd64

package main

func peakLoops() (f64, f32, i8 peakLoop) { return goPeakLoops() }
