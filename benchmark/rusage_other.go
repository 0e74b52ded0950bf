//go:build !unix

package main

// cpuSeconds is unavailable off Unix; CPU-based metrics read 0.
func cpuSeconds() float64 { return 0 }
