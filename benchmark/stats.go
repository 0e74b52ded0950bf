package main

import (
	"math"
	"sort"
)

// percentile returns the p-th percentile (0–100) of sorted by the
// nearest-rank rule; 0 for an empty sample.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// samplesBeyond is how many samples lie strictly above the p-th percentile
// of a sample of n under the nearest-rank rule.
func samplesBeyond(n int, p float64) int {
	return n - int(math.Ceil(p/100*float64(n)))
}

// supportedTail lowers the wanted tail percentile along 99 → 95 → 90 → 75
// until at least ten samples lie beyond it, and returns 50 when none does.
func supportedTail(n int, want float64) float64 {
	for _, p := range []float64{99, 95, 90, 75} {
		if p <= want && samplesBeyond(n, p) >= 10 {
			return p
		}
	}
	return 50
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(xs, n=4) does (exclusive method), which is what the
// acceptance rule for the benchmark's spread is written against.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0]
		}
		return 0, 0
	}
	at := func(i int) float64 {
		pos := float64(i) * float64(n+1) / 4
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		d := pos - float64(j)
		return s[j-1] + d*(s[j]-s[j-1])
	}
	return at(1), at(3)
}

// windowRates cuts [0, span) into equal windows and returns each window's
// rate in units per second. Piece i of work lasted from from[i] to to[i]
// (seconds from the phase start) and contributes weight[i], spread evenly
// over that interval — so a 32-image request that straddles a window edge
// counts on both sides in proportion. Work outside the span is dropped.
func windowRates(from, to, weight []float64, span float64, windows int) []float64 {
	rates := make([]float64, windows)
	width := span / float64(windows)
	for i := range to {
		a, b := from[i], to[i]
		if b <= a { // instantaneous: all of it lands in one window
			if b >= 0 && b < span {
				rates[int(b/width)] += weight[i]
			}
			continue
		}
		density := weight[i] / (b - a)
		for w := max(int(a/width), 0); w < windows && float64(w)*width < b; w++ {
			lo, hi := max(a, float64(w)*width), min(b, float64(w+1)*width)
			if hi > lo {
				rates[w] += density * (hi - lo)
			}
		}
	}
	for i := range rates {
		rates[i] /= width
	}
	return rates
}

// midMean is the interquartile mean of an ascending sample: the mean of
// the values between the first and the third quartile. Like the median it
// ignores both tails; unlike the median it moves smoothly when the sample
// has two modes of similar weight, where the median jumps from one to the
// other.
func midMean(sorted []float64) float64 {
	n := len(sorted)
	if n < 4 {
		return mean(sorted)
	}
	return mean(sorted[n/4 : n-n/4])
}

// trimmedMean drops the smallest and the largest value and averages the
// rest (the plain mean for fewer than three values).
func trimmedMean(xs []float64) float64 {
	if len(xs) < 3 {
		return mean(xs)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return mean(s[1 : len(s)-1])
}

func sum(xs []float64) float64 {
	total := 0.0
	for _, x := range xs {
		total += x
	}
	return total
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sum(xs) / float64(len(xs))
}
