package preprocess

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/dataset"
	"repro/internal/tensor"
)

// The ref* functions are the ImAdj, Gamma and AdHist bodies as they were
// before the selection, multiply and in-place tile kernels replaced them:
// copy and fully sort every plane, math.Pow for every pixel, gather every
// tile into fresh slices. They are the oracle the kernels must match bit
// for bit.

func refImAdj(x *tensor.T) *tensor.T {
	c, h, w := x.Shape[0], x.Shape[1], x.Shape[2]
	out := tensor.New(c, h, w)
	for ci := 0; ci < c; ci++ {
		plane := x.Data[ci*h*w : (ci+1)*h*w]
		oplane := out.Data[ci*h*w : (ci+1)*h*w]
		sorted := append([]float64(nil), plane...)
		sort.Float64s(sorted)
		lo := sorted[len(sorted)/100]
		hi := sorted[len(sorted)-1-len(sorted)/100]
		span := hi - lo
		if span < 1e-9 {
			for i, v := range plane {
				oplane[i] = clamp01(v)
			}
			continue
		}
		for i, v := range plane {
			oplane[i] = clamp01((v - lo) / span)
		}
	}
	return out
}

func refGamma(g float64, x *tensor.T) *tensor.T {
	out := tensor.New(x.Shape...)
	for i, v := range x.Data {
		out.Data[i] = clamp01(math.Pow(clamp01(v), g))
	}
	return out
}

func refEqualize(dst, src []float64, clipLimit float64) {
	if len(src) == 0 {
		return
	}
	var hist [histBins]float64
	for _, v := range src {
		hist[binOf(v)]++
	}
	if clipLimit > 0 {
		limit := clipLimit * float64(len(src)) / histBins
		excess := 0.0
		for i := range hist {
			if hist[i] > limit {
				excess += hist[i] - limit
				hist[i] = limit
			}
		}
		share := excess / histBins
		for i := range hist {
			hist[i] += share
		}
	}
	var cdf [histBins]float64
	sum := 0.0
	for i, c := range hist {
		sum += c
		cdf[i] = sum
	}
	total := cdf[histBins-1]
	for i, v := range src {
		dst[i] = cdf[binOf(v)] / total
	}
}

func refAdHist(tiles int, x *tensor.T) *tensor.T {
	if tiles <= 0 {
		tiles = 4
	}
	c, h, w := x.Shape[0], x.Shape[1], x.Shape[2]
	out := tensor.New(c, h, w)
	for ci := 0; ci < c; ci++ {
		plane := x.Data[ci*h*w : (ci+1)*h*w]
		oplane := out.Data[ci*h*w : (ci+1)*h*w]
		for ty := 0; ty < tiles; ty++ {
			for tx := 0; tx < tiles; tx++ {
				y0, y1 := ty*h/tiles, (ty+1)*h/tiles
				x0, x1 := tx*w/tiles, (tx+1)*w/tiles
				var src []float64
				var flatIdx []int
				for y := y0; y < y1; y++ {
					for xx := x0; xx < x1; xx++ {
						src = append(src, plane[y*w+xx])
						flatIdx = append(flatIdx, y*w+xx)
					}
				}
				dst := make([]float64, len(src))
				refEqualize(dst, src, 3)
				for i, fi := range flatIdx {
					oplane[fi] = dst[i]
				}
			}
		}
	}
	return out
}

func refHist(x *tensor.T) *tensor.T {
	c, h, w := x.Shape[0], x.Shape[1], x.Shape[2]
	out := tensor.New(c, h, w)
	for ci := 0; ci < c; ci++ {
		refEqualize(out.Data[ci*h*w:(ci+1)*h*w], x.Data[ci*h*w:(ci+1)*h*w], 0)
	}
	return out
}

// oracleCases pairs every rewritten kernel with its reference.
func oracleCases() []struct {
	p   Preprocessor
	ref func(*tensor.T) *tensor.T
} {
	cases := []struct {
		p   Preprocessor
		ref func(*tensor.T) *tensor.T
	}{
		{ImAdj{}, refImAdj},
		{Hist{}, refHist},
		{AdHist{}, func(x *tensor.T) *tensor.T { return refAdHist(0, x) }},
		{AdHist{Tiles: 3}, func(x *tensor.T) *tensor.T { return refAdHist(3, x) }},
		{AdHist{Tiles: 50}, func(x *tensor.T) *tensor.T { return refAdHist(50, x) }},
	}
	for _, g := range []float64{2, 3, 4, 5, 7, 8, 16, 1000, 1 << 31, 1.5, 1, 0.5, 0, -1, -2, math.NaN(), math.Inf(1)} {
		g := g
		cases = append(cases, struct {
			p   Preprocessor
			ref func(*tensor.T) *tensor.T
		}{Gamma{G: g}, func(x *tensor.T) *tensor.T { return refGamma(g, x) }})
	}
	return cases
}

// dirty returns a tensor of x's shape filled with values no kernel
// produces, so a pixel ApplyTo failed to overwrite shows.
func dirty(x *tensor.T) *tensor.T {
	d := tensor.New(x.Shape...)
	d.Fill(-7)
	return d
}

// checkAgainstOracle asserts Apply ≡ ApplyTo into a dirty dst ≡ reference,
// by bit pattern, and that the input is untouched.
func checkAgainstOracle(t *testing.T, what string, x *tensor.T) {
	t.Helper()
	orig := x.Clone()
	for _, c := range oracleCases() {
		want := c.ref(x)
		got := c.p.Apply(x)
		into := dirty(x)
		c.p.ApplyTo(into, x)
		for i := range want.Data {
			w, g, d := math.Float64bits(want.Data[i]), math.Float64bits(got.Data[i]), math.Float64bits(into.Data[i])
			if w != g || w != d {
				t.Fatalf("%s, %s: pixel %d (input %v): oracle %v (%#x), Apply %v (%#x), ApplyTo %v (%#x)",
					what, c.p.Name(), i, x.Data[i], want.Data[i], w, got.Data[i], g, into.Data[i], d)
			}
		}
		for i := range x.Data {
			if math.Float64bits(x.Data[i]) != math.Float64bits(orig.Data[i]) {
				t.Fatalf("%s, %s: input modified at %d", what, c.p.Name(), i)
			}
		}
	}
}

// TestKernelsMatchOracleOnTestImages runs the whole held-out split of the
// dataset the serving benchmark draws from.
func TestKernelsMatchOracleOnTestImages(t *testing.T) {
	ds, err := dataset.Generate(dataset.SynthCIFAR(dataset.ActiveProfile()))
	if err != nil {
		t.Fatal(err)
	}
	if len(ds.Test) == 0 {
		t.Fatal("empty test split")
	}
	for i, s := range ds.Test {
		checkAgainstOracle(t, fmt.Sprintf("test image %d", i), s.X)
	}
}

// TestKernelsMatchOracleOnAdversarialPlanes covers what natural images do
// not: ties, non-finite and subnormal values, both zeros, orderings that
// defeat a median-of-three pivot, and every 16-bit intensity.
func TestKernelsMatchOracleOnAdversarialPlanes(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	nan, inf := math.NaN(), math.Inf(1)
	negZero := math.Copysign(0, -1)
	const sub = 5e-324
	fill := func(n int, f func(i int) float64) []float64 {
		p := make([]float64, n)
		for i := range p {
			p[i] = f(i)
		}
		return p
	}
	pick := func(vals ...float64) func(int) float64 {
		return func(int) float64 { return vals[rng.Intn(len(vals))] }
	}
	const n = 32 * 32
	planes := map[string][]float64{
		"all equal":          fill(n, func(int) float64 { return 0.25 }),
		"all zero":           fill(n, func(int) float64 { return 0 }),
		"all negative zero":  fill(n, func(int) float64 { return negZero }),
		"all NaN":            fill(n, func(int) float64 { return nan }),
		"two valued":         fill(n, pick(0.2, 0.8)),
		"two valued, rare":   fill(n, func(i int) float64 { return map[bool]float64{true: 0.9, false: 0.1}[i%200 == 0] }),
		"both zeros":         fill(n, pick(0, negZero)),
		"both zeros and ink": fill(n, pick(0, negZero, negZero, 0.5, 1)),
		"zeros below lo":     fill(n, func(i int) float64 { return []float64{-1, -1, 0, negZero, 0.5}[i%5] }),
		"few NaN":            fill(n, func(i int) float64 { return map[bool]float64{true: nan, false: rng.Float64()}[i < 5] }),
		"NaN up to lo":       fill(n, func(i int) float64 { return map[bool]float64{true: nan, false: rng.Float64()}[i%100 < 1] }),
		"mostly NaN":         fill(n, func(i int) float64 { return map[bool]float64{true: rng.Float64(), false: nan}[i%64 == 0] }),
		"NaN and Inf":        fill(n, pick(nan, inf, -inf, 0.5, 2, -3)),
		"Inf tails":          fill(n, func(i int) float64 { return map[int]float64{0: -inf, 1: inf}[i%40] + rng.Float64() }),
		"subnormals":         fill(n, func(int) float64 { return sub * float64(rng.Intn(1<<20)) }),
		"subnormal squares":  fill(n, func(int) float64 { return math.Ldexp(0.5+rng.Float64()/2, -rng.Intn(1080)) }),
		"near 2^-511":        fill(n, func(int) float64 { return math.Ldexp(1+rng.Float64()*2e-3-1e-3, -511) }),
		"near cube root":     fill(n, func(int) float64 { return math.Ldexp(0.5+rng.Float64()/2, -340-rng.Intn(3)) }),
		"ascending":          fill(n, func(i int) float64 { return float64(i) / n }),
		"descending":         fill(n, func(i int) float64 { return float64(n-i) / n }),
		"organ pipe":         fill(n, func(i int) float64 { return float64(min(i, n-i)) / n }),
		"sawtooth":           fill(n, func(i int) float64 { return float64(i%7) / 7 }),
		"out of range":       fill(n, func(int) float64 { return rng.NormFloat64() * 3 }),
		"huge":               fill(n, pick(1e300, -1e300, 1e-300, 0.5)),
	}
	for name, p := range planes {
		checkAgainstOracle(t, name, tensor.FromSlice(p, 1, 32, 32))
	}

	// Every 16-bit intensity, in order and shuffled.
	all16 := fill(1<<16, func(i int) float64 { return float64(i) / 65535 })
	checkAgainstOracle(t, "k/65535", tensor.FromSlice(all16, 1, 256, 256))
	shuffled := append([]float64(nil), all16...)
	rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	checkAgainstOracle(t, "k/65535 shuffled", tensor.FromSlice(shuffled, 1, 256, 256))

	// Shapes around the percentile index arithmetic and the tile grid.
	for _, shape := range [][3]int{{1, 1, 1}, {1, 1, 2}, {2, 1, 3}, {1, 3, 1}, {3, 7, 5}, {1, 10, 10}, {1, 10, 20}, {2, 13, 31}} {
		x := tensor.New(shape[0], shape[1], shape[2])
		for i := range x.Data {
			x.Data[i] = rng.Float64()
		}
		checkAgainstOracle(t, fmt.Sprint("shape ", shape), x)
		for i := range x.Data {
			x.Data[i] = []float64{0, negZero, nan, 0.5, -1}[rng.Intn(5)]
		}
		checkAgainstOracle(t, fmt.Sprint("hostile shape ", shape), x)
	}
}

// TestPercentilesEveryRank checks both order statistics at every rank
// percentiles accepts, on small planes with ties, NaNs (from none to
// almost all) and both zeros, against sort.Float64s. The low one is
// compared bit for bit, since its sign reaches ImAdj's output through
// v - lo; the high one by value, since it enters only through hi - lo,
// where the sign of a zero cannot show.
func TestPercentilesEveryRank(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	negZero := math.Copysign(0, -1)
	for _, n := range []int{1, 2, 3, 4, 5, 17, 64, 257} {
		for _, nanShare := range []float64{0, 0.2, 0.5, 0.9} {
			for trial := 0; trial < 4; trial++ {
				src := make([]float64, n)
				for i := range src {
					switch r := rng.Float64(); {
					case r < nanShare:
						src[i] = math.NaN()
					case r < nanShare+0.1:
						src[i] = 0
					case r < nanShare+0.2:
						src[i] = negZero
					default:
						src[i] = float64(rng.Intn(n/2+1) - n/4) // plenty of ties
					}
				}
				sorted := append([]float64(nil), src...)
				sort.Float64s(sorted)
				for k := 0; k < max(n/2, 1); k++ {
					lo, hi := percentiles(make([]float64, n), src, k)
					wantLo, wantHi := sorted[k], sorted[n-1-k]
					if math.Float64bits(lo) != math.Float64bits(wantLo) && !(math.IsNaN(lo) && math.IsNaN(wantLo)) {
						t.Fatalf("n=%d k=%d %v: lo %v, want %v", n, k, src, lo, wantLo)
					}
					if hi != wantHi && !(math.IsNaN(hi) && math.IsNaN(wantHi)) {
						t.Fatalf("n=%d k=%d %v: hi %v, want %v", n, k, src, hi, wantHi)
					}
				}
			}
		}
	}
}

// BenchmarkPreprocess times the two members the serving budget named, one
// 3×32×32 image per op, through the allocation-free form the batch engine
// calls.
func BenchmarkPreprocess(b *testing.B) {
	x := randImage(1, 3, 32, 32)
	dst := tensor.New(x.Shape...)
	for _, bc := range []struct {
		name string
		p    Preprocessor
	}{{"ImAdj", ImAdj{}}, {"Gamma2", Gamma{G: 2}}} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				bc.p.ApplyTo(dst, x)
			}
		})
	}
}
