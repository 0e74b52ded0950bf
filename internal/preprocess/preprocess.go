// Package preprocess implements the image preprocessors of PolygraphMR's
// Layer 1 (paper Table I): the transforms that synthesize behaviour
// diversity between the member CNNs. The paper used OpenCV/MATLAB; these are
// stdlib reimplementations of the same transforms operating on [C,H,W]
// tensors with values in [0,1].
//
// Every preprocessor clamps its output into [0,1] (NaN sanitizes to 0), so
// out-of-contract pixels — NaN, Inf, or out-of-range values — cannot
// propagate into the member networks. For in-contract inputs the clamp is a
// no-op. FuzzPreprocess locks this hardening down.
package preprocess

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/tensor"
)

// Preprocessor transforms an input image into the view a member CNN is
// trained on and fed with. Implementations must not modify the input and
// must return a tensor of the same shape.
type Preprocessor interface {
	// Name is a stable identifier, e.g. "FlipX" or "Gamma(2)". It is used
	// in system configurations and zoo cache keys.
	Name() string
	// Apply returns the transformed image in a freshly allocated tensor.
	Apply(x *tensor.T) *tensor.T
	// ApplyTo writes the transformed image into dst, which must have x's
	// shape and must not share memory with x. Every element of dst is
	// overwritten, so dst may hold anything on entry, and the result is
	// bit-identical to Apply(x): Apply is ApplyTo into a new tensor.
	ApplyTo(dst, x *tensor.T)
}

// applyNew is the body of every Apply: ApplyTo into a new tensor.
func applyNew(p Preprocessor, x *tensor.T) *tensor.T {
	out := tensor.New(x.Shape...)
	p.ApplyTo(out, x)
	return out
}

// planes checks ApplyTo's contract on dst and returns x's [C,H,W] extents.
func planes(dst, x *tensor.T) (c, h, w int) {
	if len(dst.Data) != len(x.Data) {
		panic(fmt.Sprintf("preprocess: ApplyTo destination holds %d pixels, input %d", len(dst.Data), len(x.Data)))
	}
	return x.Shape[0], x.Shape[1], x.Shape[2]
}

// Identity passes in-range input through unchanged (modulo the package-wide
// [0,1] clamp); it represents the original (ORG) network in a PolygraphMR
// configuration.
type Identity struct{}

var _ Preprocessor = Identity{}

// Name implements Preprocessor.
func (Identity) Name() string { return "ORG" }

// Apply implements Preprocessor.
func (p Identity) Apply(x *tensor.T) *tensor.T { return applyNew(p, x) }

// ApplyTo implements Preprocessor.
func (Identity) ApplyTo(dst, x *tensor.T) {
	planes(dst, x)
	clampInto(dst.Data, x.Data)
}

// FlipX mirrors the image across the vertical axis (left-right flip).
type FlipX struct{}

var _ Preprocessor = FlipX{}

// Name implements Preprocessor.
func (FlipX) Name() string { return "FlipX" }

// Apply implements Preprocessor.
func (p FlipX) Apply(x *tensor.T) *tensor.T { return applyNew(p, x) }

// ApplyTo implements Preprocessor.
func (FlipX) ApplyTo(dst, x *tensor.T) {
	c, h, w := planes(dst, x)
	for ci := 0; ci < c; ci++ {
		for y := 0; y < h; y++ {
			row := x.Data[ci*h*w+y*w : ci*h*w+(y+1)*w]
			orow := dst.Data[ci*h*w+y*w : ci*h*w+(y+1)*w]
			for i := 0; i < w; i++ {
				orow[i] = clamp01(row[w-1-i])
			}
		}
	}
}

// FlipY mirrors the image across the horizontal axis (top-bottom flip).
type FlipY struct{}

var _ Preprocessor = FlipY{}

// Name implements Preprocessor.
func (FlipY) Name() string { return "FlipY" }

// Apply implements Preprocessor.
func (p FlipY) Apply(x *tensor.T) *tensor.T { return applyNew(p, x) }

// ApplyTo implements Preprocessor.
func (FlipY) ApplyTo(dst, x *tensor.T) {
	c, h, w := planes(dst, x)
	for ci := 0; ci < c; ci++ {
		for y := 0; y < h; y++ {
			clampInto(dst.Data[ci*h*w+y*w:ci*h*w+(y+1)*w], x.Data[ci*h*w+(h-1-y)*w:ci*h*w+(h-y)*w])
		}
	}
}

// Gamma applies gamma correction v → v^G, controlling overall brightness.
type Gamma struct {
	G float64
}

var _ Preprocessor = Gamma{}

// Name implements Preprocessor.
func (g Gamma) Name() string { return fmt.Sprintf("Gamma(%g)", g.G) }

// Apply implements Preprocessor.
func (g Gamma) Apply(x *tensor.T) *tensor.T { return applyNew(g, x) }

// minNormal is the smallest positive normal float64.
const minNormal = 0x1p-1022

// ApplyTo implements Preprocessor. For an integral exponent n ≥ 2 it
// multiplies instead of calling math.Pow, bit for bit the same result:
// Pow(v, n) runs the same square-and-multiply over the bits of n on v's
// mantissa, rounding after every product, and scales by a power of two at
// the end. Scaling by a power of two is exact while every value stays
// normal, so rounding the mantissa products and rounding the full products
// agree. All factors are ≤ 1, so no intermediate is smaller than the final
// product: a normal result proves the whole chain was normal. Anything
// below that (zeros, results Pow would round twice on the way to a
// subnormal) is left to Pow.
func (g Gamma) ApplyTo(dst, x *tensor.T) {
	planes(dst, x)
	n := int64(0)
	if g.G >= 2 && g.G <= 1<<30 && g.G == math.Trunc(g.G) {
		n = int64(g.G)
	}
	for i, v := range x.Data {
		v = clamp01(v)
		if n != 0 {
			p, sq := 1.0, v
			for b := n; ; {
				if b&1 == 1 {
					p *= sq
				}
				if b >>= 1; b == 0 {
					break
				}
				sq *= sq
			}
			if p >= minNormal {
				dst.Data[i] = p // p ≤ 1: the clamp below would not change it
				continue
			}
		}
		// The outer clamp guards the G<=0 and G=NaN corners (Pow(0,-1)=+Inf).
		dst.Data[i] = clamp01(math.Pow(v, g.G))
	}
}

// Hist performs global histogram equalization per channel, enhancing
// contrast by remapping intensities to a uniform distribution.
type Hist struct{}

var _ Preprocessor = Hist{}

// Name implements Preprocessor.
func (Hist) Name() string { return "Hist" }

const histBins = 64

// Apply implements Preprocessor.
func (p Hist) Apply(x *tensor.T) *tensor.T { return applyNew(p, x) }

// ApplyTo implements Preprocessor.
func (Hist) ApplyTo(dst, x *tensor.T) {
	c, h, w := planes(dst, x)
	for ci := 0; ci < c; ci++ {
		equalize(dst.Data[ci*h*w:(ci+1)*h*w], x.Data[ci*h*w:(ci+1)*h*w], w, 0, 0, w, h, 0)
	}
}

// equalize histogram-equalizes the tile [x0,x1)×[y0,y1) of the plane src
// (rows of w pixels) into the same tile of dst. clipLimit > 0 enables CLAHE
// style clipping: histogram counts above clipLimit×uniform are clipped and
// redistributed, bounding contrast amplification.
func equalize(dst, src []float64, w, x0, y0, x1, y1 int, clipLimit float64) {
	n := (x1 - x0) * (y1 - y0)
	if n <= 0 {
		return
	}
	var hist [histBins]float64
	for y := y0; y < y1; y++ {
		for _, v := range src[y*w+x0 : y*w+x1] {
			hist[binOf(v)]++
		}
	}
	if clipLimit > 0 {
		limit := clipLimit * float64(n) / histBins
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
	// CDF lookup table.
	var cdf [histBins]float64
	sum := 0.0
	for i, c := range hist {
		sum += c
		cdf[i] = sum
	}
	total := cdf[histBins-1]
	for y := y0; y < y1; y++ {
		row := dst[y*w+x0 : y*w+x1]
		for i, v := range src[y*w+x0 : y*w+x1] {
			row[i] = cdf[binOf(v)] / total
		}
	}
}

func binOf(v float64) int {
	b := int(clamp01(v) * (histBins - 1))
	if b < 0 {
		return 0
	}
	if b >= histBins {
		return histBins - 1
	}
	return b
}

// AdHist performs CLAHE-style adaptive histogram equalization: the image is
// tiled and each tile is equalized with a clip limit, locally adjusting
// intensities to enhance contrast.
type AdHist struct {
	// Tiles is the tile grid dimension (Tiles×Tiles); 0 means 4.
	Tiles int
}

var _ Preprocessor = AdHist{}

// Name implements Preprocessor.
func (AdHist) Name() string { return "AdHist" }

// Apply implements Preprocessor.
func (a AdHist) Apply(x *tensor.T) *tensor.T { return applyNew(a, x) }

// ApplyTo implements Preprocessor.
func (a AdHist) ApplyTo(dst, x *tensor.T) {
	tiles := a.Tiles
	if tiles <= 0 {
		tiles = 4
	}
	c, h, w := planes(dst, x)
	for ci := 0; ci < c; ci++ {
		plane := x.Data[ci*h*w : (ci+1)*h*w]
		oplane := dst.Data[ci*h*w : (ci+1)*h*w]
		for ty := 0; ty < tiles; ty++ {
			for tx := 0; tx < tiles; tx++ {
				equalize(oplane, plane, w, tx*w/tiles, ty*h/tiles, (tx+1)*w/tiles, (ty+1)*h/tiles, 3)
			}
		}
	}
}

// ConNorm performs local contrast normalization: each pixel is standardized
// by the mean and standard deviation of its neighbourhood, then the result
// is affinely rescaled back into [0,1].
type ConNorm struct {
	// Radius of the square neighbourhood; 0 means 2 (a 5×5 window).
	Radius int
}

var _ Preprocessor = ConNorm{}

// Name implements Preprocessor.
func (ConNorm) Name() string { return "ConNorm" }

// Apply implements Preprocessor.
func (n ConNorm) Apply(x *tensor.T) *tensor.T { return applyNew(n, x) }

// ApplyTo implements Preprocessor.
func (n ConNorm) ApplyTo(dst, x *tensor.T) {
	r := n.Radius
	if r <= 0 {
		r = 2
	}
	c, h, w := planes(dst, x)
	for ci := 0; ci < c; ci++ {
		plane := x.Data[ci*h*w : (ci+1)*h*w]
		oplane := dst.Data[ci*h*w : (ci+1)*h*w]
		for y := 0; y < h; y++ {
			for xx := 0; xx < w; xx++ {
				var sum, sq float64
				cnt := 0
				for dy := -r; dy <= r; dy++ {
					for dx := -r; dx <= r; dx++ {
						ny, nx := y+dy, xx+dx
						if ny >= 0 && ny < h && nx >= 0 && nx < w {
							v := plane[ny*w+nx]
							sum += v
							sq += v * v
							cnt++
						}
					}
				}
				mean := sum / float64(cnt)
				variance := sq/float64(cnt) - mean*mean
				if variance < 0 {
					variance = 0
				}
				std := math.Sqrt(variance)
				z := (plane[y*w+xx] - mean) / (std + 0.05)
				// Map z≈[-3,3] into [0,1].
				oplane[y*w+xx] = clamp01(0.5 + z/6)
			}
		}
	}
}

// ImAdj maps image intensities so the [1%, 99%] percentile range stretches
// to [0,1] per channel — MATLAB's imadjust. The paper notes this transform
// modifies features heavily and is selected only rarely.
type ImAdj struct{}

var _ Preprocessor = ImAdj{}

// Name implements Preprocessor.
func (ImAdj) Name() string { return "ImAdj" }

// Apply implements Preprocessor.
func (p ImAdj) Apply(x *tensor.T) *tensor.T { return applyNew(p, x) }

// ApplyTo implements Preprocessor. The two percentiles are the order
// statistics sort.Float64s would leave at n/100 and n-1-n/100 (NaNs sort
// first); they are selected in place in dst's plane, which is overwritten
// with the result afterwards.
func (ImAdj) ApplyTo(dst, x *tensor.T) {
	c, h, w := planes(dst, x)
	for ci := 0; ci < c; ci++ {
		plane := x.Data[ci*h*w : (ci+1)*h*w]
		oplane := dst.Data[ci*h*w : (ci+1)*h*w]
		if len(plane) == 0 {
			continue
		}
		lo, hi := percentiles(oplane, plane, len(plane)/100)
		span := hi - lo
		if span < 1e-9 {
			clampInto(oplane, plane)
			continue
		}
		for i, v := range plane {
			oplane[i] = clamp01((v - lo) / span)
		}
	}
}

// percentiles returns the values at indices k and len(src)-1-k of src in
// sort.Float64s order (NaNs first), for k < len(src)/2 or a one-element
// src, using buf (len(src) elements, clobbered) as scratch. One pass
// keeps the k+1 smallest non-NaN values in a max-heap at the front of buf
// and the k+1 largest, negated, in a max-heap at its back, so it costs
// O(n log k) on any input and O(n) when few values displace a heap top.
func percentiles(buf, src []float64, k int) (lo, hi float64) {
	if len(src) == 1 {
		return src[0], src[0]
	}
	small, large := buf[:k+1], buf[len(buf)-k-1:]
	nan, m := 0, 0 // NaNs and non-NaN values seen
	var nanV float64
	i := 0
	for ; i < len(src) && m <= k; i++ {
		if v := src[i]; v != v {
			nan++
			nanV = v
		} else {
			pushMax(small, m, v)
			pushMax(large, m, -v)
			m++
		}
	}
	// Once both heaps are full, a value between their tops changes
	// neither; a NaN fails both comparisons too.
	below, above := small[0], -large[0]
	for _, v := range src[i:] {
		switch {
		case v >= below && v <= above:
		case v != v:
			nan++
			nanV = v
		default:
			if v < below {
				replaceMax(small, v)
				below = small[0]
			}
			if v > above {
				replaceMax(large, -v)
				above = -large[0]
			}
		}
	}
	// Index len(src)-1-k is the k-th largest non-NaN value unless NaNs
	// reach it; index k is the (k-nan)-th smallest.
	if len(src)-1-k < nan {
		return nanV, nanV
	}
	hi = -large[0]
	if k < nan {
		return nanV, hi
	}
	for h := small; len(h) > k+1-nan; h = h[:len(h)-1] {
		replaceMax(h[:len(h)-1], h[len(h)-1])
	}
	lo = small[0]
	// -0 and +0 compare equal, so which of them a sort leaves at index k
	// depends on the sort; the sign reaches the output through v - lo for
	// v = -0. Ask the sort itself in that one case.
	if lo == 0 {
		var neg, pos bool
		for _, v := range src {
			if v == 0 {
				if math.Signbit(v) {
					neg = true
				} else {
					pos = true
				}
			}
		}
		if neg && pos {
			copy(buf, src)
			sort.Float64s(buf)
			lo = buf[k]
		}
	}
	return lo, hi
}

// pushMax adds v to the max-heap h[:n], making it h[:n+1].
func pushMax(h []float64, n int, v float64) {
	for n > 0 {
		up := (n - 1) / 2
		if !(h[up] < v) {
			break
		}
		h[n] = h[up]
		n = up
	}
	h[n] = v
}

// replaceMax replaces the top of the max-heap h with v.
func replaceMax(h []float64, v float64) {
	i := 0
	for {
		c := 2*i + 1
		if c >= len(h) {
			break
		}
		if c+1 < len(h) && h[c] < h[c+1] {
			c++
		}
		if !(v < h[c]) {
			break
		}
		h[i] = h[c]
		i = c
	}
	h[i] = v
}

// Scale downsamples the image by factor P (e.g. 0.8) with bilinear sampling
// and upsamples it back, softening high-frequency detail and noise.
type Scale struct {
	P float64
}

var _ Preprocessor = Scale{}

// Name implements Preprocessor.
func (s Scale) Name() string { return fmt.Sprintf("Scale(%g)", s.P) }

// Apply implements Preprocessor.
func (s Scale) Apply(x *tensor.T) *tensor.T { return applyNew(s, x) }

// ApplyTo implements Preprocessor.
func (s Scale) ApplyTo(dst, x *tensor.T) {
	p := s.P
	if p <= 0 || p > 1 {
		p = 0.8
	}
	c, h, w := planes(dst, x)
	sh, sw := maxInt(1, int(float64(h)*p)), maxInt(1, int(float64(w)*p))
	small := make([]float64, c*sh*sw)
	resizeBilinear(small, sh, sw, x.Data, h, w, c)
	resizeBilinear(dst.Data, h, w, small, sh, sw, c)
	// Bilinear output is a convex combination of inputs, so the clamp is a
	// no-op for in-range images and only sanitizes out-of-contract pixels.
	clampInto(dst.Data, dst.Data)
}

// resizeBilinear resamples the c planes of src (sh×sw each) into dst
// (dh×dw each).
func resizeBilinear(dst []float64, dh, dw int, src []float64, sh, sw, c int) {
	for ci := 0; ci < c; ci++ {
		sp := src[ci*sh*sw : (ci+1)*sh*sw]
		dp := dst[ci*dh*dw : (ci+1)*dh*dw]
		for y := 0; y < dh; y++ {
			fy := (float64(y) + 0.5) * float64(sh) / float64(dh)
			y0 := int(fy - 0.5)
			ty := fy - 0.5 - float64(y0)
			y1 := y0 + 1
			if y0 < 0 {
				y0, y1, ty = 0, 0, 0
			}
			if y1 >= sh {
				y1 = sh - 1
				if y0 >= sh {
					y0 = sh - 1
				}
			}
			for xx := 0; xx < dw; xx++ {
				fx := (float64(xx) + 0.5) * float64(sw) / float64(dw)
				x0 := int(fx - 0.5)
				tx := fx - 0.5 - float64(x0)
				x1 := x0 + 1
				if x0 < 0 {
					x0, x1, tx = 0, 0, 0
				}
				if x1 >= sw {
					x1 = sw - 1
					if x0 >= sw {
						x0 = sw - 1
					}
				}
				v := (1-ty)*((1-tx)*sp[y0*sw+x0]+tx*sp[y0*sw+x1]) +
					ty*((1-tx)*sp[y1*sw+x0]+tx*sp[y1*sw+x1])
				dp[y*dw+xx] = v
			}
		}
	}
}

// clamp01 clamps v into [0,1]. NaN (for which every comparison is false)
// falls through to 0, so sanitized pipelines never emit non-finite pixels
// (found by FuzzPreprocess).
func clamp01(v float64) float64 {
	if v > 1 {
		return 1
	}
	if v >= 0 {
		return v
	}
	return 0
}

// clampInto writes clamp01 of every src element into dst (same length; dst
// may be src itself).
func clampInto(dst, src []float64) {
	for i, v := range src {
		dst[i] = clamp01(v)
	}
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
