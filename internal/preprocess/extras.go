package preprocess

import (
	"fmt"
	"math/rand"

	"repro/internal/tensor"
)

// The transforms in this file extend the paper's Table I pool. They are not
// used by the reproduced experiments but round out the library for users
// building their own PolygraphMR configurations.

// Compose chains preprocessors left to right.
type Compose struct {
	Steps []Preprocessor
}

var _ Preprocessor = Compose{}

// NewCompose builds a composite preprocessor.
func NewCompose(steps ...Preprocessor) Compose { return Compose{Steps: steps} }

// Name implements Preprocessor, e.g. "FlipX+Gamma(2)".
func (c Compose) Name() string {
	if len(c.Steps) == 0 {
		return "ORG"
	}
	name := c.Steps[0].Name()
	for _, s := range c.Steps[1:] {
		name += "+" + s.Name()
	}
	return name
}

// Apply implements Preprocessor.
func (c Compose) Apply(x *tensor.T) *tensor.T { return applyNew(c, x) }

// ApplyTo implements Preprocessor. An empty chain copies x unclamped.
func (c Compose) ApplyTo(dst, x *tensor.T) {
	planes(dst, x)
	if len(c.Steps) == 0 {
		copy(dst.Data, x.Data)
		return
	}
	last := len(c.Steps) - 1
	for _, s := range c.Steps[:last] {
		x = s.Apply(x)
	}
	c.Steps[last].ApplyTo(dst, x)
}

// Rotate90 rotates the image by 90° clockwise. Height and width must match
// for the output shape to equal the input shape; Apply panics otherwise,
// matching the Preprocessor contract of shape preservation.
type Rotate90 struct{}

var _ Preprocessor = Rotate90{}

// Name implements Preprocessor.
func (Rotate90) Name() string { return "Rotate90" }

// Apply implements Preprocessor.
func (p Rotate90) Apply(x *tensor.T) *tensor.T { return applyNew(p, x) }

// ApplyTo implements Preprocessor.
func (Rotate90) ApplyTo(dst, x *tensor.T) {
	c, h, w := planes(dst, x)
	if h != w {
		panic(fmt.Sprintf("preprocess: Rotate90 requires a square image, got %dx%d", h, w))
	}
	for ci := 0; ci < c; ci++ {
		for y := 0; y < h; y++ {
			for xx := 0; xx < w; xx++ {
				// (y, x) -> (x, h-1-y)
				dst.Data[ci*h*w+xx*w+(h-1-y)] = clamp01(x.Data[ci*h*w+y*w+xx])
			}
		}
	}
}

// Noise adds zero-mean Gaussian pixel noise (clipped to [0,1]). Each Apply
// draws fresh noise from a deterministic per-instance RNG, so repeated
// application to the same image yields different views — a cheap diversity
// source akin to test-time augmentation.
type Noise struct {
	Std  float64
	Seed int64

	rng *rand.Rand
}

var _ Preprocessor = (*Noise)(nil)

// NewNoise creates a noise preprocessor with the given standard deviation.
func NewNoise(std float64, seed int64) *Noise {
	return &Noise{Std: std, Seed: seed, rng: rand.New(rand.NewSource(seed))}
}

// Name implements Preprocessor.
func (n *Noise) Name() string { return fmt.Sprintf("Noise(%g)", n.Std) }

// Apply implements Preprocessor.
func (n *Noise) Apply(x *tensor.T) *tensor.T { return applyNew(n, x) }

// ApplyTo implements Preprocessor.
func (n *Noise) ApplyTo(dst, x *tensor.T) {
	planes(dst, x)
	for i, v := range x.Data {
		dst.Data[i] = clamp01(v + n.Std*n.rng.NormFloat64())
	}
}

// CenterCrop crops the central fraction of the image and resizes it back to
// the original extent with bilinear sampling — a zoom-in view.
type CenterCrop struct {
	// Frac is the retained central fraction in (0, 1]; 0 means 0.8.
	Frac float64
}

var _ Preprocessor = CenterCrop{}

// Name implements Preprocessor.
func (c CenterCrop) Name() string { return fmt.Sprintf("CenterCrop(%g)", c.frac()) }

func (c CenterCrop) frac() float64 {
	if c.Frac <= 0 || c.Frac > 1 {
		return 0.8
	}
	return c.Frac
}

// Apply implements Preprocessor.
func (c CenterCrop) Apply(x *tensor.T) *tensor.T { return applyNew(c, x) }

// ApplyTo implements Preprocessor.
func (c CenterCrop) ApplyTo(dst, x *tensor.T) {
	frac := c.frac()
	ch, h, w := planes(dst, x)
	ch2, cw := maxInt(1, int(float64(h)*frac)), maxInt(1, int(float64(w)*frac))
	y0, x0 := (h-ch2)/2, (w-cw)/2
	crop := make([]float64, ch*ch2*cw)
	for ci := 0; ci < ch; ci++ {
		for y := 0; y < ch2; y++ {
			src := x.Data[ci*h*w+(y0+y)*w+x0 : ci*h*w+(y0+y)*w+x0+cw]
			copy(crop[ci*ch2*cw+y*cw:ci*ch2*cw+(y+1)*cw], src)
		}
	}
	resizeBilinear(dst.Data, h, w, crop, ch2, cw, ch)
	clampInto(dst.Data, dst.Data)
}
