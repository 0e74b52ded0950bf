// Package dataset generates the synthetic image-classification datasets that
// substitute for MNIST, CIFAR-10 and ImageNet (DESIGN.md §1). Real datasets
// are unavailable in this offline, stdlib-only build, so each dataset is
// produced by a deterministic procedural generator whose classes are
// parametric shape+texture families.
//
// The generator plants, by construction, the three misclassification
// characteristics the paper identifies in §II-C:
//
//   - poor image detail: occlusion patches and blur over the class object,
//   - multiple objects: a second class's object composited into the frame,
//   - class similarity: classes are created in pairs that share a base
//     shape and differ only in texture phase/frequency.
//
// Samples carry metadata recording which characteristic (if any) was
// injected, so the Fig-3 experiment can report mispredict rates per
// characteristic.
package dataset

import (
	"fmt"
	"math"
	"math/rand"
	"sync"

	"repro/internal/nn"
	"repro/internal/tensor"
)

// HardKind identifies which hard-sample characteristic was injected.
type HardKind int

// Hard-sample characteristics (paper §II-C).
const (
	HardNone HardKind = iota
	HardOcclusion
	HardMultiObject
	HardClassSim
)

// String returns the characteristic name.
func (k HardKind) String() string {
	switch k {
	case HardNone:
		return "none"
	case HardOcclusion:
		return "occlusion"
	case HardMultiObject:
		return "multi-object"
	case HardClassSim:
		return "class-similarity"
	default:
		return fmt.Sprintf("HardKind(%d)", int(k))
	}
}

// Meta records per-sample generation facts used by experiments.
type Meta struct {
	Hard HardKind
}

// Dataset is a generated dataset with train/val/test splits. Val is the
// profiling split used for threshold selection; Test is held out for final
// evaluation, mirroring the paper's methodology.
type Dataset struct {
	Name    string
	Classes int
	InShape []int // [C,H,W]

	Train []nn.Sample
	Val   []nn.Sample
	Test  []nn.Sample

	// TestMeta is aligned with Test.
	TestMeta []Meta
}

// Config parameterizes a synthetic dataset family.
type Config struct {
	Name     string
	Classes  int
	Channels int
	H, W     int

	TrainN, ValN, TestN int

	// NoiseStd is the background/pixel noise level; the main difficulty knob.
	NoiseStd float64
	// Contrast is the intensity delta between object and background.
	Contrast float64
	// Jitter is the fractional position/scale jitter of the object.
	Jitter float64
	// HardRate is the fraction of samples receiving a hard characteristic.
	HardRate float64
	// TextureAmp is the amplitude of the class texture modulation; lower
	// values make paired classes harder to tell apart.
	TextureAmp float64
	// PairSimilarity in [0,1] controls how confusable the paired classes
	// are: at 1 a pair differs only in texture phase/orientation (the
	// paper's §II-C class-similarity structure, appropriate for the
	// CIFAR/ImageNet substitutes); at 0 the paired class also gets a
	// clearly different texture frequency (appropriate for MNIST, whose
	// digit classes are mostly distinct).
	PairSimilarity float64

	Seed int64
}

// Validate reports an error for degenerate configurations.
func (c Config) Validate() error {
	switch {
	case c.Classes < 2:
		return fmt.Errorf("dataset: need at least 2 classes, got %d", c.Classes)
	case c.Channels != 1 && c.Channels != 3:
		return fmt.Errorf("dataset: channels must be 1 or 3, got %d", c.Channels)
	case c.H < 8 || c.W < 8:
		return fmt.Errorf("dataset: image %dx%d too small", c.H, c.W)
	case c.TrainN <= 0 || c.ValN <= 0 || c.TestN <= 0:
		return fmt.Errorf("dataset: splits must be positive (%d/%d/%d)", c.TrainN, c.ValN, c.TestN)
	case c.HardRate < 0 || c.HardRate > 1:
		return fmt.Errorf("dataset: hard rate %v out of [0,1]", c.HardRate)
	case c.PairSimilarity < 0 || c.PairSimilarity > 1:
		return fmt.Errorf("dataset: pair similarity %v out of [0,1]", c.PairSimilarity)
	}
	return nil
}

// Generate builds the dataset deterministically from cfg.Seed.
func Generate(cfg Config) (*Dataset, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	d := &Dataset{
		Name:    cfg.Name,
		Classes: cfg.Classes,
		InShape: []int{cfg.Channels, cfg.H, cfg.W},
	}
	// Each split draws from its own RNG and gen is read-only once built, so
	// the three splits generate concurrently and bit-identically to one
	// after another (TestGenerateMatchesCommittedDigests).
	g := newGen(cfg)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		d.Train = g.split(rand.New(rand.NewSource(cfg.Seed+1)), cfg.TrainN, nil)
	}()
	go func() {
		defer wg.Done()
		d.Val = g.split(rand.New(rand.NewSource(cfg.Seed+2)), cfg.ValN, nil)
	}()
	d.TestMeta = make([]Meta, 0, cfg.TestN)
	d.Test = g.split(rand.New(rand.NewSource(cfg.Seed+3)), cfg.TestN, &d.TestMeta)
	wg.Wait()
	return d, nil
}

// gen holds the per-class style parameters derived once from the config.
type gen struct {
	cfg    Config
	shapes []int     // shape id per class
	freq   []float64 // texture frequency per class
	phase  []float64 // texture phase per class
	angle  []float64 // texture orientation per class
	hue    []float64 // color hue per class (RGB only)
}

func newGen(cfg Config) *gen {
	rng := rand.New(rand.NewSource(cfg.Seed))
	g := &gen{
		cfg:    cfg,
		shapes: make([]int, cfg.Classes),
		freq:   make([]float64, cfg.Classes),
		phase:  make([]float64, cfg.Classes),
		angle:  make([]float64, cfg.Classes),
		hue:    make([]float64, cfg.Classes),
	}
	for c := 0; c < cfg.Classes; c++ {
		pair := c / 2
		// Paired classes share shape and frequency; they differ in texture
		// phase and orientation — the §II-C class-similarity structure.
		g.shapes[c] = pair % numShapes
		g.freq[c] = 1.5 + 0.9*float64(pair%5) + 0.3*rng.Float64()
		if c%2 == 0 {
			g.phase[c] = 0
			g.angle[c] = 0
		} else {
			g.phase[c] = math.Pi
			g.angle[c] = math.Pi / 2
			// Low pair similarity separates the pair further by giving the
			// odd class a distinct texture frequency.
			g.freq[c] *= 1 + 0.8*(1-cfg.PairSimilarity)
		}
		g.hue[c] = 2 * math.Pi * float64(pair) / float64((cfg.Classes+1)/2)
	}
	return g
}

// split draws n samples with balanced class labels. When meta is non-nil it
// is appended with one Meta per sample.
func (g *gen) split(rng *rand.Rand, n int, meta *[]Meta) []nn.Sample {
	samples := make([]nn.Sample, n)
	metas := make([]Meta, n)
	for i := range samples {
		label := i % g.cfg.Classes
		x, m := g.sample(rng, label)
		samples[i] = nn.Sample{X: x, Label: label}
		metas[i] = m
	}
	// Shuffle so class order does not correlate with position in the split,
	// keeping the metadata aligned.
	rng.Shuffle(n, func(i, j int) {
		samples[i], samples[j] = samples[j], samples[i]
		metas[i], metas[j] = metas[j], metas[i]
	})
	if meta != nil {
		*meta = append(*meta, metas...)
	}
	return samples
}

// sample renders one image of the given class.
func (g *gen) sample(rng *rand.Rand, label int) (*tensor.T, Meta) {
	cfg := g.cfg
	x := tensor.New(cfg.Channels, cfg.H, cfg.W)

	// Background noise floor.
	for i := range x.Data {
		x.Data[i] = clamp01(0.35 + cfg.NoiseStd*rng.NormFloat64())
	}

	meta := Meta{Hard: HardNone}
	if rng.Float64() < cfg.HardRate {
		switch rng.Intn(3) {
		case 0:
			meta.Hard = HardOcclusion
		case 1:
			meta.Hard = HardMultiObject
		default:
			meta.Hard = HardClassSim
		}
	}

	texAmp := cfg.TextureAmp
	if meta.Hard == HardClassSim {
		// Weak texture makes the paired class nearly indistinguishable.
		texAmp *= 0.25
	}
	g.drawObject(x, rng, label, 1.0, texAmp)

	if meta.Hard == HardMultiObject {
		// Composite a smaller object of a different class; the label stays
		// with the dominant (larger) object.
		other := (label + 1 + rng.Intn(cfg.Classes-1)) % cfg.Classes
		g.drawObject(x, rng, other, 0.45, cfg.TextureAmp)
	}
	if meta.Hard == HardOcclusion {
		if rng.Intn(2) == 0 {
			occlude(x, rng)
		} else {
			boxBlur(x)
		}
	}
	return x, meta
}

// drawObject renders the class object scaled by sizeFrac into the canvas.
func (g *gen) drawObject(x *tensor.T, rng *rand.Rand, label int, sizeFrac, texAmp float64) {
	cfg := g.cfg
	h, w := cfg.H, cfg.W
	jit := func() float64 { return (rng.Float64()*2 - 1) * cfg.Jitter }

	cx := (0.5 + jit()) * float64(w)
	cy := (0.5 + jit()) * float64(h)
	if sizeFrac < 1 {
		// Secondary objects sit off-center.
		cx = (0.25 + 0.5*rng.Float64()) * float64(w)
		cy = (0.25 + 0.5*rng.Float64()) * float64(h)
	}
	radius := (0.30 + 0.08*jit()) * sizeFrac * float64(minInt(h, w))
	intensity := cfg.Contrast * (0.85 + 0.3*rng.Float64())

	shape := g.shapes[label]
	freq, phase, angle := g.freq[label], g.phase[label], g.angle[label]
	sinA, cosA := math.Sincos(angle)

	var chMul [3]float64
	if cfg.Channels == 3 {
		hue := g.hue[label]
		chMul = [3]float64{
			0.55 + 0.45*math.Cos(hue),
			0.55 + 0.45*math.Cos(hue-2*math.Pi/3),
			0.55 + 0.45*math.Cos(hue-4*math.Pi/3),
		}
	} else {
		chMul = [3]float64{1, 0, 0}
	}

	for py := 0; py < h; py++ {
		for px := 0; px < w; px++ {
			dx := (float64(px) - cx) / radius
			dy := (float64(py) - cy) / radius
			if !insideShape(shape, dx, dy) {
				continue
			}
			// Class texture: oriented sinusoid across the object.
			u := cosA*dx + sinA*dy
			tex := 1 + texAmp*math.Sin(freq*math.Pi*u+phase)
			v := intensity * tex
			for c := 0; c < cfg.Channels; c++ {
				idx := c*h*w + py*w + px
				x.Data[idx] = clamp01(x.Data[idx] + v*chMul[c])
			}
		}
	}
}

// numShapes is the size of the base-shape vocabulary. Several shapes are
// deliberately asymmetric so that FlipX/FlipY preprocessing yields genuinely
// novel views.
const numShapes = 6

// insideShape reports whether normalized object coordinates (dx,dy) ∈ ~[-1,1]
// fall inside the given base shape.
func insideShape(shape int, dx, dy float64) bool {
	switch shape {
	case 0: // disk
		return dx*dx+dy*dy <= 1
	case 1: // square
		return math.Abs(dx) <= 0.9 && math.Abs(dy) <= 0.9
	case 2: // ring
		r := dx*dx + dy*dy
		return r <= 1 && r >= 0.35
	case 3: // right-pointing triangle (asymmetric in x)
		return dx >= -0.9 && dx <= 0.9 && math.Abs(dy) <= 0.9*(0.9-dx)/1.8
	case 4: // cross
		return (math.Abs(dx) <= 0.3 && math.Abs(dy) <= 1) || (math.Abs(dy) <= 0.3 && math.Abs(dx) <= 1)
	case 5: // L-shape (asymmetric in both axes)
		return (dx >= -0.9 && dx <= -0.2 && math.Abs(dy) <= 0.9) ||
			(dy >= 0.3 && dy <= 0.9 && math.Abs(dx) <= 0.9)
	default:
		panic(fmt.Sprintf("dataset: unknown shape %d", shape))
	}
}

// occlude overwrites a random rectangle (~35% of the frame) with noise.
func occlude(x *tensor.T, rng *rand.Rand) {
	ch, h, w := x.Shape[0], x.Shape[1], x.Shape[2]
	rh, rw := h*6/10, w*6/10
	y0, x0 := rng.Intn(h-rh+1), rng.Intn(w-rw+1)
	for c := 0; c < ch; c++ {
		for py := y0; py < y0+rh; py++ {
			for px := x0; px < x0+rw; px++ {
				x.Data[c*h*w+py*w+px] = clamp01(0.35 + 0.15*rng.NormFloat64())
			}
		}
	}
}

// boxBlur applies a 3×3 mean filter to every channel, in place.
func boxBlur(x *tensor.T) {
	ch, h, w := x.Shape[0], x.Shape[1], x.Shape[2]
	tmp := make([]float64, h*w)
	for c := 0; c < ch; c++ {
		plane := x.Data[c*h*w : (c+1)*h*w]
		for py := 0; py < h; py++ {
			for px := 0; px < w; px++ {
				sum, cnt := 0.0, 0
				for dy := -1; dy <= 1; dy++ {
					for dx := -1; dx <= 1; dx++ {
						ny, nx := py+dy, px+dx
						if ny >= 0 && ny < h && nx >= 0 && nx < w {
							sum += plane[ny*w+nx]
							cnt++
						}
					}
				}
				tmp[py*w+px] = sum / float64(cnt)
			}
		}
		copy(plane, tmp)
	}
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
