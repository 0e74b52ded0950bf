package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"

	polygraph "repro"
)

// jitter is the half-width of the per-pixel perturbation that makes pool
// images distinct: half an 8-bit step, so labels are preserved, and far
// above the cache key's 2^-16 pixel quantum, so keys differ.
const jitter = 0.5 / 255

// pixelGrid is the decimal grid pixels are rounded to. Four digits keep the
// JSON bodies at ~7 bytes per pixel (what an 8-bit client would send) while
// leaving ~40 distinct jitter levels per pixel.
const pixelGrid = 1e4

// seqLen is the length of the pre-drawn request sequence; the load loop
// wraps around it (at 3000 requests/s it lasts 87 s).
const seqLen = 1 << 18

// verdict is the part of a prediction the harness checks: ROADMAP records
// that float confidences vary in the last ulp with batch composition, so
// confidence is only logged.
type verdict struct {
	label    int32
	reliable bool
	conf     float64
}

// traffic is everything the load generator sends and checks against, made
// from the seed before the clock starts. The program under test only ever
// sees bodies.
type traffic struct {
	w    workload
	seed int64
	base []polygraph.Image
	// bodies are the pre-marshalled requests; bodyImages[b] lists the pool
	// images body b carries, in order.
	bodies     [][]byte
	bodyImages [][]int32
	// seq is the order bodies are sent in.
	seq []int32
	// truth and oracle are index-aligned with the pool.
	truth  []int32
	oracle []verdict
	// initialStage is the member count of RADE's first stage; an image
	// that activated more was escalated.
	initialStage int
}

// splitmix scrambles (seed, stream) into an independent generator seed, so
// pool images can be generated in parallel and still depend on nothing but
// the benchmark seed.
func splitmix(seed int64, stream uint64) int64 {
	z := uint64(seed) + (stream+1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}

// jitterImage writes pool image i into dst: base pixels plus seeded jitter,
// clamped to [0,1] and rounded to the pixel grid.
func jitterImage(dst, base []float64, seed int64, i int) {
	rng := rand.New(rand.NewSource(splitmix(seed, uint64(i))))
	for p, v := range base {
		v += (2*rng.Float64() - 1) * jitter
		v = math.Round(v*pixelGrid) / pixelGrid
		dst[p] = math.Min(1, math.Max(0, v))
	}
}

// appendImageJSON appends the server's image object. Pixels sit on the
// decimal grid, so the shortest round-trip formatting is at most six bytes
// and the server parses back exactly the float64 the oracle classified.
func appendImageJSON(b []byte, c, h, w int, pixels []float64) []byte {
	b = append(b, `{"channels":`...)
	b = strconv.AppendInt(b, int64(c), 10)
	b = append(b, `,"height":`...)
	b = strconv.AppendInt(b, int64(h), 10)
	b = append(b, `,"width":`...)
	b = strconv.AppendInt(b, int64(w), 10)
	b = append(b, `,"pixels":[`...)
	for i, v := range pixels {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendFloat(b, v, 'f', -1, 64)
	}
	return append(b, "]}"...)
}

// appendBody appends one classify request carrying the given image objects:
// the single-image form for one, the multi-image form otherwise.
func appendBody(b []byte, images [][]byte) []byte {
	if len(images) == 1 {
		b = append(b, `{"image":`...)
		b = append(b, images[0]...)
		return append(b, '}')
	}
	b = append(b, `{"images":[`...)
	for j, im := range images {
		if j > 0 {
			b = append(b, ',')
		}
		b = append(b, im...)
	}
	return append(b, "]}"...)
}

// image regenerates pool image i.
func (t *traffic) image(i int) polygraph.Image {
	src := t.base[i%len(t.base)]
	px := make([]float64, len(src.Pixels))
	jitterImage(px, src.Pixels, t.seed, i)
	return polygraph.Image{Channels: src.Channels, Height: src.Height, Width: src.Width, Pixels: px}
}

// body marshals a request carrying pool images 0..n-1.
func (t *traffic) body(n int) []byte {
	frags := make([][]byte, n)
	for i := range frags {
		im := t.image(i)
		frags[i] = appendImageJSON(nil, im.Channels, im.Height, im.Width, im.Pixels)
	}
	return appendBody(nil, frags)
}

// quality is the paper's TP and FP shares over the whole pool, from the
// oracle's verdicts: TP is reliable and correct, FP is reliable and wrong
// (an undetected misprediction). The load phases check every served answer
// against these same verdicts, so this is the quality the server delivers —
// taken over a fixed image set instead of whichever images a run happened
// to get answered.
func (t *traffic) quality() (tp, fp float64) {
	for i, v := range t.oracle {
		if v.reliable && v.label == t.truth[i] {
			tp++
		} else if v.reliable {
			fp++
		}
	}
	n := float64(len(t.oracle))
	return tp / n, fp / n
}

// classifier is the oracle surface: *polygraph.System without cache or
// cluster, asked one image at a time.
type classifier interface {
	Classify(im polygraph.Image) (polygraph.Prediction, error)
}

// newTraffic generates the workload's pool, asks the oracle for every pool
// image, marshals the request bodies and draws the request order. base and
// labels are the benchmark's test split.
func newTraffic(w workload, seed int64, base []polygraph.Image, labels []int, oracle classifier, initialStage int) (*traffic, error) {
	t := &traffic{
		w:            w,
		seed:         seed,
		base:         base,
		truth:        make([]int32, w.pool),
		oracle:       make([]verdict, w.pool),
		initialStage: initialStage,
	}
	fragments := make([][]byte, w.pool)
	workers := runtime.GOMAXPROCS(0)
	var next atomic.Int64
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for k := 0; k < workers; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			px := make([]float64, len(base[0].Pixels))
			for {
				i := int(next.Add(1)) - 1
				if i >= w.pool || errs[k] != nil {
					return
				}
				src := base[i%len(base)]
				jitterImage(px, src.Pixels, seed, i)
				im := polygraph.Image{Channels: src.Channels, Height: src.Height, Width: src.Width, Pixels: px}
				p, err := oracle.Classify(im)
				if err != nil {
					errs[k] = fmt.Errorf("oracle on pool image %d: %w", i, err)
					return
				}
				t.truth[i] = int32(labels[i%len(base)])
				t.oracle[i] = verdict{label: int32(p.Label), reliable: p.Reliable, conf: p.Confidence}
				fragments[i] = appendImageJSON(nil, src.Channels, src.Height, src.Width, px)
			}
		}(k)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}

	rng := rand.New(rand.NewSource(splitmix(seed, 1<<40)))
	order := rng.Perm(w.pool)
	if w.imagesPerRequest == 1 {
		for i := 0; i < w.pool; i++ {
			t.bodyImages = append(t.bodyImages, []int32{int32(i)})
		}
	} else {
		// Each body takes the next imagesPerRequest images of a seeded
		// shuffle, so batch composition changes with the seed.
		for off := 0; off+w.imagesPerRequest <= w.pool; off += w.imagesPerRequest {
			ids := make([]int32, w.imagesPerRequest)
			for j := range ids {
				ids[j] = int32(order[off+j])
			}
			t.bodyImages = append(t.bodyImages, ids)
		}
	}
	size := 0
	for _, ids := range t.bodyImages {
		size += 16
		for _, id := range ids {
			size += len(fragments[id]) + 1
		}
	}
	arena := bodyArena(size)
	for _, ids := range t.bodyImages {
		start := len(arena)
		frags := make([][]byte, len(ids))
		for j, id := range ids {
			frags[j] = fragments[id]
		}
		arena = appendBody(arena, frags)
		t.bodies = append(t.bodies, arena[start:len(arena):len(arena)])
	}

	t.seq = drawSequence(rng, len(t.bodies), w.zipf)
	return t, nil
}

// drawSequence draws the order bodies are sent in. Zipf workloads draw a
// rank from Zipf(s=1.1) and map it through a seeded permutation (so which
// images are popular changes with the seed); the others walk seeded
// permutations of all bodies back to back, so every body is sent once per
// cycle.
func drawSequence(rng *rand.Rand, bodies int, zipf bool) []int32 {
	seq := make([]int32, seqLen)
	if zipf {
		rank := rng.Perm(bodies)
		z := rand.NewZipf(rng, 1.1, 1, uint64(bodies-1))
		for i := range seq {
			seq[i] = int32(rank[z.Uint64()])
		}
		return seq
	}
	for i := 0; i < len(seq); {
		for _, b := range rng.Perm(bodies) {
			if i == len(seq) {
				break
			}
			seq[i] = int32(b)
			i++
		}
	}
	return seq
}
