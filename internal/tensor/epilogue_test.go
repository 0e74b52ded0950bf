package tensor

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
)

// chain64 is the layerwise scalar chain RectifyPool must reproduce: a bias
// pass, an in-place rectifier pass and a 2×2 pooling pass, each a separate
// Go loop over concrete float64 values, as the unfused layers run them.
func chain64(src []float64, h, w int, bias float64, e Epi) []float64 {
	v := append([]float64(nil), src[:h*w]...)
	if e&EpiBias != 0 {
		for i, x := range v {
			v[i] = x + bias
		}
	}
	if e&EpiReLU != 0 {
		for i, x := range v {
			v[i] = max(x, 0)
		}
	}
	if e&EpiPool == 0 {
		return v
	}
	ph, pw := h/2, w/2
	out := make([]float64, ph*pw)
	for y := 0; y < ph; y++ {
		r0, r1 := v[2*y*w:], v[(2*y+1)*w:]
		for x := 0; x < pw; x++ {
			out[y*pw+x] = max(max(r0[2*x], r0[2*x+1]), max(r1[2*x], r1[2*x+1]))
		}
	}
	return out
}

// chain32 is chain64 over concrete float32 values.
func chain32(src []float32, h, w int, bias float32, e Epi) []float32 {
	v := append([]float32(nil), src[:h*w]...)
	if e&EpiBias != 0 {
		for i, x := range v {
			v[i] = x + bias
		}
	}
	if e&EpiReLU != 0 {
		for i, x := range v {
			v[i] = max(x, 0)
		}
	}
	if e&EpiPool == 0 {
		return v
	}
	ph, pw := h/2, w/2
	out := make([]float32, ph*pw)
	for y := 0; y < ph; y++ {
		r0, r1 := v[2*y*w:], v[(2*y+1)*w:]
		for x := 0; x < pw; x++ {
			out[y*pw+x] = max(max(r0[2*x], r0[2*x+1]), max(r1[2*x], r1[2*x+1]))
		}
	}
	return out
}

// special64 are the encodings where a max lowering can go wrong: signed
// zeros, NaNs of both signs with distinct payloads (quiet and signaling),
// infinities, subnormals and the extremes of the normal range.
var special64 = []uint64{
	0x0000000000000000, 0x8000000000000000, // ±0
	0x7FF8000000000000, 0xFFF8000000000000, // ±qNaN
	0x7FF8000000000ABC, 0xFFFC0000DEADBEEF, // qNaN payloads
	0x7FF0000000000001, 0xFFF4000000000000, // sNaN
	0x7FF0000000000000, 0xFFF0000000000000, // ±Inf
	0x0000000000000001, 0x800FFFFFFFFFFFFF, // subnormals
	0x0010000000000000, 0x7FEFFFFFFFFFFFFF, // min normal, max finite
	0x3FF0000000000000, 0xBFF0000000000000, // ±1
}

var special32 = []uint32{
	0x00000000, 0x80000000, 0x7FC00000, 0xFFC00000, 0x7FC00ABC, 0xFFE0BEEF,
	0x7F800001, 0xFFA00000, 0x7F800000, 0xFF800000, 0x00000001, 0x807FFFFF,
	0x00800000, 0x7F7FFFFF, 0x3F800000, 0xBF800000,
}

// adversarial64 draws a value that is special a third of the time, an
// arbitrary bit pattern a sixth of the time and a small normal otherwise,
// so ties, signed zeros and NaNs meet inside one pooling window.
func adversarial64(rng *rand.Rand) float64 {
	switch r := rng.Intn(6); {
	case r < 2:
		return math.Float64frombits(special64[rng.Intn(len(special64))])
	case r == 2:
		return math.Float64frombits(rng.Uint64())
	default:
		return float64(rng.Intn(5) - 2) // frequent exact ties and zeros
	}
}

func adversarial32(rng *rand.Rand) float32 {
	switch r := rng.Intn(6); {
	case r < 2:
		return math.Float32frombits(special32[rng.Intn(len(special32))])
	case r == 2:
		return math.Float32frombits(rng.Uint32())
	default:
		return float32(rng.Intn(5) - 2)
	}
}

// sameEpilogue64 reports whether got matches the chain bit for bit. The one
// exception is a NaN bias under EpiBias: x86 returns the first operand's
// payload for NaN + NaN and the add is commutative to the compiler, so the
// chain itself fixes only that every biased value is NaN.
func sameEpilogue64(got, want float64, bias float64, e Epi) bool {
	if e&EpiBias != 0 && math.IsNaN(bias) {
		return math.IsNaN(got) && math.IsNaN(want)
	}
	return math.Float64bits(got) == math.Float64bits(want)
}

func sameEpilogue32(got, want float32, bias float32, e Epi) bool {
	if e&EpiBias != 0 && bias != bias {
		return got != got && want != want
	}
	return math.Float32bits(got) == math.Float32bits(want)
}

// epilogueShapes cover pooled widths on and off both vector widths (4 and
// 8 lanes), widths that take only the scalar tail, and odd H and W.
var epilogueShapes = [][2]int{
	{1, 1}, {1, 7}, {2, 2}, {3, 3}, {2, 8}, {3, 9}, {4, 16}, {5, 17},
	{6, 18}, {7, 25}, {8, 32}, {9, 33}, {10, 40}, {2, 66}, {16, 16}, {32, 32},
}

// rectifyPoolPure is RectifyPool's pure-Go body over the whole plane.
func rectifyPoolPure[F Float](dst, src []F, h, w int, bias F, e Epi) {
	rectifyPoolGo(dst, src, h, w, bias, e, 0)
}

// rectifiers holds one RectifyPool body at both float widths.
type rectifiers struct {
	f64 func(dst, src []float64, h, w int, bias float64, e Epi)
	f32 func(dst, src []float32, h, w int, bias float32, e Epi)
}

var (
	rectifyScalar   = rectifiers{rectifyPoolPure[float64], rectifyPoolPure[float32]}
	rectifyDispatch = rectifiers{RectifyPool[float64], RectifyPool[float32]}
)

// TestRectifyPoolMatchesScalarChain holds both float widths' kernels —
// the pure-Go body alone, and the vector body with its scalar tail — to
// the layerwise scalar chain on adversarial planes, for every stage
// combination.
func TestRectifyPoolMatchesScalarChain(t *testing.T) {
	withSIMD(t, rectifyScalar, rectifyDispatch, func(t *testing.T, r rectifiers) {
		rng := rand.New(rand.NewSource(97))
		cases := 0
		for _, hw := range epilogueShapes {
			h, w := hw[0], hw[1]
			for e := Epi(0); e <= EpiBias|EpiReLU|EpiPool; e++ {
				for rep := 0; rep < 6; rep++ {
					src64 := make([]float64, h*w)
					src32 := make([]float32, h*w)
					for i := range src64 {
						src64[i] = adversarial64(rng)
						src32[i] = adversarial32(rng)
					}
					b64, b32 := adversarial64(rng), adversarial32(rng)

					want64 := chain64(src64, h, w, b64, e)
					got64 := make([]float64, len(want64))
					r.f64(got64, src64, h, w, b64, e)
					for i := range want64 {
						if !sameEpilogue64(got64[i], want64[i], b64, e) {
							t.Fatalf("f64 %dx%d stages %03b bias %#x: output %d = %#x, chain %#x",
								h, w, e, math.Float64bits(b64), i, math.Float64bits(got64[i]), math.Float64bits(want64[i]))
						}
					}

					want32 := chain32(src32, h, w, b32, e)
					got32 := make([]float32, len(want32))
					r.f32(got32, src32, h, w, b32, e)
					for i := range want32 {
						if !sameEpilogue32(got32[i], want32[i], b32, e) {
							t.Fatalf("f32 %dx%d stages %03b bias %#x: output %d = %#x, chain %#x",
								h, w, e, math.Float32bits(b32), i, math.Float32bits(got32[i]), math.Float32bits(want32[i]))
						}
					}

					if e&EpiPool == 0 {
						// Without pooling the stages run in place.
						r.f64(src64, src64, h, w, b64, e)
						r.f32(src32, src32, h, w, b32, e)
						for i := range want64 {
							if !sameEpilogue64(src64[i], want64[i], b64, e) || !sameEpilogue32(src32[i], want32[i], b32, e) {
								t.Fatalf("%dx%d stages %03b: in-place output %d differs from the chain", h, w, e, i)
							}
						}
					}
					cases += len(want64) + len(want32)
				}
			}
		}
		if cases < 20000 {
			t.Fatalf("only %d outputs compared", cases)
		}
	})
}

// FuzzRectifyPool feeds arbitrary bit patterns for two source rows and a
// bias through every stage combination of both widths and compares the
// kernel with the layerwise scalar chain.
func FuzzRectifyPool(f *testing.F) {
	seed := make([]byte, 0, 16*8)
	for _, b := range special64 {
		seed = binary.LittleEndian.AppendUint64(seed, b)
	}
	f.Add(uint64(0x8000000000000000), uint8(7), seed)
	f.Add(uint64(0x7FF8000000000001), uint8(3), seed[:40])
	f.Add(uint64(0x3FE0000000000000), uint8(5), []byte{1, 2, 3})

	f.Fuzz(func(t *testing.T, biasBits uint64, mode uint8, raw []byte) {
		e := Epi(mode) & (EpiBias | EpiReLU | EpiPool)
		w := len(raw) / 16 // two rows of 8-byte float64 elements
		if w == 0 {
			return
		}
		src64 := make([]float64, 2*w)
		src32 := make([]float32, 2*w)
		for i := range src64 {
			bits := binary.LittleEndian.Uint64(raw[i*8:])
			src64[i] = math.Float64frombits(bits)
			src32[i] = math.Float32frombits(uint32(bits) ^ uint32(bits>>32))
		}
		b64 := math.Float64frombits(biasBits)
		b32 := math.Float32frombits(uint32(biasBits) ^ uint32(biasBits>>32))
		for name, r := range map[string]rectifiers{"scalar": rectifyScalar, "dispatch": rectifyDispatch} {
			want64 := chain64(src64, 2, w, b64, e)
			got64 := make([]float64, len(want64))
			r.f64(got64, src64, 2, w, b64, e)
			want32 := chain32(src32, 2, w, b32, e)
			got32 := make([]float32, len(want32))
			r.f32(got32, src32, 2, w, b32, e)
			for i := range want64 {
				if !sameEpilogue64(got64[i], want64[i], b64, e) {
					t.Fatalf("%s f64 w=%d stages %03b: output %d = %#x, chain %#x",
						name, w, e, i, math.Float64bits(got64[i]), math.Float64bits(want64[i]))
				}
			}
			for i := range want32 {
				if !sameEpilogue32(got32[i], want32[i], b32, e) {
					t.Fatalf("%s f32 w=%d stages %03b: output %d = %#x, chain %#x",
						name, w, e, i, math.Float32bits(got32[i]), math.Float32bits(want32[i]))
				}
			}
		}
	})
}
