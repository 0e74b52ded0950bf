package preprocess

import (
	"encoding/binary"
	"math"
	"testing"

	"repro/internal/tensor"
)

// FuzzPreprocess feeds arbitrary images — including NaN, ±Inf, and wildly
// out-of-range pixels, reachable through the raw float64 bit patterns in the
// fuzz payload — through every candidate preprocessor plus Identity, and
// checks the package hardening contract: no panic, the input is never
// modified, the output shape equals the input shape, every output pixel is
// finite in [0,1], ApplyTo into a dirty destination is bit-identical to
// Apply, and the rewritten kernels are bit-identical to their references.
func FuzzPreprocess(f *testing.F) {
	f.Add(uint8(1), uint8(8), uint8(8), []byte("polygraph"))
	f.Add(uint8(3), uint8(4), uint8(4), []byte{})
	// Seed with explicit NaN, +Inf, -Inf, and huge-magnitude bit patterns.
	hostile := make([]byte, 0, 4*8)
	for _, bits := range []uint64{
		math.Float64bits(math.NaN()),
		math.Float64bits(math.Inf(1)),
		math.Float64bits(math.Inf(-1)),
		math.Float64bits(-1e300),
	} {
		hostile = binary.LittleEndian.AppendUint64(hostile, bits)
	}
	f.Add(uint8(1), uint8(2), uint8(2), hostile)

	f.Fuzz(func(t *testing.T, c, h, w uint8, raw []byte) {
		C := int(c)%3 + 1
		H := int(h)%12 + 1
		W := int(w)%12 + 1
		pix := make([]float64, C*H*W)
		for i := range pix {
			if (i+1)*8 <= len(raw) {
				pix[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[i*8:]))
			} else if i < len(raw) {
				// Spread single bytes across [-2, 2) so short payloads still
				// produce out-of-range values.
				pix[i] = (float64(raw[i]) - 128) / 64
			}
		}
		x := tensor.FromSlice(pix, C, H, W)
		orig := append([]float64(nil), x.Data...)

		for _, p := range append(Candidates(), Identity{}) {
			out := p.Apply(x)
			if len(out.Shape) != 3 || out.Shape[0] != C || out.Shape[1] != H || out.Shape[2] != W {
				t.Fatalf("%s: output shape %v, want [%d %d %d]", p.Name(), out.Shape, C, H, W)
			}
			for i, v := range out.Data {
				if math.IsNaN(v) || v < 0 || v > 1 {
					t.Fatalf("%s: output[%d] = %v out of [0,1]", p.Name(), i, v)
				}
			}
			into := dirty(x)
			p.ApplyTo(into, x)
			for i, v := range out.Data {
				if math.Float64bits(v) != math.Float64bits(into.Data[i]) {
					t.Fatalf("%s: ApplyTo into a dirty dst gave %v at %d, Apply %v", p.Name(), into.Data[i], i, v)
				}
			}
			for i, v := range x.Data {
				if math.Float64bits(v) != math.Float64bits(orig[i]) {
					t.Fatalf("%s: modified its input at %d: %v -> %v", p.Name(), i, orig[i], v)
				}
			}
		}
		checkAgainstOracle(t, "fuzz input", x)
	})
}
