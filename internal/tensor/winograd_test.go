package tensor

import (
	"math"
	"math/rand"
	"testing"
)

// winoRefConv computes the batched convolution the slow, trusted way:
// per-image im2col + MatMulInto + bias broadcast.
func winoRefConv(src *T, bsz, outC int, weight *T, bias []float64, g ConvGeom) *T {
	hw := g.InH * g.InW
	ohw := g.OutH() * g.OutW()
	out := New(bsz, outC*ohw)
	for b := 0; b < bsz; b++ {
		img := &T{Shape: []int{g.InC, g.InH, g.InW}, Data: src.Data[b*g.InC*hw : (b+1)*g.InC*hw]}
		cols := New(g.InC*g.KH*g.KW, ohw)
		Im2Col(cols, img, g)
		res := New(outC, ohw)
		MatMulInto(res, weight, cols)
		orow := out.Data[b*outC*ohw : (b+1)*outC*ohw]
		for oc := 0; oc < outC; oc++ {
			for s := 0; s < ohw; s++ {
				orow[oc*ohw+s] = res.Data[oc*ohw+s] + bias[oc]
			}
		}
	}
	return out
}

// TestWinogradConvMatchesIm2Col locks the F(4×4,3×3) numerical contract:
// over randomized eligible geometries, channel counts and batch sizes, the
// Winograd path agrees with the im2col lowering to a relative 1e-10 — far
// inside the 1e-9 softmax budget of the batched inference path, far outside
// anything a tiling bug would produce.
func TestWinogradConvMatchesIm2Col(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	a := NewArena()
	for trial := 0; trial < 40; trial++ {
		g := ConvGeom{
			InC: 1 + rng.Intn(6),
			InH: 4 * (1 + rng.Intn(4)),
			InW: 4 * (1 + rng.Intn(4)),
			KH:  3, KW: 3, Stride: 1, Pad: 1,
		}
		if !winogradEligible(g) {
			t.Fatalf("trial %d: generator produced ineligible geometry %+v", trial, g)
		}
		outC := 1 + rng.Intn(9)
		bsz := 1 + rng.Intn(5)
		hw := g.InH * g.InW

		src := New(bsz, g.InC*hw)
		src.FillNormal(rng, 0, 1)
		weight := New(outC, g.InC*9)
		weight.FillNormal(rng, 0, 0.5)
		bias := make([]float64, outC)
		for i := range bias {
			bias[i] = rng.NormFloat64()
		}

		want := winoRefConv(src, bsz, outC, weight, bias, g)
		got := &T{Shape: []int{bsz, outC * hw}, Data: Raw[float64](a, bsz*outC*hw)}
		WinogradConv3x3Pre(got, src, bsz, outC, PackWinoFilter(weight, outC, g.InC), bias, g, a)

		for i := range want.Data {
			diff := math.Abs(got.Data[i] - want.Data[i])
			if diff > 1e-10*(1+math.Abs(want.Data[i])) {
				t.Fatalf("trial %d (geom %+v outC=%d B=%d) element %d: winograd=%v im2col=%v |Δ|=%g",
					trial, g, outC, bsz, i, got.Data[i], want.Data[i], diff)
			}
		}
		a.Reset()
	}
}

// TestWinogradEligible pins the gate.
func TestWinogradEligible(t *testing.T) {
	base := ConvGeom{InC: 3, InH: 32, InW: 32, KH: 3, KW: 3, Stride: 1, Pad: 1}
	if !winogradEligible(base) {
		t.Error("canonical 3×3/s1/p1 32×32 geometry rejected")
	}
	cases := []ConvGeom{
		{InC: 3, InH: 32, InW: 32, KH: 5, KW: 5, Stride: 1, Pad: 1}, // kernel
		{InC: 3, InH: 32, InW: 32, KH: 3, KW: 3, Stride: 2, Pad: 1}, // stride
		{InC: 3, InH: 32, InW: 32, KH: 3, KW: 3, Stride: 1, Pad: 0}, // pad
		{InC: 3, InH: 30, InW: 32, KH: 3, KW: 3, Stride: 1, Pad: 1}, // height % 4
		{InC: 3, InH: 32, InW: 6, KH: 3, KW: 3, Stride: 1, Pad: 1},  // width % 4
	}
	for _, g := range cases {
		if winogradEligible(g) {
			t.Errorf("geometry %+v should be ineligible", g)
		}
	}
}
