package dataset

import (
	"bytes"
	"image/png"
	"testing"

	"repro/internal/tensor"
)

func TestWritePNGRoundTrip(t *testing.T) {
	d, err := Generate(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WritePNG(&buf, d.Test[0].X); err != nil {
		t.Fatal(err)
	}
	img, err := png.Decode(&buf)
	if err != nil {
		t.Fatalf("decoding produced png: %v", err)
	}
	bounds := img.Bounds()
	if bounds.Dx() != 16 || bounds.Dy() != 16 {
		t.Errorf("png dims %dx%d, want 16x16", bounds.Dx(), bounds.Dy())
	}
}

func TestWritePNGGrayscale(t *testing.T) {
	x := tensor.New(1, 8, 8)
	x.Fill(0.5)
	var buf bytes.Buffer
	if err := WritePNG(&buf, x); err != nil {
		t.Fatal(err)
	}
	img, err := png.Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	r, g, b, _ := img.At(3, 3).RGBA()
	if r != g || g != b {
		t.Error("grayscale png has unequal channels")
	}
}

func TestWritePNGErrors(t *testing.T) {
	var buf bytes.Buffer
	if err := WritePNG(&buf, tensor.New(8, 8)); err == nil {
		t.Error("rank-2 tensor accepted")
	}
	if err := WritePNG(&buf, tensor.New(2, 8, 8)); err == nil {
		t.Error("2-channel tensor accepted")
	}
}

// TrainDraws reports how many training splits this process has generated,
// across all datasets.
func TrainDraws() int64 { return trainDraws.Load() }
