package model

import (
	"math/rand"
	"testing"

	"repro/internal/dataset"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// TestTopologiesForwardBackward smoke-tests every benchmark topology at its
// real input shape: one forward pass, one loss, one backward pass, one
// optimizer step — and checks the loss is finite and parameters moved.
func TestTopologiesForwardBackward(t *testing.T) {
	for _, b := range Benchmarks() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			cfg, err := b.DatasetConfig(dataset.Fast)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(7))
			net := b.Build(rng, cfg.Classes, []int{cfg.Channels, cfg.H, cfg.W})

			x := tensor.New(cfg.Channels, cfg.H, cfg.W)
			x.FillUniform(rng, 0, 1)

			logits := net.Forward(x, true)
			if logits.Len() != cfg.Classes {
				t.Fatalf("logits len %d, want %d", logits.Len(), cfg.Classes)
			}
			loss, grad := nn.SoftmaxCrossEntropy(logits, 0)
			if loss <= 0 || loss != loss {
				t.Fatalf("bad initial loss %v", loss)
			}
			net.Backward(grad)

			before := net.Params()[0].Value.Clone()
			opt := nn.NewSGD(0.01, 0.9)
			opt.Step(net.Params(), 1)
			moved := false
			for i, v := range net.Params()[0].Value.Data {
				if v != before.Data[i] {
					moved = true
					break
				}
			}
			if !moved {
				t.Error("optimizer step did not move parameters")
			}

			// The computational footprint must be non-trivial and the cost
			// model must see every layer.
			var stats nn.Stats
			for _, ls := range net.LayerStats() {
				stats.MACs += ls.MACs
				stats.ParamElems += ls.ParamElems
			}
			if stats.MACs < 10000 {
				t.Errorf("suspiciously small MAC count %d", stats.MACs)
			}
			if stats.ParamElems != net.NumParams() {
				t.Errorf("ParamElems %d != NumParams %d", stats.ParamElems, net.NumParams())
			}
		})
	}
}

// TestTopologiesSerializationRoundTrip verifies every benchmark topology
// (including normalization state in DenseNet40's units) survives a
// save/load cycle with identical inference.
func TestTopologiesSerializationRoundTrip(t *testing.T) {
	for _, b := range Benchmarks() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			cfg, err := b.DatasetConfig(dataset.Fast)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(8))
			net := b.Build(rng, cfg.Classes, []int{cfg.Channels, cfg.H, cfg.W})
			x := tensor.New(cfg.Channels, cfg.H, cfg.W)
			x.FillUniform(rng, 0, 1)
			// A training step so normalization state diverges from init.
			logits := net.Forward(x, true)
			_, grad := nn.SoftmaxCrossEntropy(logits, 0)
			net.Backward(grad)

			path := t.TempDir() + "/" + b.Name + ".gob"
			if err := net.SaveParamsFile(path); err != nil {
				t.Fatal(err)
			}
			restored := b.Build(rand.New(rand.NewSource(999)), cfg.Classes, []int{cfg.Channels, cfg.H, cfg.W})
			if err := restored.LoadParamsFile(path); err != nil {
				t.Fatal(err)
			}
			want := net.Infer(x)
			got := restored.Infer(x)
			for i := range want.Data {
				if want.Data[i] != got.Data[i] {
					t.Fatalf("restored inference differs at %d: %v vs %v", i, got.Data[i], want.Data[i])
				}
			}
		})
	}
}
