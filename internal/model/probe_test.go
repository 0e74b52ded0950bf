package model

import (
	"testing"

	"repro/internal/nn"
	"repro/internal/tensor"
)

// TestProbeMatchesPerImageAccuracy holds the collapse probe the training
// ladder runs to the per-image oracle on the committed convnet members —
// ORG and every CandidatePool variant: the compiled, tiled probe reads the
// same accuracy as nn.Accuracy on the same 200 images.
func TestProbeMatchesPerImageAccuracy(t *testing.T) {
	z := DefaultZoo()
	b, err := ByName("convnet")
	if err != nil {
		t.Fatal(err)
	}
	ds, err := z.Dataset(b.DatasetName)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range append([]Variant{{}}, CandidatePool()...) {
		net, err := z.Network(b, v)
		if err != nil {
			t.Fatal(err)
		}
		pp, err := v.Preprocessor()
		if err != nil {
			t.Fatal(err)
		}
		probe := applyPreproc(pp, probeSlice(ds.Val))
		got, err := probeAccuracy(net, probe)
		if err != nil {
			t.Fatalf("%s: %v", v.Key(), err)
		}
		want := nn.Accuracy(net, probe)
		if got != want {
			t.Errorf("%s: compiled probe accuracy %v, per-image nn.Accuracy %v", v.Key(), got, want)
		}
	}
}

// TestProbeRefusesHookedNet: a net the compiler refuses is an error, never
// a fall-back to the per-image forward.
func TestProbeRefusesHookedNet(t *testing.T) {
	b, err := ByName("convnet")
	if err != nil {
		t.Fatal(err)
	}
	net := b.Build(newRandFor(1), 10, []int{3, 32, 32})
	net.ActivationHook = func(int, *tensor.T) {}
	ds := []nn.Sample{{X: nil, Label: 0}}
	if _, err := probeAccuracy(net, ds); err == nil {
		t.Fatal("probeAccuracy accepted a net with an ActivationHook")
	}
}
