package model

import (
	"os"
	"testing"

	"repro/internal/nn"
	"repro/internal/tensor"
)

// TestProbeMatchesPerImageAccuracy holds the collapse probe's verdict on
// the committed convnet members — ORG and every CandidatePool variant — to
// the per-image oracle: the compiled, tiled probe reads the same accuracy as
// nn.Accuracy on the same 200 images, and both clear collapseThreshold
// unless the member's retry marker accepts it. The nets are loaded straight
// from their cache files, so a failing member is reported rather than
// retrained into testdata/zoo.
func TestProbeMatchesPerImageAccuracy(t *testing.T) {
	z := DefaultZoo()
	if z.Dir == "" {
		t.Skip("no repository zoo")
	}
	b, err := ByName("convnet")
	if err != nil {
		t.Fatal(err)
	}
	ds, err := z.Dataset(b.DatasetName)
	if err != nil {
		t.Fatal(err)
	}
	thr := collapseThreshold(ds.Classes)
	for _, v := range append([]Variant{{}}, CandidatePool()...) {
		path := z.netPath(b, v)
		if _, err := os.Stat(path); err != nil {
			t.Skipf("%s not cached at this profile: %v", v.Key(), err)
		}
		net := b.Build(newRandFor(seedFor(b.Name, v)), ds.Classes, ds.InShape)
		if err := net.LoadParamsFile(path); err != nil {
			t.Fatalf("%s: %v", v.Key(), err)
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
		t.Logf("%-10s probe %.3f  per-image %.3f  threshold %.3f", v.Key(), got, want, thr)
		if got != want {
			t.Errorf("%s: compiled probe accuracy %v, per-image nn.Accuracy %v", v.Key(), got, want)
		}
		if got > thr && want > thr {
			continue
		}
		// A member the retry ladder could not lift is accepted by its
		// marker without a probe (ConNorm: 0.12 against 0.25). Without a
		// marker the load path would retrain it into testdata/zoo.
		if !z.hasRetryMarker(path) {
			t.Errorf("%s: probe accuracy %v / %v does not clear the collapse threshold %v and no retry marker accepts it", v.Key(), got, want, thr)
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
