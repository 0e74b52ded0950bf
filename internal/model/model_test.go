package model

import (
	"errors"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/nn"
)

func TestBenchmarksSuite(t *testing.T) {
	bs := Benchmarks()
	if len(bs) != 6 {
		t.Fatalf("suite has %d benchmarks, want 6", len(bs))
	}
	seen := map[string]bool{}
	for _, b := range bs {
		if seen[b.Name] {
			t.Errorf("duplicate benchmark %q", b.Name)
		}
		seen[b.Name] = true
		if b.PaperAccuracy <= 0 || b.PaperAccuracy > 1 {
			t.Errorf("%s: paper accuracy %v out of range", b.Name, b.PaperAccuracy)
		}
		cfg, err := b.DatasetConfig(dataset.Fast)
		if err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		// Every topology must build and validate against its dataset shape.
		net := b.Build(rand.New(rand.NewSource(1)), cfg.Classes, []int{cfg.Channels, cfg.H, cfg.W})
		if net.Classes != cfg.Classes {
			t.Errorf("%s: network classes %d != dataset classes %d", b.Name, net.Classes, cfg.Classes)
		}
	}
}

func TestByNameErrors(t *testing.T) {
	if _, err := ByName("lenet5"); err != nil {
		t.Errorf("ByName(lenet5): %v", err)
	}
	if _, err := ByName("vgg"); err == nil {
		t.Error("ByName(vgg) should fail")
	}
}

func TestVariantKey(t *testing.T) {
	tests := []struct {
		v    Variant
		want string
	}{
		{Variant{}, "ORG"},
		{Variant{Preproc: "FlipX"}, "FlipX"},
		{Variant{Init: 3}, "ORG#3"},
		{Variant{Preproc: "Gamma(2)", Init: 1}, "Gamma(2)#1"},
	}
	for _, tt := range tests {
		if got := tt.v.Key(); got != tt.want {
			t.Errorf("Key(%+v) = %q, want %q", tt.v, got, tt.want)
		}
	}
}

func TestVariantPreprocessor(t *testing.T) {
	if _, err := (Variant{Preproc: "FlipX"}).Preprocessor(); err != nil {
		t.Error(err)
	}
	if _, err := (Variant{Preproc: "Nope"}).Preprocessor(); err == nil {
		t.Error("unknown preprocessor accepted")
	}
	p, err := (Variant{}).Preprocessor()
	if err != nil || p.Name() != "ORG" {
		t.Errorf("empty variant: %v, %v", p, err)
	}
}

func TestSplitString(t *testing.T) {
	if SplitTrain.String() != "train" || SplitVal.String() != "val" || SplitTest.String() != "test" {
		t.Error("split names wrong")
	}
}

// tinyBenchmark returns a fabricated benchmark that trains in well under a
// second, for exercising the zoo machinery.
func tinyBenchmark() Benchmark {
	return Benchmark{
		Name: "tinytest", Display: "Tiny / MNIST", DatasetName: "synthmnist",
		PaperAccuracy: 0.5,
		Build: func(rng *rand.Rand, classes int, in []int) *nn.Network {
			return nn.MustNetwork(in, classes,
				nn.NewMaxPool2D(2), nn.NewMaxPool2D(2),
				nn.NewFlatten(),
				nn.NewDense((in[1]/4)*(in[2]/4)*in[0], classes, rng),
			)
		},
		Train: nn.TrainConfig{Epochs: 2, BatchSize: 16, LR: 0.03},
	}
}

func TestZooTrainsAndCaches(t *testing.T) {
	dir := t.TempDir()
	zoo := NewZoo(dir, dataset.Fast)
	b := tinyBenchmark()

	if _, err := zoo.Network(b, Variant{}); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("Network before Train: err %v, want fs.ErrNotExist", err)
	}
	trained := 0
	zoo.Progress = func(f string, _ ...any) {
		if strings.HasPrefix(f, "training") {
			trained++
		}
	}
	net1, err := zoo.Train(b, Variant{})
	if err != nil {
		t.Fatal(err)
	}
	if trained != 1 {
		t.Fatalf("trained %d times, want 1", trained)
	}

	// Network after Train: memoized, no retraining.
	net2, err := zoo.Network(b, Variant{})
	if err != nil {
		t.Fatal(err)
	}
	if net1 != net2 {
		t.Error("memoized network not reused")
	}
	if trained != 1 {
		t.Errorf("trained %d times after reuse, want 1", trained)
	}

	// Fresh zoo on the same dir: loads from disk, no retraining.
	zoo2 := NewZoo(dir, dataset.Fast)
	zoo2.Progress = func(string, ...any) { t.Error("fresh zoo retrained despite disk cache") }
	net3, err := zoo2.Network(b, Variant{})
	if err != nil {
		t.Fatal(err)
	}
	p1, p3 := net1.Params(), net3.Params()
	for i := range p1 {
		for j := range p1[i].Value.Data {
			if p1[i].Value.Data[j] != p3[i].Value.Data[j] {
				t.Fatal("disk-loaded network differs from trained one")
			}
		}
	}
}

func TestZooVariantsDiffer(t *testing.T) {
	zoo := NewZoo(t.TempDir(), dataset.Fast)
	b := tinyBenchmark()
	org, err := zoo.Train(b, Variant{})
	if err != nil {
		t.Fatal(err)
	}
	flip, err := zoo.Train(b, Variant{Preproc: "FlipX"})
	if err != nil {
		t.Fatal(err)
	}
	init1, err := zoo.Train(b, Variant{Init: 1})
	if err != nil {
		t.Fatal(err)
	}
	diff := func(a, b *nn.Network) bool {
		pa, pb := a.Params(), b.Params()
		for i := range pa {
			for j := range pa[i].Value.Data {
				if pa[i].Value.Data[j] != pb[i].Value.Data[j] {
					return true
				}
			}
		}
		return false
	}
	if !diff(org, flip) {
		t.Error("FlipX variant identical to ORG")
	}
	if !diff(org, init1) {
		t.Error("Init=1 variant identical to ORG")
	}
}

func TestZooLogitsShapeAndCache(t *testing.T) {
	dir := t.TempDir()
	zoo := NewZoo(dir, dataset.Fast)
	b := tinyBenchmark()
	mustTrain(t, zoo, b, Variant{})
	ls, err := zoo.Logits(b, Variant{}, SplitVal)
	if err != nil {
		t.Fatal(err)
	}
	ds, err := zoo.Dataset(b.DatasetName)
	if err != nil {
		t.Fatal(err)
	}
	if len(ls) != len(ds.Val) {
		t.Fatalf("logits rows %d, want %d", len(ls), len(ds.Val))
	}
	if len(ls[0]) != ds.Classes {
		t.Fatalf("logits cols %d, want %d", len(ls[0]), ds.Classes)
	}

	// A fresh zoo must serve logits from disk without a network build.
	zoo2 := NewZoo(dir, dataset.Fast)
	zoo2.Progress = func(string, ...any) { t.Error("logits cache miss on fresh zoo") }
	ls2, err := zoo2.Logits(b, Variant{}, SplitVal)
	if err != nil {
		t.Fatal(err)
	}
	if len(ls2) != len(ls) || ls2[0][0] != ls[0][0] {
		t.Error("disk logits differ")
	}
}

func TestZooLogitsHooked(t *testing.T) {
	zoo := NewZoo(t.TempDir(), dataset.Fast)
	b := tinyBenchmark()
	mustTrain(t, zoo, b, Variant{})
	base, err := zoo.Logits(b, Variant{}, SplitVal)
	if err != nil {
		t.Fatal(err)
	}
	// A hook that zeroes all weights must change the logits, and must not
	// corrupt the cached full-precision network.
	hooked, err := zoo.LogitsHooked(b, Variant{}, SplitVal, "zeroed", func(n *nn.Network) {
		for _, p := range n.Params() {
			p.Value.Zero()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if hooked[0][0] != 0 {
		t.Error("hook did not apply")
	}
	again, err := zoo.Logits(b, Variant{}, SplitVal)
	if err != nil {
		t.Fatal(err)
	}
	if again[0][0] != base[0][0] {
		t.Error("hook corrupted the cached full-precision network")
	}
	if _, err := zoo.LogitsHooked(b, Variant{}, SplitVal, "", nil); err == nil {
		t.Error("empty tag accepted")
	}
}

func mustTrain(t *testing.T, zoo *Zoo, b Benchmark, v Variant) {
	t.Helper()
	if _, err := zoo.Train(b, v); err != nil {
		t.Fatal(err)
	}
}

// TestInvalidateLogitsKeepsOtherProfiles: retraining a member under one
// profile drops that profile's recorded outputs of the member and nothing
// else: the other profile's recordings and other members' stay on disk.
func TestInvalidateLogitsKeepsOtherProfiles(t *testing.T) {
	dir := t.TempDir()
	fast, full := NewZoo(dir, dataset.Fast), NewZoo(dir, dataset.Full)
	b := tinyBenchmark()
	v, other := Variant{Preproc: "FlipX"}, Variant{Preproc: "FlipY"}
	write := func(path string) string {
		if err := os.WriteFile(path, []byte("x"), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	gone := []string{
		write(fast.logitsPath(b, v, SplitVal, "")),
		write(fast.logitsPath(b, v, SplitTest, "")),
		write(fast.logitsPath(b, v, SplitVal, "__b11")),
	}
	kept := []string{
		write(full.logitsPath(b, v, SplitVal, "")),
		write(full.logitsPath(b, v, SplitTest, "__b11")),
		write(fast.logitsPath(b, other, SplitVal, "")),
	}
	fast.invalidateLogits(b, v)
	for _, p := range gone {
		if _, err := os.Stat(p); !os.IsNotExist(err) {
			t.Errorf("%s survived invalidation (stat error %v)", filepath.Base(p), err)
		}
	}
	for _, p := range kept {
		if _, err := os.Stat(p); err != nil {
			t.Errorf("%s: %v", filepath.Base(p), err)
		}
	}
}

func TestZooAccuracyBeatsChance(t *testing.T) {
	zoo := NewZoo(t.TempDir(), dataset.Fast)
	b := tinyBenchmark()
	mustTrain(t, zoo, b, Variant{})
	acc, err := zoo.Accuracy(b, Variant{}, SplitTest)
	if err != nil {
		t.Fatal(err)
	}
	if acc < 0.2 { // 10 classes; even the tiny linear model beats chance
		t.Errorf("tiny model accuracy %.3f; expected > 0.2", acc)
	}
}

func TestZooFingerprintChangesWithRecipe(t *testing.T) {
	zoo := NewZoo(t.TempDir(), dataset.Fast)
	b := tinyBenchmark()
	fp1 := zoo.fingerprint(b)
	b2 := b
	b2.Name = "tinytest2" // separate fingerprint memo entry
	b2.Train.Epochs = 99
	fp2 := zoo.fingerprint(b2)
	if fp1 == fp2 {
		t.Error("fingerprint identical despite recipe change")
	}
}

func TestZooLabels(t *testing.T) {
	zoo := NewZoo("", dataset.Fast)
	b := tinyBenchmark()
	labels, err := zoo.Labels(b, SplitTest)
	if err != nil {
		t.Fatal(err)
	}
	ds, _ := zoo.Dataset(b.DatasetName)
	if len(labels) != len(ds.Test) {
		t.Fatalf("labels %d, want %d", len(labels), len(ds.Test))
	}
	for i, l := range labels {
		if l != ds.Test[i].Label {
			t.Fatalf("label %d mismatch", i)
		}
	}
}

func TestFindRepoRoot(t *testing.T) {
	root, err := FindRepoRoot()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(root, "go.mod")); err != nil {
		t.Errorf("FindRepoRoot returned %s without go.mod", root)
	}
}

func TestSeedForIsStable(t *testing.T) {
	a := seedFor("convnet", Variant{Preproc: "FlipX"})
	b := seedFor("convnet", Variant{Preproc: "FlipX"})
	c := seedFor("convnet", Variant{Preproc: "FlipY"})
	if a != b {
		t.Error("seedFor not deterministic")
	}
	if a == c {
		t.Error("seedFor collision across variants")
	}
	if a < 0 {
		t.Error("seedFor negative")
	}
}
