package nn

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/tensor"
)

func TestSoftmaxProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(10)
		logits := tensor.New(n)
		logits.FillNormal(r, 0, 3)
		p := Softmax(logits)
		sum := 0.0
		for _, v := range p.Data {
			if v < 0 || v > 1 {
				return false
			}
			sum += v
		}
		if math.Abs(sum-1) > 1e-9 {
			return false
		}
		// argmax preserved
		li, _ := logits.MaxIndex()
		pi, _ := p.MaxIndex()
		return li == pi
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50, Rand: rng}); err != nil {
		t.Error(err)
	}
}

func TestSoftmaxStability(t *testing.T) {
	logits := tensor.FromSlice([]float64{1000, 999, 998}, 3)
	p := Softmax(logits)
	if math.IsNaN(p.Data[0]) || math.IsInf(p.Data[0], 0) {
		t.Fatalf("softmax overflowed on large logits: %v", p.Data)
	}
	if i, _ := p.MaxIndex(); i != 0 {
		t.Errorf("argmax = %d, want 0", i)
	}
}

func TestSoftmaxCrossEntropy(t *testing.T) {
	logits := tensor.FromSlice([]float64{0, 0, 0}, 3)
	loss, grad := SoftmaxCrossEntropy(logits, 1)
	if math.Abs(loss-math.Log(3)) > 1e-12 {
		t.Errorf("uniform loss = %v, want ln 3", loss)
	}
	wantGrad := []float64{1.0 / 3, 1.0/3 - 1, 1.0 / 3}
	for i, w := range wantGrad {
		if math.Abs(grad.Data[i]-w) > 1e-12 {
			t.Errorf("grad[%d] = %v, want %v", i, grad.Data[i], w)
		}
	}
	// Gradient sums to zero for any logits (softmax grad identity).
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 10; trial++ {
		l := tensor.New(5)
		l.FillNormal(rng, 0, 2)
		_, g := SoftmaxCrossEntropy(l, trial%5)
		if s := g.Sum(); math.Abs(s) > 1e-9 {
			t.Errorf("grad sum = %v, want 0", s)
		}
	}
}

func TestNewNetworkValidatesChaining(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	_, err := NewNetwork([]int{1, 8, 8}, 4,
		NewConv2D(1, 2, 3, 1, 1, rng),
		NewFlatten(),
		NewDense(2*8*8, 4, rng),
	)
	if err != nil {
		t.Fatalf("valid network rejected: %v", err)
	}

	// Channel mismatch must be rejected.
	_, err = NewNetwork([]int{3, 8, 8}, 4,
		NewConv2D(1, 2, 3, 1, 1, rng),
		NewFlatten(),
		NewDense(2*8*8, 4, rng),
	)
	if err == nil {
		t.Fatal("channel-mismatched network accepted")
	}

	// Wrong class count must be rejected.
	_, err = NewNetwork([]int{1, 8, 8}, 10,
		NewConv2D(1, 2, 3, 1, 1, rng),
		NewFlatten(),
		NewDense(2*8*8, 4, rng),
	)
	if err == nil {
		t.Fatal("class-mismatched network accepted")
	}
}

// buildTinyNet returns a small conv net for training tests.
func buildTinyNet(rng *rand.Rand, classes int) *Network {
	return MustNetwork([]int{1, 8, 8}, classes,
		NewConv2D(1, 4, 3, 1, 1, rng),
		NewReLU(),
		NewMaxPool2D(2),
		NewFlatten(),
		NewDense(4*4*4, classes, rng),
	)
}

// twoBlobSamples builds a trivially separable dataset: class 0 has mass in
// the top-left quadrant, class 1 in the bottom-right.
func twoBlobSamples(rng *rand.Rand, n int) []Sample {
	samples := make([]Sample, n)
	for i := range samples {
		x := tensor.New(1, 8, 8)
		x.FillNormal(rng, 0, 0.1)
		label := i % 2
		if label == 0 {
			for y := 0; y < 4; y++ {
				for xx := 0; xx < 4; xx++ {
					x.Data[y*8+xx] += 1
				}
			}
		} else {
			for y := 4; y < 8; y++ {
				for xx := 4; xx < 8; xx++ {
					x.Data[y*8+xx] += 1
				}
			}
		}
		samples[i] = Sample{X: x, Label: label}
	}
	return samples
}

func TestTrainLearnsSeparableData(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	net := buildTinyNet(rng, 2)
	samples := twoBlobSamples(rng, 120)
	before := Accuracy(net, samples)
	loss, err := Train(net, samples, TrainConfig{Epochs: 5, BatchSize: 8, LR: 0.05, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	after := Accuracy(net, samples)
	if after < 0.95 {
		t.Errorf("accuracy after training = %.3f (before %.3f, loss %.4f); want >= 0.95", after, before, loss)
	}
}

func TestTrainIsDeterministic(t *testing.T) {
	run := func() []float64 {
		rng := rand.New(rand.NewSource(24))
		net := buildTinyNet(rng, 2)
		samples := twoBlobSamples(rand.New(rand.NewSource(25)), 40)
		if _, err := Train(net, samples, TrainConfig{Epochs: 2, BatchSize: 4, LR: 0.05, Seed: 7}); err != nil {
			t.Fatal(err)
		}
		return append([]float64(nil), net.Params()[0].Value.Data...)
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("training not deterministic at weight %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestTrainRejectsEmptyDataset(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	net := buildTinyNet(rng, 2)
	if _, err := Train(net, nil, TrainConfig{}); err == nil {
		t.Fatal("Train with no samples should error")
	}
}

func TestSerializationRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	net := buildTinyNet(rng, 2)
	samples := twoBlobSamples(rng, 20)
	if _, err := Train(net, samples, TrainConfig{Epochs: 1, Seed: 3}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := net.SaveParams(&buf); err != nil {
		t.Fatal(err)
	}

	net2 := buildTinyNet(rand.New(rand.NewSource(999)), 2)
	if err := net2.LoadParams(&buf); err != nil {
		t.Fatal(err)
	}
	x := samples[0].X
	p1, p2 := net.Infer(x), net2.Infer(x)
	for i := range p1.Data {
		if p1.Data[i] != p2.Data[i] {
			t.Fatalf("restored network differs at output %d: %v vs %v", i, p1.Data[i], p2.Data[i])
		}
	}
}

func TestLoadParamsRejectsMismatchedTopology(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	net := buildTinyNet(rng, 2)
	var buf bytes.Buffer
	if err := net.SaveParams(&buf); err != nil {
		t.Fatal(err)
	}
	other := MustNetwork([]int{1, 8, 8}, 3,
		NewConv2D(1, 4, 3, 1, 1, rng),
		NewReLU(),
		NewMaxPool2D(2),
		NewFlatten(),
		NewDense(4*4*4, 3, rng),
	)
	if err := other.LoadParams(&buf); err == nil {
		t.Fatal("loading into mismatched topology should fail")
	}
}

func TestSaveParamsFileRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	net := buildTinyNet(rng, 2)
	path := t.TempDir() + "/sub/dir/model.gob"
	if err := net.SaveParamsFile(path); err != nil {
		t.Fatal(err)
	}
	net2 := buildTinyNet(rand.New(rand.NewSource(30)), 2)
	if err := net2.LoadParamsFile(path); err != nil {
		t.Fatal(err)
	}
	if net2.LoadParamsFile(path+".missing") == nil {
		t.Fatal("loading missing file should fail")
	}
}

func TestNetworkStats(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	net := buildTinyNet(rng, 2)
	var total Stats
	for _, s := range net.LayerStats() {
		total = addStats(total, s)
	}
	// conv: 8*8*4 outputs × 1*3*3 = 2304 MACs; dense: 64×2 = 128.
	wantMACs := 8*8*4*9 + 64*2
	if total.MACs != wantMACs {
		t.Errorf("summed LayerStats MACs = %d, want %d", total.MACs, wantMACs)
	}
	if total.ParamElems != net.NumParams() {
		t.Errorf("ParamElems = %d, NumParams = %d; want equal", total.ParamElems, net.NumParams())
	}
	if got := len(net.LayerStats()); got != len(net.Layers) {
		t.Errorf("LayerStats len = %d, want %d", got, len(net.Layers))
	}
}

func TestActivationHookAppliedInInferenceOnly(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	net := buildTinyNet(rng, 2)
	calls := 0
	net.ActivationHook = func(layer int, x *tensor.T) { calls++ }
	x := tensor.New(1, 8, 8)
	x.FillNormal(rng, 0, 1)
	net.Forward(x, false)
	if calls != len(net.Layers) {
		t.Errorf("hook called %d times in inference, want %d", calls, len(net.Layers))
	}
	calls = 0
	net.Forward(x, true)
	if calls != 0 {
		t.Errorf("hook called %d times in training, want 0", calls)
	}
}

func TestSGDMomentumAndDecay(t *testing.T) {
	// One parameter, constant gradient 1: with momentum 0 and lr 0.1 the
	// value decreases by 0.1 per step; weight decay pulls further.
	p := newParam("w", tensor.FromSlice([]float64{1}, 1), true)
	opt := NewSGD(0.1, 0)
	opt.WeightDecay = 0.5
	p.Grad.Data[0] = 1
	opt.Step([]*Param{p}, 1)
	want := 1 - 0.1*(1+0.5*1)
	if math.Abs(p.Value.Data[0]-want) > 1e-12 {
		t.Errorf("after step: %v, want %v", p.Value.Data[0], want)
	}
	if p.Grad.Data[0] != 0 {
		t.Error("gradient not cleared after step")
	}

	// Bias (Decay=false) must not be decayed.
	b := newParam("b", tensor.FromSlice([]float64{1}, 1), false)
	b.Grad.Data[0] = 0
	opt.Step([]*Param{b}, 1)
	if b.Value.Data[0] != 1 {
		t.Errorf("bias decayed: %v", b.Value.Data[0])
	}
}

func TestSGDClipNorm(t *testing.T) {
	p := newParam("w", tensor.FromSlice([]float64{0, 0}, 2), false)
	opt := NewSGD(1, 0)
	opt.ClipNorm = 1
	p.Grad.Data[0], p.Grad.Data[1] = 30, 40 // norm 50 → scaled to 1
	opt.Step([]*Param{p}, 1)
	wantNorm := 1.0
	gotNorm := math.Hypot(p.Value.Data[0], p.Value.Data[1])
	if math.Abs(gotNorm-wantNorm) > 1e-9 {
		t.Errorf("update norm = %v, want %v", gotNorm, wantNorm)
	}
}

func TestLogitsAllMatchesInfer(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	net := buildTinyNet(rng, 2)
	samples := twoBlobSamples(rng, 6)
	logits := LogitsAll(net, samples)
	if len(logits) != 6 {
		t.Fatalf("LogitsAll returned %d rows, want 6", len(logits))
	}
	for i, s := range samples {
		probs := net.Infer(s.X)
		fromLogits := Softmax(tensor.FromSlice(logits[i], len(logits[i])))
		for j := range probs.Data {
			if math.Abs(probs.Data[j]-fromLogits.Data[j]) > 1e-12 {
				t.Fatalf("sample %d: Infer disagrees with softmax(LogitsAll)", i)
			}
		}
	}
}
