package nn_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand"
	"testing"

	"repro/internal/nn"
	"repro/internal/tensor"
)

// servedRowsDigests are the SHA-256 digests (first 16 hex digits) of the
// served softmax rows of digestFixtures, per fixture and backend. Each
// covers B ∈ {1, 7, 32}, unverified then verified, every row's
// Float64bits in order. A change to any served kernel, epilogue, node or
// softmax that moves one bit of one row changes a digest.
var servedRowsDigests = map[string]string{
	"lenet5/f64":       "7255cfa3e14b118e",
	"lenet5/f32":       "9f224e1aada7f0e0",
	"lenet5/int8":      "09c56e3f5acb18bb",
	"convnet/f64":      "44b4aa9ec9fdd1ba",
	"convnet/f32":      "6ce9e8acb6025b4e",
	"convnet/int8":     "b304b2c6c2c92347",
	"resnet20/f64":     "ce70521cc3b98b9e",
	"resnet20/f32":     "109f15ed0f9dd08d",
	"resnet20/int8":    "7199253b646148ae",
	"densenet40/f64":   "85ee74691ef6ceed",
	"densenet40/f32":   "ce431d0758b2024d",
	"densenet40/int8":  "e4fbe5d273bd1925",
	"alexnet/f64":      "65c51933ff0f1a5e",
	"alexnet/f32":      "d83184812f3d3a23",
	"alexnet/int8":     "e7d8d30977bc286d",
	"resnet34/f64":     "c3a65b31969925a7",
	"resnet34/f32":     "fc6c73ddb35be1f2",
	"resnet34/int8":    "803235425d154820",
	"every-layer/f64":  "91d014266bfdf925",
	"every-layer/f32":  "5a9665ddf0e1afde",
	"every-layer/int8": "efc5d4730157be4e",
}

// digestFixtures are the zoo topologies of backendFixtures plus a network
// with every layer kind (leaky rectifiers on both branches, a 3×3 pool,
// plain and projected residual blocks, a dense unit, dropout), with
// nonzero biases and β, γ ≠ 1 and running statistics away from (0, 1), so
// a dropped bias, a misplaced norm term or a wrongly folded σ shows.
func digestFixtures(t testing.TB) []backendFixture {
	fs := backendFixtures(t)
	rng := rand.New(rand.NewSource(97))
	every := nn.MustNetwork([]int{3, 12, 12}, 5,
		nn.NewConv2D(3, 4, 3, 1, 1, rng),
		nn.NewReLU(),
		nn.NewMaxPool2D(2),
		nn.NewConv2D(4, 4, 3, 1, 1, rng),
		nn.NewChannelNorm(4),
		nn.NewReLU(),
		nn.NewResidualBlock(4, 6, 1, rng),
		nn.NewPlainResidualBlock(6, 6, 1, rng),
		nn.NewDenseUnit(6, 2, rng),
		nn.NewMaxPool2D(3),
		nn.NewLeakyReLU(0.1),
		nn.NewLeakyReLU(2),
		nn.NewDropout(0.3, 7),
		nn.NewGlobalAvgPool(),
		nn.NewFlatten(),
		nn.NewDense(8, 5, rng),
	)
	xs := make([]*tensor.T, 32)
	for i := range xs {
		xs[i] = tensor.New(3, 12, 12)
		xs[i].FillUniform(rng, 0, 1)
	}
	fs = append(fs, backendFixture{name: "every-layer", net: every, xs: xs})
	for _, f := range fs {
		for _, p := range f.net.Params() {
			switch p.Name {
			case "bias", "beta":
				for i := range p.Value.Data {
					p.Value.Data[i] = 0.2 * rng.NormFloat64()
				}
			case "gamma":
				for i := range p.Value.Data {
					p.Value.Data[i] = 1 + 0.2*rng.NormFloat64()
				}
			}
		}
		// StateTensors lists each norm's running mean, then its variance.
		st := f.net.StateTensors()
		for i := 0; i+1 < len(st); i += 2 {
			for c := range st[i].Data {
				st[i].Data[c] = 0.1 * rng.NormFloat64()
				st[i+1].Data[c] = 0.5 + rng.Float64()
			}
		}
	}
	return fs
}

// TestServedRowsDigest pins the served rows of every backend to committed
// digests, so a refactor of the serving engine can show it moved no bit.
// The digests are the AVX2 kernels' bits: pure-Go targets round the GEMM's
// multiply-adds differently (ROADMAP direction 11), so they skip.
func TestServedRowsDigest(t *testing.T) {
	if !tensor.SIMDAvailable() {
		t.Skip("digests are of the AVX2 kernels; pure-Go targets round differently (ROADMAP direction 11)")
	}
	for _, f := range digestFixtures(t) {
		for _, be := range []string{"f64", "f32", "int8"} {
			run := servedRows(t, f, be)
			h := sha256.New()
			var buf [8]byte
			for _, bsz := range []int{1, 7, 32} {
				for _, sink := range []*tensor.AbftStats{nil, {}} {
					for _, row := range run(f.xs[:bsz], sink) {
						for _, v := range row {
							binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
							h.Write(buf[:])
						}
					}
				}
			}
			key := f.name + "/" + be
			got := hex.EncodeToString(h.Sum(nil))[:16]
			if want := servedRowsDigests[key]; got != want {
				t.Errorf("%s: served rows digest %s, want %s", key, got, want)
			}
		}
	}
}

// servedRows returns the served forward of fixture f on backend be, with
// an optional ABFT sink.
func servedRows(t *testing.T, f backendFixture, be string) func([]*tensor.T, *tensor.AbftStats) [][]float64 {
	t.Helper()
	var net interface {
		InferBatch([]*tensor.T, *tensor.Arena) [][]float64
	}
	var err error
	switch be {
	case "f64":
		net, err = nn.Compile[float64](f.net)
	case "f32":
		net, err = f.net.Compile32()
	default:
		net, err = f.net.CompileInt8(f.xs[:8])
	}
	if err != nil {
		t.Fatal(err)
	}
	return func(xs []*tensor.T, sink *tensor.AbftStats) [][]float64 {
		a := tensor.NewArena()
		a.SetAbft(sink)
		return net.InferBatch(xs, a)
	}
}
