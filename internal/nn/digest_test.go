package nn_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/nn"
	"repro/internal/tensor"
)

// servedRowsDigests are the SHA-256 digests (first 16 hex digits) of the
// served softmax rows of digestFixtures, per fixture and backend, on the
// AVX2 kernels. Each covers B ∈ {1, 7, 32}, unverified then verified,
// every row's Float64bits in order. A change to any served kernel,
// epilogue, node or softmax that moves one bit of one row changes a
// digest.
var servedRowsDigests = map[string]string{
	"lenet5/f64":       "4e3b73b6611cad98",
	"lenet5/f32":       "ebeb180e2a19f959",
	"lenet5/int8":      "ea568c099b238885",
	"convnet/f64":      "9d11181fe03917a9",
	"convnet/f32":      "4be24668a6c2e6fe",
	"convnet/int8":     "b304b2c6c2c92347",
	"resnet20/f64":     "018a543764be8607",
	"resnet20/f32":     "06f0ed7924b31c30",
	"resnet20/int8":    "7199253b646148ae",
	"densenet40/f64":   "e449e379a2b48904",
	"densenet40/f32":   "4b2fb88f219c5173",
	"densenet40/int8":  "e4fbe5d273bd1925",
	"alexnet/f64":      "faed0138bd302204",
	"alexnet/f32":      "d91e8f0401357f8d",
	"alexnet/int8":     "51780df387fe2feb",
	"resnet34/f64":     "7a3e18551255871d",
	"resnet34/f32":     "5d2d84f896e6b29d",
	"resnet34/int8":    "803235425d154820",
	"every-layer/f64":  "0450930f202a6cd1",
	"every-layer/f32":  "b8945287a284ee75",
	"every-layer/int8": "efc5d4730157be4e",
}

// servedRowsDigestsGo are servedRowsDigests on the pure-Go kernel bodies,
// as a 386 build computes them: the GEMM rounds each product before it
// adds it, and math.Exp is the pure-Go one.
var servedRowsDigestsGo = map[string]string{
	"lenet5/f64":       "39f9c953447c183d",
	"lenet5/f32":       "9392150a6cda5866",
	"lenet5/int8":      "964162c28c9b72d1",
	"convnet/f64":      "79afe8e658ee5df8",
	"convnet/f32":      "49c016272aacc0cc",
	"convnet/int8":     "854cec5eda836d43",
	"resnet20/f64":     "79f26fad0aeca64f",
	"resnet20/f32":     "dbaacefe9d8cb88f",
	"resnet20/int8":    "2b61e22707c4ffdb",
	"densenet40/f64":   "ce04d44433dc65bb",
	"densenet40/f32":   "3d8d73a1adeea63f",
	"densenet40/int8":  "f38a9824746769f8",
	"alexnet/f64":      "6c9cdafc7776fd67",
	"alexnet/f32":      "f6829e0dfcbcfdab",
	"alexnet/int8":     "e26ace65cbc3b91c",
	"resnet34/f64":     "cae506c98870c79c",
	"resnet34/f32":     "22ca741195400e84",
	"resnet34/int8":    "5d40dc3b88aeb130",
	"every-layer/f64":  "93e7fa3ba8781a1b",
	"every-layer/f32":  "2e8506d8f8eacc12",
	"every-layer/int8": "18f0275a36d133e1",
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
// AVX2 machines are held to the AVX2 table and 386 builds to the pure-Go
// one. Other targets skip: amd64 without AVX2 runs the pure-Go GEMM body
// but math.Exp's assembly, and arm64 has its own math.Exp assembly, so
// their softmax bits match neither table (ROADMAP direction 11).
func TestServedRowsDigest(t *testing.T) {
	digests := servedRowsDigests
	switch {
	case tensor.SIMDAvailable():
	case runtime.GOARCH == "386":
		digests = servedRowsDigestsGo
	default:
		t.Skip("no committed digests for this target's kernels and math.Exp (ROADMAP direction 11)")
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
			if want := digests[key]; got != want {
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
