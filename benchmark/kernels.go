package main

import (
	"math/rand"
	"runtime"
	"sort"
	"time"

	"repro/internal/tensor"
)

// probeBudget is the wall time one replay probe may spend measuring. Probes
// are the first thing to shorten if the benchmark must fit a smaller cap.
const probeBudget = 60 * time.Millisecond

// timeOp returns the median seconds one call of fn takes, over repeated
// samples of enough calls each to dwarf the timer's resolution. fn runs
// once untimed first, so pools and lazy set-up are warm.
func timeOp(fn func()) float64 {
	fn()
	start := time.Now()
	fn()
	once := time.Since(start)
	inner := 1
	if once < 200*time.Microsecond {
		inner = int(200*time.Microsecond/(once+1)) + 1
	}
	var samples []float64
	for deadline := time.Now().Add(probeBudget); len(samples) < 5 || time.Now().Before(deadline); {
		start := time.Now()
		for i := 0; i < inner; i++ {
			fn()
		}
		samples = append(samples, time.Since(start).Seconds()/float64(inner))
		if len(samples) >= 200 {
			break
		}
	}
	sort.Float64s(samples)
	return samples[len(samples)/2]
}

// convShape is one of the served convnet's convolutions.
type convShape struct {
	name string
	g    tensor.ConvGeom
	outC int
}

// convShapes are the convnet's first two 3×3 convolutions (the third has a
// quarter of conv2's work), probed at the serving batch size.
var convShapes = []convShape{
	{"conv1", tensor.ConvGeom{InC: 3, InH: 32, InW: 32, KH: 3, KW: 3, Stride: 1, Pad: 1}, 8},
	{"conv2", tensor.ConvGeom{InC: 8, InH: 16, InW: 16, KH: 3, KW: 3, Stride: 1, Pad: 1}, 12},
}

const kernelBatch = 32

// kernelProbes times the tensor package's convolution lowerings at the
// served shapes and calibrates the machine peak, all on one thread
// (GOMAXPROCS 1, so a kernel's rate and the peak are per core and
// comparable). Every rate uses the direct convolution's operation count,
// 2·OutC·InC·KH·KW·B·OutH·OutW, whatever the lowering actually executes;
// byte rates are computed from tensor sizes, not measured traffic. Each rate
// is also logged as a fraction of its precision's peak.
func kernelProbes(m map[string]float64, logf func(format string, args ...any)) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))

	pf64, pf32, pi8 := peakLoops()
	peak := map[string]float64{"f64": pf64.rate(), "f32": pf32.rate(), "int8": pi8.rate()}
	m["tensor.peak_f64_gflops"] = peak["f64"]
	m["tensor.peak_f32_gflops"] = peak["f32"]
	m["tensor.peak_i8_gops"] = peak["int8"]

	best := map[string]float64{}
	rng := rand.New(rand.NewSource(17))
	for _, s := range convShapes {
		g := s.g
		k := g.InC * g.KH * g.KW
		ohw := g.OutH() * g.OutW()
		n := kernelBatch * ohw
		chw := g.InC * g.InH * g.InW
		gops := 2 * float64(s.outC) * float64(k) * float64(n) / 1e9
		rate := func(prec, algo string, fn func()) {
			unit := "_gflops."
			if prec == "u8" {
				unit = "_gops."
			}
			r := gops / timeOp(fn)
			name := "tensor." + algo + "_" + prec + unit + s.name
			m[name] = r
			if prec == "u8" {
				prec = "int8"
			}
			best[prec] = max(best[prec], r)
			logf("%s is %.3f of the %s peak", name, r/peak[prec], prec)
		}

		// float64
		w64 := tensor.New(s.outC, k)
		src64 := tensor.New(kernelBatch, chw)
		for i := range w64.Data {
			w64.Data[i] = rng.NormFloat64()
		}
		for i := range src64.Data {
			src64.Data[i] = rng.Float64()
		}
		imgs := make([]*tensor.T, kernelBatch)
		for b := range imgs {
			imgs[b] = tensor.FromSlice(src64.Data[b*chw:(b+1)*chw], g.InC, g.InH, g.InW)
		}
		bias64 := make([]float64, s.outC)
		cm64, cols64 := tensor.New(s.outC, n), tensor.New(k, n)
		dst64 := tensor.New(kernelBatch, s.outC*ohw)
		u64 := tensor.PackWinoFilter(w64, s.outC, g.InC)
		a64 := tensor.NewArena()
		rate("f64", "gemm", func() {
			tensor.Im2ColBatch(cols64, imgs, g)
			tensor.GemmInto(cm64, w64, cols64)
		})
		rate("f64", "implicit", func() { tensor.ConvGemmIm2Col(cm64, w64, src64.Data, kernelBatch, g) })
		rate("f64", "winograd", func() {
			tensor.WinogradConv3x3Pre(dst64, src64, kernelBatch, s.outC, u64, bias64, g, a64)
			a64.Reset()
		})
		if s.name == "conv1" {
			bytes := float64(len(src64.Data)+len(cols64.Data)) * 8
			m["tensor.im2col_gb_per_s"] = bytes / timeOp(func() { tensor.Im2ColBatch(cols64, imgs, g) }) / 1e9
		}

		// float32
		w32, src32 := tensor.To32(w64), tensor.To32(src64)
		bias32 := make([]float32, s.outC)
		cm32, cols32 := tensor.New32(s.outC, n), tensor.New32(k, n)
		dst32 := tensor.New32(kernelBatch, s.outC*ohw)
		u32 := tensor.PackWinoFilter32(w32, s.outC, g.InC)
		a32 := tensor.NewArena32()
		rate("f32", "gemm", func() {
			tensor.Im2ColBatch32(cols32, src32, kernelBatch, g)
			tensor.GemmInto32Fast(cm32, w32, cols32)
		})
		rate("f32", "implicit", func() { tensor.ConvGemmIm2Col32(cm32, w32, src32.Data, kernelBatch, g) })
		rate("f32", "winograd", func() {
			tensor.WinogradConv3x3F32Pre(dst32, src32, kernelBatch, s.outC, u32, bias32, g, a32)
			a32.Reset()
		})

		// uint8
		qw := tensor.QuantizeWeightsSym(w64.Data, s.outC, k)
		shift := tensor.PackConvShiftU8(qw.Bits, s.outC, g.InC, g.KH, g.KW)
		qsrc, qcols := make([]uint8, kernelBatch*chw), make([]uint8, k*n)
		const zp = 3
		tensor.QuantizeU8(qsrc, src32.Data, 250, zp)
		acc, colsum := make([]int32, s.outC*n), make([]int32, n)
		rate("u8", "gemm", func() {
			tensor.Im2ColBatchU8(qcols, qsrc, kernelBatch, g, zp)
			tensor.GemmU8Into(acc, colsum, qw.Bits, qcols, s.outC, k, n)
		})
		rate("u8", "implicit", func() {
			tensor.ConvGemmU8Im2Col(acc, colsum, qw.Bits, s.outC, qsrc, kernelBatch, g, zp)
		})
		rate("u8", "direct", func() { tensor.ConvDirectU8(acc, colsum, shift, qsrc, kernelBatch, g, zp) })
		if s.name == "conv1" {
			bytes := float64(len(qsrc)) * (4 + 1)
			m["tensor.quantize_u8_gb_per_s"] = bytes / timeOp(func() { tensor.QuantizeU8(qsrc, src32.Data, 250, zp) }) / 1e9
		}
	}
	for prec, r := range best {
		m["tensor.best_of_peak."+prec] = r / peak[prec]
	}
}
