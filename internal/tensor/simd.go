package tensor

// Architecture-independent surface of the SIMD acceleration layer: the
// dispatching wrappers the inference backends call. The machine picks the
// kernels: each wrapper runs the assembly microkernel where the CPU has
// AVX2+FMA (simdAvailable, a CPUID result on amd64 and false elsewhere)
// and its pure-Go body otherwise; see simd_amd64.go for what is
// accelerated and which wrappers preserve bit-identity. The float GEMM's
// microkernel dispatch, fmaGemm4, lives with its driver in gemm.go.

// SIMDAvailable reports whether this binary uses the vector kernels on
// this machine (amd64 with AVX2+FMA and OS vector-state support).
func SIMDAvailable() bool { return simdAvailable }

// DequantRow computes dst[i] = float32(c[i] − 128·cs[i] − corr)·scale +
// bias — the fused dequantize + bias epilogue of the int8 convolution and
// dense kernels (c holds biased GEMM accumulators, cs the matching column
// sums). Results are bit-identical between the vector body and
// dequantRowGo, its pure-Go body.
func DequantRow(dst []float32, c, cs []int32, corr int32, scale, bias float32) {
	i := 0
	if simdAvailable {
		if nb := len(dst) &^ 7; nb > 0 {
			dequantRowAVX(&dst[0], &c[0], &cs[0], nb, corr, scale, bias)
			i = nb
		}
	}
	dequantRowGo(dst[i:], c[i:], cs[i:], corr, scale, bias)
}

// dequantRowGo is DequantRow's pure-Go body. The product is converted
// explicitly so no target fuses it with the bias add: dequantRowAVX rounds
// both.
func dequantRowGo(dst []float32, c, cs []int32, corr int32, scale, bias float32) {
	for i := range dst {
		dst[i] = float32(float32(c[i]-128*cs[i]-corr)*scale) + bias
	}
}
