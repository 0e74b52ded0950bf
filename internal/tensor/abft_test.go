package tensor

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

func flipBit64(x *float64, bit uint) { *x = math.Float64frombits(math.Float64bits(*x) ^ (1 << bit)) }
func flipBit32(x *float32, bit uint) { *x = math.Float32frombits(math.Float32bits(*x) ^ (1 << bit)) }

func fillNormal32(t *T32, rng *rand.Rand) {
	for i := range t.Data {
		t.Data[i] = float32(rng.NormFloat64())
	}
}

// verifyGemm checks a plain product C = A×B through verifyConv's 1×1
// geometry, under which b is its own im2col matrix.
func verifyGemm(c, a, b *T) VerifyOutcome {
	return verifyConv(c.Data, a.Data, b.Data, a.Shape[0], 1, gemmGeom(b.Shape[0], b.Shape[1]))
}

// verifyGemm32 is verifyGemm for float32.
func verifyGemm32(c, a, b *T32) VerifyOutcome {
	return verifyConv(c.Data, a.Data, b.Data, a.Shape[0], 1, gemmGeom(b.Shape[0], b.Shape[1]))
}

// verifyTransB runs the dense-layer row checksum on C = A×Bᵀ (B [n, k]).
func verifyTransB(c, a, b *T) VerifyOutcome {
	return verifyMatMulTransB(c.Data, a.Data, b.Data, a.Shape[0], a.Shape[1], b.Shape[0])
}

// TestVerifyGemmCleanBitIdentical locks the epilogue contract of the f64
// verified GEMM: on a fault-free run verification reports zero detections
// and leaves the output bit-identical to the unverified kernel's, across
// full blocks and both edges.
func TestVerifyGemmCleanBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	shapes := [][3]int{
		{1, 1, 1},
		{3, 5, 7},
		{16, 32, 64},
		{8, 27, 2048},
		{32, 513, gemmNC + 3}, // long K with a column tail
	}
	for _, s := range shapes {
		m, k, n := s[0], s[1], s[2]
		t.Run(fmt.Sprintf("%dx%dx%d", m, k, n), func(t *testing.T) {
			a := New(m, k)
			a.FillNormal(rng, 0, 1)
			b := New(k, n)
			b.FillNormal(rng, 0, 1)
			want := New(m, n)
			GemmInto(want, a, b)
			got := New(m, n)
			GemmInto(got, a, b)
			o := verifyGemm(got, a, b)
			if o.Checks != n || o.Detected != 0 {
				t.Fatalf("clean run: outcome %+v, want %d checks and 0 detections", o, n)
			}
			for i, v := range got.Data {
				if math.Float64bits(v) != math.Float64bits(want.Data[i]) {
					t.Fatalf("element %d: verified %v != unverified %v", i, v, want.Data[i])
				}
			}
		})
	}
}

// TestVerifyGemm32CleanBitIdentical is the f32 clean-run contract.
func TestVerifyGemm32CleanBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for _, s := range [][3]int{{3, 5, 7}, {16, 48, 96}, {65, 33, 130}} {
		m, k, n := s[0], s[1], s[2]
		a := New32(m, k)
		fillNormal32(a, rng)
		b := New32(k, n)
		fillNormal32(b, rng)
		want := New32(m, n)
		GemmInto32Fast(want, a, b)
		got := New32(m, n)
		GemmInto32Fast(got, a, b)
		o := verifyGemm32(got, a, b)
		if o.Checks != n || o.Detected != 0 {
			t.Fatalf("%v: outcome %+v, want %d checks and 0 detections", s, o, n)
		}
		for i, v := range got.Data {
			if math.Float32bits(v) != math.Float32bits(want.Data[i]) {
				t.Fatalf("%v element %d: verified %v != unverified %v", s, i, v, want.Data[i])
			}
		}
	}
}

// TestVerifyGemmU8Clean locks the exact-checksum contract of the int8
// verified GEMM on clean runs, under both the vector and SWAR kernels.
func TestVerifyGemmU8Clean(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for _, simd := range kernelLegs() {
		m, k, n := 9, 33, 70
		a := make([]uint8, m*k)
		b := make([]uint8, k*n)
		for i := range a {
			a[i] = uint8(rng.Intn(256))
		}
		for i := range b {
			b[i] = uint8(rng.Intn(256))
		}
		want := make([]int32, m*n)
		wantCS := make([]int32, n)
		gemmU8(want, wantCS, a, b, m, k, n, simd)
		got := make([]int32, m*n)
		gotCS := make([]int32, n)
		gemmU8(got, gotCS, a, b, m, k, n, simd)
		o := VerifyGemmU8(got, gotCS, a, b, m, k, n)
		if o.Checks != n || o.Detected != 0 {
			t.Fatalf("simd=%v: outcome %+v, want %d checks and 0 detections", simd, o, n)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("simd=%v acc[%d]: %d != %d", simd, i, got[i], want[i])
			}
		}
		for j := range wantCS {
			if gotCS[j] != wantCS[j] {
				t.Fatalf("simd=%v colsum[%d]: %d != %d", simd, j, gotCS[j], wantCS[j])
			}
		}
	}
}

// TestVerifyGemmDetectsAndCorrects flips representative high-order bits in
// the f64 output of the served GEMM and checks each is detected, repaired,
// and restored to the exact clean value: the repair re-runs the served
// driver on the column. m = 6 and 9 put the flip in reach of the row edge.
func TestVerifyGemmDetectsAndCorrects(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	for _, m := range []int{16, 6, 9} {
		k, n := 32, 48
		a := New(m, k)
		a.FillNormal(rng, 0, 1)
		b := New(k, n)
		b.FillNormal(rng, 0, 1)
		clean := New(m, n)
		gemmServed(clean.Data, a.Data, b.Data, m, k, n)
		for _, bit := range []uint{63, 62, 55, 51} {
			c := clean.Clone()
			idx := rng.Intn(m * n)
			flipBit64(&c.Data[idx], bit)
			o := verifyGemm(c, a, b)
			if o.Detected != 1 || o.Corrected != 1 || !o.OK() {
				t.Fatalf("m=%d bit %d at %d: outcome %+v, want exactly one corrected detection", m, bit, idx, o)
			}
			for i, v := range c.Data {
				if math.Float64bits(v) != math.Float64bits(clean.Data[i]) {
					t.Fatalf("m=%d bit %d: repaired element %d = %v, want clean %v", m, bit, i, v, clean.Data[i])
				}
			}
		}
	}
}

// TestVerifyGemm32DetectsAndCorrects is the f32 flip coverage: every
// repaired output is bit-equal to the clean served product.
func TestVerifyGemm32DetectsAndCorrects(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	for _, m := range []int{16, 6, 9} {
		k, n := 32, 48
		a := New32(m, k)
		fillNormal32(a, rng)
		b := New32(k, n)
		fillNormal32(b, rng)
		clean := New32(m, n)
		gemmServed(clean.Data, a.Data, b.Data, m, k, n)
		for _, bit := range []uint{31, 30, 25, 22} {
			c := &T32{Shape: []int{m, n}, Data: append([]float32(nil), clean.Data...)}
			idx := rng.Intn(m * n)
			flipBit32(&c.Data[idx], bit)
			o := verifyGemm32(c, a, b)
			if o.Detected != 1 || o.Corrected != 1 || !o.OK() {
				t.Fatalf("m=%d bit %d at %d: outcome %+v, want one corrected detection", m, bit, idx, o)
			}
			for i, v := range c.Data {
				if math.Float32bits(v) != math.Float32bits(clean.Data[i]) {
					t.Fatalf("m=%d bit %d: repaired element %d = %v, want clean %v", m, bit, i, v, clean.Data[i])
				}
			}
		}
	}
}

// TestVerifyGemmU8DetectsAndCorrects covers both fault surfaces of the int8
// kernel — the int32 accumulators and the column sums — and requires exact
// restoration (the integer kernel is deterministic).
func TestVerifyGemmU8DetectsAndCorrects(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	m, k, n := 8, 50, 40
	a := make([]uint8, m*k)
	b := make([]uint8, k*n)
	for i := range a {
		a[i] = uint8(rng.Intn(256))
	}
	for i := range b {
		b[i] = uint8(rng.Intn(256))
	}
	clean := make([]int32, m*n)
	cleanCS := make([]int32, n)
	GemmU8Into(clean, cleanCS, a, b, m, k, n)

	for _, bit := range []uint{0, 7, 19, 30} {
		c := append([]int32(nil), clean...)
		cs := append([]int32(nil), cleanCS...)
		c[rng.Intn(m*n)] ^= 1 << bit
		cs[rng.Intn(n)] ^= 1 << bit
		o := VerifyGemmU8(c, cs, a, b, m, k, n)
		if o.Detected == 0 || !o.OK() {
			t.Fatalf("bit %d: outcome %+v, want detection and full correction", bit, o)
		}
		for i := range clean {
			if c[i] != clean[i] {
				t.Fatalf("bit %d: acc[%d] = %d, want %d", bit, i, c[i], clean[i])
			}
		}
		for j := range cleanCS {
			if cs[j] != cleanCS[j] {
				t.Fatalf("bit %d: colsum[%d] = %d, want %d", bit, j, cs[j], cleanCS[j])
			}
		}
	}
}

// TestVerifyConvGeneratedOperand runs the conv verifiers — which generate
// B from the conv's input and geometry instead of reading a materialized
// im2col matrix — on the output of the kernels serving each geometry of
// the implicit-GEMM sweep: the implicit float drivers, the int8 direct
// shift kernel at stride 1 and the implicit int8 driver. A clean product
// passes every column untouched. One corrupted accumulator is detected and
// its column repaired to the clean served output, bit for bit (and for
// int8 a column-sum flip is repaired too). The float legs run once, on the
// machine's own uint8 leg; the uint8 legs run on every kernel.
func TestVerifyConvGeneratedOperand(t *testing.T) {
	for _, simd := range kernelLegs() {
		rng := rand.New(rand.NewSource(151))
		for ci, tc := range implicitGeoms(rng) {
			g, bsz, m := tc.g, tc.bsz, tc.outC
			k := g.InC * g.KH * g.KW
			n := bsz * g.OutH() * g.OutW()
			chw := g.InC * g.InH * g.InW
			name := fmt.Sprintf("simd=%v case %d (geom %+v bsz %d)", simd, ci, g, bsz)

			w := New(m, k)
			w.FillNormal(rng, 0, 1)
			src := New(bsz, chw)
			src.FillNormal(rng, 0, 1)
			idx := rng.Intn(m * n)
			if simd == simdAvailable {
				convVerifyCheck(t, name+" f64", w.Data, src.Data, m, bsz, g, idx, func(cm []float64) VerifyOutcome {
					return verifyConv(cm, w.Data, src.Data, m, bsz, g)
				})
				w32, src32 := To32(w), To32(src)
				convVerifyCheck(t, name+" f32", w32.Data, src32.Data, m, bsz, g, idx, func(cm []float32) VerifyOutcome {
					return verifyConv(cm, w32.Data, src32.Data, m, bsz, g)
				})
			}

			a := make([]uint8, m*k)
			qsrc := make([]uint8, bsz*chw)
			rng.Read(a)
			rng.Read(qsrc)
			zp := uint8(rng.Intn(256))
			clean := make([]int32, m*n)
			cleanCS := make([]int32, n)
			if g.Stride == 1 {
				convDirectU8(clean, cleanCS, PackConvShiftU8(a, m, g.InC, g.KH, g.KW), qsrc, bsz, g, zp, simd)
			} else {
				convGemmU8(clean, cleanCS, a, qsrc, m, k, n, bsz, g, zp, simd)
			}
			c := append([]int32(nil), clean...)
			cs := append([]int32(nil), cleanCS...)
			if o := VerifyConvU8(c, cs, a, m, qsrc, bsz, g, zp); o.Checks != n || o.Detected != 0 {
				t.Fatalf("%s u8 clean: outcome %+v, want %d checks and 0 detections", name, o, n)
			}
			c[idx] ^= 1 << 20
			cs[rng.Intn(n)] ^= 1 << 3
			if o := VerifyConvU8(c, cs, a, m, qsrc, bsz, g, zp); o.Detected == 0 || !o.OK() {
				t.Fatalf("%s u8 flips: outcome %+v, want detection and full correction", name, o)
			}
			for i := range clean {
				if c[i] != clean[i] {
					t.Fatalf("%s u8: acc[%d] = %d, want %d", name, i, c[i], clean[i])
				}
			}
			for j := range cleanCS {
				if cs[j] != cleanCS[j] {
					t.Fatalf("%s u8: colsum[%d] = %d, want %d", name, j, cs[j], cleanCS[j])
				}
			}
		}
	}
}

// convVerifyCheck is TestVerifyConvGeneratedOperand's float leg: cm from
// the implicit driver, a clean verify, then one corrupted element at idx
// whose repair must restore the clean bits.
func convVerifyCheck[F Float](t *testing.T, name string, w, src []F, m, bsz int, g ConvGeom, idx int, verify func(cm []F) VerifyOutcome) {
	t.Helper()
	k := len(w) / m
	n := bsz * g.OutH() * g.OutW()
	cm := make([]F, m*n)
	convGemm(cm, w, src, m, k, n, bsz, g)
	clean := append([]F(nil), cm...)
	if o := verify(cm); o.Checks != n || o.Detected != 0 {
		t.Fatalf("%s clean: outcome %+v, want %d checks and 0 detections", name, o, n)
	}
	cm[idx] = -64*cm[idx] - 1024
	if o := verify(cm); o.Detected != 1 || o.Corrected != 1 {
		t.Fatalf("%s corrupted element %d: outcome %+v, want one corrected detection", name, idx, o)
	}
	for i, v := range cm {
		if float64bitsOf(v) != float64bitsOf(clean[i]) {
			t.Fatalf("%s: element %d = %v after repair, want clean %v", name, i, v, clean[i])
		}
	}
}

// TestVerifyMatMulTransB covers the row-checksum check of the batched
// Dense kernels (f64 and f32): clean bit-identity, then detection and
// bit-exact repair (the repair path re-runs the same matMulTransB row).
func TestVerifyMatMulTransB(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	m, k, n := 7, 64, 10 // B=7 images, In=64, Out=10

	a := New(m, k)
	a.FillNormal(rng, 0, 1)
	b := New(n, k)
	b.FillNormal(rng, 0, 1)
	clean := New(m, n)
	MatMulTransBInto(clean, a, b)
	c := New(m, n)
	MatMulTransBInto(c, a, b)
	if o := verifyTransB(c, a, b); o.Checks != m || o.Detected != 0 {
		t.Fatalf("clean f64 run: outcome %+v", o)
	}
	for i := range c.Data {
		if math.Float64bits(c.Data[i]) != math.Float64bits(clean.Data[i]) {
			t.Fatalf("clean f64 run diverged at %d", i)
		}
	}
	flipBit64(&c.Data[13], 61)
	if o := verifyTransB(c, a, b); o.Detected != 1 || o.Corrected != 1 {
		t.Fatalf("f64 flip: outcome %+v", o)
	}
	for i := range c.Data {
		if math.Float64bits(c.Data[i]) != math.Float64bits(clean.Data[i]) {
			t.Fatalf("f64 repair: element %d = %v, want %v", i, c.Data[i], clean.Data[i])
		}
	}

	a32 := New32(m, k)
	fillNormal32(a32, rng)
	b32 := New32(n, k)
	fillNormal32(b32, rng)
	clean32 := New32(m, n)
	matMulTransB(clean32.Data, a32.Data, b32.Data, m, k, n)
	c32 := New32(m, n)
	matMulTransB(c32.Data, a32.Data, b32.Data, m, k, n)
	if o := verifyMatMulTransB(c32.Data, a32.Data, b32.Data, m, k, n); o.Checks != m || o.Detected != 0 {
		t.Fatalf("clean f32 run: outcome %+v", o)
	}
	flipBit32(&c32.Data[31], 29)
	if o := verifyMatMulTransB(c32.Data, a32.Data, b32.Data, m, k, n); o.Detected != 1 || o.Corrected != 1 {
		t.Fatalf("f32 flip: outcome %+v", o)
	}
	for i := range c32.Data {
		if math.Float32bits(c32.Data[i]) != math.Float32bits(clean32.Data[i]) {
			t.Fatalf("f32 repair: element %d = %v, want %v", i, c32.Data[i], clean32.Data[i])
		}
	}
}

// TestVerifyUncorrectable models a fault that persists across re-execution
// (corrupted operand memory) via the retry hook: the mismatch must survive
// every bounded retry and be reported uncorrectable.
func TestVerifyUncorrectable(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	m, k, n := 8, 16, 12
	a := New(m, k)
	a.FillNormal(rng, 0, 1)
	b := New(k, n)
	b.FillNormal(rng, 0, 1)
	c := New(m, n)
	GemmInto(c, a, b)
	flipBit64(&c.Data[0], 62)

	// The checksum was predicted from the clean A; corrupting A now makes
	// every re-execution reproduce a product inconsistent with it.
	SetAbftRetryHook(func(int) { a.Data[0] = 1e30 })
	defer SetAbftRetryHook(nil)

	o := verifyGemm(c, a, b)
	if o.Detected != 1 || o.Uncorrectable != 1 || o.OK() {
		t.Fatalf("outcome %+v, want one uncorrectable detection", o)
	}
}

// TestAbftStats checks the atomic sink arithmetic and its nil-safety.
func TestAbftStats(t *testing.T) {
	var s *AbftStats
	s.Record(VerifyOutcome{Checks: 5, Detected: 1}) // nil sink: no-op
	if c := s.Counts(); c != (AbftCounts{}) {
		t.Fatalf("nil stats counts %+v", c)
	}
	s = &AbftStats{}
	s.Record(VerifyOutcome{Checks: 5})
	s.Record(VerifyOutcome{Checks: 3, Detected: 2, Corrected: 1, Uncorrectable: 1})
	got := s.Counts()
	want := AbftCounts{Checks: 8, Detected: 2, Corrected: 1, Uncorrectable: 1}
	if got != want {
		t.Fatalf("counts %+v, want %+v", got, want)
	}
}

// gemmBodyFor returns the served microkernel (simd) or its pure-Go body.
func gemmBodyFor[F Float](simd bool) gemm4Body[F] {
	if simd {
		return fmaGemm4[F]
	}
	return gemm4Go[F]
}

// TestAbftZeroFalsePositivesCleanGemms runs 500 clean randomized GEMMs
// through the verified kernels — f64, f32 and int8 products of both the
// vector kernels and the pure-Go bodies, across random shapes and scale
// regimes spanning denormal to huge — and
// requires zero detections: the tolerance derivation must never flag a
// fault-free product.
func TestAbftZeroFalsePositivesCleanGemms(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	scales := []float64{1, 1e-3, 1e3, 1e-20, 1e20, 1e-300, 1e300, 5e-324, 1e-40}
	for run := 0; run < 500; run++ {
		m := rng.Intn(24) + 1
		k := rng.Intn(48) + 1
		n := rng.Intn(24) + 1
		scale := scales[rng.Intn(len(scales))]
		simd := run/4%2 == 0 && simdAvailable // alternate the products' kernels
		switch run % 4 {
		case 0: // f64 GEMM
			a := New(m, k)
			a.FillNormal(rng, 0, scale)
			b := New(k, n)
			b.FillNormal(rng, 0, scale)
			c := New(m, n)
			gemmWith(gemmBodyFor[float64](simd), c.Data, a.Data, b.Data, m, k, n, n, n)
			if o := verifyGemm(c, a, b); o.Detected != 0 {
				t.Fatalf("run %d f64 %dx%dx%d scale %g: false positive %+v", run, m, k, n, scale, o)
			}
		case 1: // f32 GEMM
			a := New32(m, k)
			b := New32(k, n)
			for i := range a.Data {
				a.Data[i] = float32(rng.NormFloat64() * scale)
			}
			for i := range b.Data {
				b.Data[i] = float32(rng.NormFloat64() * scale)
			}
			c := New32(m, n)
			gemmWith(gemmBodyFor[float32](simd), c.Data, a.Data, b.Data, m, k, n, n, n)
			if o := verifyGemm32(c, a, b); o.Detected != 0 {
				t.Fatalf("run %d f32 %dx%dx%d scale %g: false positive %+v", run, m, k, n, scale, o)
			}
		case 2: // f64 transposed-B (batched Dense shape)
			a := New(m, k)
			a.FillNormal(rng, 0, scale)
			b := New(n, k)
			b.FillNormal(rng, 0, scale)
			c := New(m, n)
			MatMulTransBInto(c, a, b)
			if o := verifyTransB(c, a, b); o.Detected != 0 {
				t.Fatalf("run %d transB %dx%dx%d scale %g: false positive %+v", run, m, k, n, scale, o)
			}
		case 3: // int8
			a := make([]uint8, m*k)
			b := make([]uint8, k*n)
			for i := range a {
				a[i] = uint8(rng.Intn(256))
			}
			for i := range b {
				b[i] = uint8(rng.Intn(256))
			}
			c := make([]int32, m*n)
			cs := make([]int32, n)
			gemmU8(c, cs, a, b, m, k, n, simd)
			if o := VerifyGemmU8(c, cs, a, b, m, k, n); o.Detected != 0 {
				t.Fatalf("run %d u8 %dx%dx%d: false positive %+v", run, m, k, n, o)
			}
		}
	}
}

// FuzzChecksumVerify throws hostile matrices — NaN, ±Inf, denormals and
// huge magnitudes reachable through raw bit patterns — at every verified
// kernel and checks the sanitization contract: no panic, and no false
// mismatch on a fault-free product (non-finite checksums make a column
// unverifiable, never "detected").
func FuzzChecksumVerify(f *testing.F) {
	f.Add(uint8(3), uint8(4), uint8(5), []byte("polygraph abft"))
	f.Add(uint8(1), uint8(1), uint8(1), []byte{})
	hostile := make([]byte, 0, 6*8)
	for _, bits := range []uint64{
		math.Float64bits(math.NaN()),
		math.Float64bits(math.Inf(1)),
		math.Float64bits(math.Inf(-1)),
		math.Float64bits(1e308),
		math.Float64bits(-1e308),
		math.Float64bits(5e-324),
	} {
		hostile = binary.LittleEndian.AppendUint64(hostile, bits)
	}
	f.Add(uint8(4), uint8(6), uint8(4), hostile)
	f.Add(uint8(0xa2), uint8(0x83), uint8(0x86), hostile)     // 3×3, stride 2, pad 1, bsz 2
	f.Add(uint8(2), uint8(5), uint8(4), []byte("plain gemm")) // the 1×1 conv of a 3×1×5 image

	f.Fuzz(func(t *testing.T, mr, kr, nr uint8, raw []byte) {
		m := int(mr)%6 + 1
		k := int(kr)%8 + 1
		n := int(nr)%6 + 1
		fill := func(d []float64, off int) {
			for i := range d {
				j := off + i
				if (j+1)*8 <= len(raw) {
					d[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[j*8:]))
				} else if j < len(raw) {
					d[i] = (float64(raw[j]) - 128) / 32
				}
			}
		}
		a := New(m, k)
		fill(a.Data, 0)
		b := New(k, n)
		fill(b.Data, m*k)
		c := New(m, n)
		GemmInto(c, a, b)
		if o := verifyGemm(c, a, b); o.Detected != 0 {
			t.Fatalf("f64 GEMM false mismatch: %+v", o)
		}

		a32 := To32(a)
		b32 := To32(b)
		c32 := New32(m, n)
		GemmInto32Fast(c32, a32, b32)
		if o := verifyGemm32(c32, a32, b32); o.Detected != 0 {
			t.Fatalf("f32 GEMM false mismatch: %+v", o)
		}

		bt := New(n, k)
		fill(bt.Data, m*k+k*n)
		ct := New(m, n)
		MatMulTransBInto(ct, a, bt)
		if o := verifyTransB(ct, a, bt); o.Detected != 0 {
			t.Fatalf("f64 transB false mismatch: %+v", o)
		}

		ua := make([]uint8, m*k)
		ub := make([]uint8, k*n)
		for i := range ua {
			if i < len(raw) {
				ua[i] = raw[i]
			}
		}
		for i := range ub {
			if i+len(ua) < len(raw) {
				ub[i] = raw[i+len(ua)]
			}
		}
		uc := make([]int32, m*n)
		ucs := make([]int32, n)
		GemmU8Into(uc, ucs, ua, ub, m, k, n)
		if o := VerifyGemmU8(uc, ucs, ua, ub, m, k, n); o.Detected != 0 {
			t.Fatalf("u8 false mismatch: %+v", o)
		}

		// The same bytes as a convolution the verifiers generate B for:
		// InC, H and W from the low bits, kernel, stride, pad and batch
		// from the high ones.
		kk := 1 + 2*int(mr>>7)
		g := ConvGeom{InC: int(mr)%3 + 1, InH: int(kr)%5 + 1, InW: int(nr)%5 + 1, KH: kk, KW: kk, Stride: 1 + int(kr>>7), Pad: int(nr >> 7)}
		g.InH, g.InW = max(g.InH, kk-2*g.Pad), max(g.InW, kk-2*g.Pad)
		bsz := 1 + int(mr>>5&3)%3
		ck, cn := g.InC*kk*kk, bsz*g.OutH()*g.OutW()
		w := New(m, ck)
		fill(w.Data, 0)
		src := make([]float64, bsz*g.InC*g.InH*g.InW)
		fill(src, m*ck)
		cm := New(m, cn)
		ConvGemmIm2Col(cm, w, src, bsz, g)
		if o := verifyConv(cm.Data, w.Data, src, m, bsz, g); o.Checks != cn || o.Detected != 0 {
			t.Fatalf("f64 conv %+v bsz %d false mismatch: %+v", g, bsz, o)
		}
		w32 := To32(w)
		src32 := To32(&T{Shape: []int{len(src)}, Data: src}).Data
		cm32 := New32(m, cn)
		ConvGemmIm2Col32(cm32, w32, src32, bsz, g)
		if o := verifyConv(cm32.Data, w32.Data, src32, m, bsz, g); o.Detected != 0 {
			t.Fatalf("f32 conv %+v bsz %d false mismatch: %+v", g, bsz, o)
		}
		uw := make([]uint8, m*ck)
		usrc := make([]uint8, len(src))
		copy(uw, raw)
		copy(usrc, raw[min(len(uw), len(raw)):])
		zp := uint8(len(raw))
		uacc := make([]int32, m*cn)
		ucs = make([]int32, cn)
		ConvGemmU8Im2Col(uacc, ucs, uw, m, usrc, bsz, g, zp)
		if o := VerifyConvU8(uacc, ucs, uw, m, usrc, bsz, g, zp); o.Detected != 0 {
			t.Fatalf("u8 conv %+v bsz %d false mismatch: %+v", g, bsz, o)
		}
		if g.Stride == 1 {
			ConvDirectU8(uacc, ucs, PackConvShiftU8(uw, m, g.InC, kk, kk), usrc, bsz, g, zp)
			if o := VerifyConvU8(uacc, ucs, uw, m, usrc, bsz, g, zp); o.Detected != 0 {
				t.Fatalf("u8 direct conv %+v bsz %d false mismatch: %+v", g, bsz, o)
			}
		}
	})
}

// TestAbftRowKernelsPositionInvariant holds the row kernels of the float
// checksum passes, and DequantRow, to one result per element wherever the
// element sits in the row: every element of a full-row call must have the
// bits the same element gets as a one-element call. On AVX2 machines that
// puts each element on both sides of the vector-body/scalar-tail split, so
// a kernel whose tail rounds differently from its body (axpyAuto's once
// did: fused multiply-add in the body, two roundings in the tail) would
// make a column's predicted checksum depend on the batch width.
func TestAbftRowKernelsPositionInvariant(t *testing.T) {
	t.Run("f32", func(t *testing.T) { rowKernelPositionCheck[float32](t, 81) })
	t.Run("f64", func(t *testing.T) { rowKernelPositionCheck[float64](t, 82) })
	t.Run("DequantRow", func(t *testing.T) {
		rng := rand.New(rand.NewSource(83))
		const n = 37
		for trial := 0; trial < 200; trial++ {
			c, cs := make([]int32, n), make([]int32, n)
			for i := range c {
				c[i] = rng.Int31n(1 << 24)
				cs[i] = rng.Int31n(1 << 16)
			}
			corr := rng.Int31n(1 << 20)
			scale, bias := float32(rng.ExpFloat64()*1e-3), float32(rng.NormFloat64())
			full := make([]float32, n)
			DequantRow(full, c, cs, corr, scale, bias)
			for j := range full {
				var one [1]float32
				DequantRow(one[:], c[j:j+1], cs[j:j+1], corr, scale, bias)
				if math.Float32bits(one[0]) != math.Float32bits(full[j]) {
					t.Fatalf("trial %d element %d: %v alone, %v in the row", trial, j, one[0], full[j])
				}
			}
		}
	})
}

func rowKernelPositionCheck[F Float](t *testing.T, seed int64) {
	// kernels wraps each row kernel as k(x, y, z, alpha): x and y are the
	// output (or in-out) rows, z the input row.
	kernels := []struct {
		name string
		k    func(x, y, z []F, alpha F)
	}{
		{"axpyAuto", func(x, _, z []F, alpha F) { axpyAuto(x, alpha, z) }},
		{"scaleSetAuto", func(x, _, z []F, alpha F) { scaleSetAuto(x, alpha, z) }},
		{"sumAbsAuto", func(x, y, z []F, _ F) { sumAbsAuto(x, y, z) }},
		{"setAbsAuto", func(x, y, z []F, _ F) { setAbsAuto(x, y, z) }},
	}
	rng := rand.New(rand.NewSource(seed))
	const n = 37 // whole registers of either width, and a tail
	for _, kn := range kernels {
		for trial := 0; trial < 200; trial++ {
			x0, y0, z := make([]F, n), make([]F, n), make([]F, n)
			for i := range z {
				x0[i] = F(rng.NormFloat64())
				y0[i] = F(rng.ExpFloat64())
				z[i] = F(rng.NormFloat64() * math.Exp2(float64(rng.Intn(20)-10)))
			}
			alpha := F(rng.NormFloat64())
			x, y := append([]F(nil), x0...), append([]F(nil), y0...)
			kn.k(x, y, z, alpha)
			for j := 0; j < n; j++ {
				ox, oy := []F{x0[j]}, []F{y0[j]}
				kn.k(ox, oy, z[j:j+1], alpha)
				if float64bitsOf(ox[0]) != float64bitsOf(x[j]) || float64bitsOf(oy[0]) != float64bitsOf(y[j]) {
					t.Fatalf("%s trial %d element %d: (%v, %v) alone, (%v, %v) in the row",
						kn.name, trial, j, ox[0], oy[0], x[j], y[j])
				}
			}
		}
	}
}

// float64bitsOf returns the encoding of v widened to float64. Widening is
// exact and one-to-one on the finite values compared here, so equal
// encodings mean equal bits at either width.
func float64bitsOf[F Float](v F) uint64 { return math.Float64bits(float64(v)) }
