package tensor

import (
	"math"
	"sync/atomic"
	"unsafe"
)

// Algorithm-based fault tolerance (ABFT) for the inference kernels, after
// FT-CNN (Zhao et al., arXiv 2003.12203; DESIGN.md §10). Every served
// product C = A×B — a convolution, B = im2col(src), or a Dense layer, B
// its transposed weight pack as a 1×1 convolution (gemmGeom) — satisfies
// a column-checksum invariant that is cheap to predict from the operands
// and cheap to measure on the output:
//
//	Σ_i C[i][j] = Σ_p (Σ_i A[i][p])·B[p][j]
//
// Predicting it costs O(mk + kn) multiply-adds and measuring it O(mn) — a
// (1/m + 1/n + 1/k) fraction of the O(mkn) GEMM — so a transient compute
// fault (a bit flip in an accumulator, a wrong store) is caught in the
// kernel epilogue at a few percent overhead. A mismatch localizes the
// fault to one output column, which is re-executed with the served kernel
// and re-checked, bounded by abftMaxRetries; a persistent mismatch (e.g.
// a corrupted operand buffer, which re-execution faithfully reproduces) is
// reported uncorrectable so the caller can flag the result as suspect.
//
// Verification is a pure epilogue: the verified wrappers run the exact
// same kernel as the unverified path and never touch clean output values,
// so a fault-free verified run is bit-identical to an unverified one
// (locked by the abft property tests).
//
// Float paths compare against a relative tolerance derived from the
// accumulation-chain length and the column magnitude: checksums are
// accumulated in float64 and a column passes when
//
//	|predicted − actual| ≤ abftTol·((k+m)·ε·bound + (m+1)·(k+1)·η)
//
// where bound is the Σ|A[i][p]|·|B[p][j]| magnitude envelope of the
// column, ε the unit roundoff of the data type (2⁻⁵³ for f64, 2⁻²⁴ for
// f32 — the f64 checksum error is folded into the constant), and η the
// smallest denormal, which floors the tolerance when products underflow
// below gradual-underflow resolution. Columns whose predicted sum or bound
// is NaN/±Inf are unverifiable — the invariant itself saturates — and are
// skipped rather than reported, so hostile inputs can never produce a
// false mismatch (locked by FuzzChecksumVerify); a NaN/±Inf actual sum is
// detected as a fault when the bound proves the clean product cannot
// overflow. The int8
// kernel needs no tolerance at all: its int32 accumulators are exact, so
// the checksum (carried in int64 to avoid overflow) must match bit for
// bit.

const (
	// abftTol is the safety multiplier on the float error bound. The
	// derivation above is worst-case linear in the chain length while real
	// rounding error grows ~√length, so the margin against false positives
	// is large; keeping the multiplier small preserves sensitivity to
	// mid-mantissa bit flips.
	abftTol = 8.0
	// abftMaxRetries bounds re-execution of a mismatched column before
	// it is declared uncorrectable.
	abftMaxRetries = 2

	abftEps32 = 0x1p-24
	abftEps64 = 0x1p-53
	abftEta32 = 0x1p-149
	abftEta64 = 0x1p-1074
	abftLim32 = math.MaxFloat32
	abftLim64 = math.MaxFloat64
)

// VerifyOutcome reports what one verified kernel invocation found. Checks
// counts checksum comparisons, one per output column of the product;
// Detected counts mismatches; every detected mismatch ends up either
// Corrected (re-execution restored the invariant) or Uncorrectable (the
// mismatch persisted — the operands themselves are corrupt, or the fault
// recurs).
type VerifyOutcome struct {
	Checks        int
	Detected      int
	Corrected     int
	Uncorrectable int
}

// OK reports whether the output can be trusted: every detected fault was
// corrected.
func (o VerifyOutcome) OK() bool { return o.Uncorrectable == 0 }

// merge accumulates p into o.
func (o *VerifyOutcome) merge(p VerifyOutcome) {
	o.Checks += p.Checks
	o.Detected += p.Detected
	o.Corrected += p.Corrected
	o.Uncorrectable += p.Uncorrectable
}

// AbftStats is a race-free sink for VerifyOutcomes, shared by every worker
// goroutine running verified inference for one member (or one system). The
// zero value is ready to use. It also carries the fault-injection seams of
// the kernels that record into it (installed on an arena by
// Arena.SetAbft): a campaign installs onto the sink of the runs it means
// to strike, and every other sink's kernels stay clean. Set the hooks
// before the runs they strike start; production code leaves both nil.
type AbftStats struct {
	checks        atomic.Uint64
	detected      atomic.Uint64
	corrected     atomic.Uint64
	uncorrectable atomic.Uint64

	// Injector, when non-nil, is handed every live output buffer the
	// verify epilogues are about to measure (see AbftInjector).
	Injector AbftInjector
	// RetryHook, when non-nil, runs before every repair attempt with the
	// 0-based attempt index. It models faults that persist across
	// re-execution — corrupted operand memory, a recurring fault — which a
	// stable-memory retry could otherwise never exhibit.
	RetryHook func(attempt int)
}

// Record adds one kernel outcome. A nil receiver is a no-op so call sites
// can thread an optional sink without branching.
func (s *AbftStats) Record(o VerifyOutcome) {
	if s == nil {
		return
	}
	if o.Checks != 0 {
		s.checks.Add(uint64(o.Checks))
	}
	if o.Detected != 0 {
		s.detected.Add(uint64(o.Detected))
		s.corrected.Add(uint64(o.Corrected))
		s.uncorrectable.Add(uint64(o.Uncorrectable))
	}
}

// Add folds a snapshot from another sink into s — per-call sinks aggregate
// into a system-wide telemetry sink this way. A nil receiver is a no-op.
func (s *AbftStats) Add(c AbftCounts) {
	if s == nil {
		return
	}
	s.checks.Add(c.Checks)
	s.detected.Add(c.Detected)
	s.corrected.Add(c.Corrected)
	s.uncorrectable.Add(c.Uncorrectable)
}

// AbftCounts is a point-in-time snapshot of an AbftStats.
type AbftCounts struct {
	Checks        uint64
	Detected      uint64
	Corrected     uint64
	Uncorrectable uint64
}

// Counts snapshots the counters. A nil receiver reads as zero.
func (s *AbftStats) Counts() AbftCounts {
	if s == nil {
		return AbftCounts{}
	}
	return AbftCounts{
		Checks:        s.checks.Load(),
		Detected:      s.detected.Load(),
		Corrected:     s.corrected.Load(),
		Uncorrectable: s.uncorrectable.Load(),
	}
}

// retry runs the repair-attempt hook, if any. A nil receiver is a no-op.
func (s *AbftStats) retry(attempt int) {
	if s != nil && s.RetryHook != nil {
		s.RetryHook(attempt)
	}
}

// AbftInjector corrupts live kernel output buffers. The verify epilogues
// hand every buffer they are about to measure to their sink's injector
// first, so a fault-injection campaign (internal/faults) can flip bits in
// the data the checksums actually cover — modelling a transient fault that
// struck during the kernel, after the operands were read but before the
// epilogue ran. The repair path does NOT re-invoke the injector: a flip is
// transient, and re-execution computes from clean operands (persistent
// faults are modelled separately by AbftStats.RetryHook).
type AbftInjector interface {
	// CorruptF64 may flip bits in a float64 output buffer.
	CorruptF64(buf []float64)
	// CorruptF32 may flip bits in a float32 output buffer.
	CorruptF32(buf []float32)
	// CorruptI32 may flip bits in the int8 kernel's int32 accumulators or
	// column sums.
	CorruptI32(acc, colsum []int32)
}

// injectF hands a float output buffer to s's injector, if any.
func injectF[F Float](s *AbftStats, buf []F) {
	if s == nil || s.Injector == nil {
		return
	}
	switch b := any(buf).(type) {
	case []float64:
		s.Injector.CorruptF64(b)
	case []float32:
		s.Injector.CorruptF32(b)
	}
}

// abftMismatch reports whether predicted and actual disagree beyond tol.
// A non-finite prediction or tolerance (a saturated bound) makes the check
// unverifiable — the operands contain NaN/Inf or the product legitimately
// overflows, and no checksum statement can be made — so the column is
// skipped rather than flagged. A non-finite ACTUAL sum, however, is a
// detected fault whenever the magnitude envelope bnd proves clean
// arithmetic stays far inside the finite range lim of the data type: every
// clean intermediate is bounded by bnd, so nothing short of a fault can
// have produced the NaN/Inf.
func abftMismatch(pred, act, tol, bnd, lim float64) bool {
	if math.IsNaN(pred) || math.IsInf(pred, 0) ||
		math.IsNaN(tol) || math.IsInf(tol, 0) {
		return false
	}
	if math.IsNaN(act) || math.IsInf(act, 0) {
		return bnd < lim/2
	}
	d := pred - act
	if d < 0 {
		d = -d
	}
	return d > tol
}

// abftColTol returns the float tolerance for one column with magnitude
// envelope bnd, chain length k and summation length m.
func abftColTol(bnd float64, k, m int, eps, eta float64) float64 {
	return abftTol * (float64(k+m)*eps*bnd + float64(m+1)*float64(k+1)*eta)
}

// recomputeConvCol re-executes column j of C = A×B, B's column j given
// gathered in col, with the served GEMM driver (its edge scratch from a):
// a column's bits do not depend on its neighbours, so a repaired column
// has exactly the bits a fault-free run serves.
func recomputeConvCol[F Float](cd, ad, col []F, m, n, j int, a *Arena) {
	gemmFMA(cd[j:], ad, col, m, len(col), 1, n, 1, a)
}

// gemmGeom is the geometry under which a plain GEMM's B operand [k, n] is
// its own im2col matrix: a 1×1, stride-1, unpadded convolution of one
// k-channel 1×n image. The conv verifiers check plain products through it.
func gemmGeom(k, n int) ConvGeom {
	return ConvGeom{InC: k, InH: 1, InW: n, KH: 1, KW: 1, Stride: 1}
}

// The prediction passes read B = im2col(src) a row at a time, in ascending
// p, through convRows. At stride 1 no row is generated: the batch is laid
// out once channel-major, images stacked, every plane padded by g.Pad on
// each side ([InC][bsz][InH+2·Pad][InW+2·Pad]), and row p = (c, kh, kw)
// of B is the channel-c block of that layout shifted by (kh, kw) — read in
// a padded column layout, whose extra positions unpadCols drops.
// Strided convolutions generate each row with im2colBlock instead.

// convRowsLen returns the length of the rows convRows hands out and of the
// scratch it lays them out in.
func convRowsLen(bsz int, g ConvGeom) (rowLen, size int) {
	if g.Stride != 1 {
		n := bsz * g.OutH() * g.OutW()
		return n, n
	}
	pw, plane := g.InW+2*g.Pad, (g.InH+2*g.Pad)*(g.InW+2*g.Pad)
	return (bsz-1)*plane + (g.OutH()-1)*pw + g.OutW(), g.InC * bsz * plane
}

// convRows calls f(p, x) for every row p of B = im2col(src) in ascending
// p, padding positions taking pad; x lives in xs.
func convRows[E Float | uint8](src []E, bsz int, g ConvGeom, pad E, xs []E, f func(p int, x []E)) {
	rowLen, size := convRowsLen(bsz, g)
	xs = xs[:size]
	k := g.InC * g.KH * g.KW
	if g.Stride != 1 {
		for p := 0; p < k; p++ {
			im2colBlock(xs, src, g, p, 1, 0, rowLen, rowLen, pad)
			f(p, xs)
		}
		return
	}
	pw, plane, hw := g.InW+2*g.Pad, (g.InH+2*g.Pad)*(g.InW+2*g.Pad), g.InH*g.InW
	fill(xs, pad)
	for c := 0; c < g.InC; c++ {
		for b := 0; b < bsz; b++ {
			dst, img := xs[(c*bsz+b)*plane+g.Pad*pw+g.Pad:], src[(b*g.InC+c)*hw:]
			for y := 0; y < g.InH; y++ {
				copy(dst[y*pw:y*pw+g.InW], img[y*g.InW:(y+1)*g.InW])
			}
		}
	}
	khw := g.KH * g.KW
	for p := 0; p < k; p++ {
		f(p, xs[p/khw*bsz*plane+p%khw/g.KW*pw+p%g.KW:][:rowLen])
	}
}

// unpadCols gathers the columns of a stride-1 prediction from convRows'
// padded layout pp into dst.
func unpadCols[T any](dst, pp []T, bsz int, g ConvGeom) {
	oh, ow := g.OutH(), g.OutW()
	pw, plane := g.InW+2*g.Pad, (g.InH+2*g.Pad)*(g.InW+2*g.Pad)
	for b := 0; b < bsz; b++ {
		for y := 0; y < oh; y++ {
			copy(dst[(b*oh+y)*ow:(b*oh+y+1)*ow], pp[b*plane+y*pw:])
		}
	}
}

// abftProxyTerms precomputes the loop-invariant pieces of abftColTol for
// the fast tier of verifyConvCols, which judges a column by the magnitude
// proxy Σ|C[i][j]| in one multiply-add: tol = scale·proxy + floor. The
// triangle inequality puts the proxy at or below the true Σ|A|·|B|
// envelope, so a pass is a pass of the exact check and a miss only
// escalates to it. A non-finite proxy (or an overflowing product) yields a
// non-finite tol, which the `t <= MaxFloat64` guard at the use site routes
// to the exact tier.
func abftProxyTerms(k, m int, eps, eta float64) (scale, floor float64) {
	return abftTol * float64(k+m) * eps, abftTol * float64(m+1) * float64(k+1) * eta
}

// sumAbsAccum folds one row into the running column sums and magnitude
// sums with 4-way unrolling. NaN propagates into both accumulators (the
// negation test is false for NaN), which routes the column to the slow
// verification tier.
func sumAbsAccum[F Float](sum, sumAbs []F, row []F) {
	n := len(row)
	if n == 0 {
		return
	}
	_ = sum[n-1]
	_ = sumAbs[n-1]
	j := 0
	for ; j+4 <= n; j += 4 {
		v0, v1, v2, v3 := row[j], row[j+1], row[j+2], row[j+3]
		sum[j] += v0
		sum[j+1] += v1
		sum[j+2] += v2
		sum[j+3] += v3
		if v0 < 0 {
			v0 = -v0
		}
		if v1 < 0 {
			v1 = -v1
		}
		if v2 < 0 {
			v2 = -v2
		}
		if v3 < 0 {
			v3 = -v3
		}
		sumAbs[j] += v0
		sumAbs[j+1] += v1
		sumAbs[j+2] += v2
		sumAbs[j+3] += v3
	}
	for ; j < n; j++ {
		v := row[j]
		sum[j] += v
		if v < 0 {
			v = -v
		}
		sumAbs[j] += v
	}
}

// axpyAuto adds alpha·src into dst on the AVX2 row kernels where the
// machine has them, on axpyUnrolled elsewhere. The vector kernels fuse
// each multiply-add (one rounding) where axpyUnrolled rounds twice, so
// the last partial register's worth does not fall back to the scalar
// loop: it runs through the same kernel on zero-padded scratch, as
// gemmEdges does for the GEMM. A column's predicted checksum then has
// the same bits wherever the column sits — which is what keeps the
// verifier's verdict on an image independent of its batchmates.
func axpyAuto[F Float](dst []F, alpha F, src []F) {
	if !simdAvailable {
		axpyUnrolled(dst, alpha, src)
		return
	}
	n := len(dst)
	nb := n - n%ymmLanes[F]()
	if nb > 0 {
		axpyRow(&dst[0], &src[0], nb, alpha)
	}
	if nb < n {
		var d, s [8]F
		copy(s[:], src[nb:n])
		copy(d[:], dst[nb:])
		axpyRow(&d[0], &s[0], ymmLanes[F](), alpha)
		copy(dst[nb:], d[:n-nb])
	}
}

// axpyRow runs F's AVX2 axpy kernel on n values (n a multiple of one YMM
// register's lanes). The size test is a constant in each instantiation.
func axpyRow[F Float](dst, src *F, n int, alpha F) {
	if unsafe.Sizeof(alpha) == 4 {
		axpyRowF32AVX((*float32)(unsafe.Pointer(dst)), (*float32)(unsafe.Pointer(src)), n, *(*float32)(unsafe.Pointer(&alpha)))
		return
	}
	axpyRowF64AVX((*float64)(unsafe.Pointer(dst)), (*float64)(unsafe.Pointer(src)), n, *(*float64)(unsafe.Pointer(&alpha)))
}

// sumAbsAuto is the dispatching variant of sumAbsAccum.
func sumAbsAuto[F Float](sum, sumAbs []F, row []F) {
	if simdAvailable {
		switch s := any(sum).(type) {
		case []float32:
			if nb := len(row) &^ 7; nb > 0 {
				sumAbsRowF32AVX(&s[0], &any(sumAbs).([]float32)[0], &any(row).([]float32)[0], nb)
				sum, sumAbs, row = sum[nb:], sumAbs[nb:], row[nb:]
			}
		case []float64:
			if nb := len(row) &^ 3; nb > 0 {
				sumAbsRowF64AVX(&s[0], &any(sumAbs).([]float64)[0], &any(row).([]float64)[0], nb)
				sum, sumAbs, row = sum[nb:], sumAbs[nb:], row[nb:]
			}
		}
	}
	sumAbsAccum(sum, sumAbs, row)
}

// scaleSetAuto seeds dst = alpha·src, AVX2-dispatched for float32. Seeding
// with the first row instead of zeroing lets the arena scratch skip a
// clear pass.
func scaleSetAuto[F Float](dst []F, alpha F, src []F) {
	j := 0
	if d, ok := any(dst).([]float32); ok && simdAvailable {
		if nb := len(dst) &^ 7; nb > 0 {
			scaleSetRowF32AVX(&d[0], &any(src).([]float32)[0], nb, float32(alpha))
			j = nb
		}
	}
	for ; j < len(dst); j++ {
		dst[j] = alpha * src[j]
	}
}

// setAbsAuto seeds sum = row and sumAbs = |row|, AVX2-dispatched for
// float32. NaN propagates into both outputs either way (the scalar negate
// test is false for NaN, the vector path only clears the sign bit).
func setAbsAuto[F Float](sum, sumAbs, row []F) {
	j := 0
	if s, ok := any(sum).([]float32); ok && simdAvailable {
		if nb := len(row) &^ 7; nb > 0 {
			setAbsRowF32AVX(&s[0], &any(sumAbs).([]float32)[0], &any(row).([]float32)[0], nb)
			j = nb
		}
	}
	for ; j < len(row); j++ {
		v := row[j]
		sum[j] = v
		if v < 0 {
			v = -v
		}
		sumAbs[j] = v
	}
}

// f32Down returns the largest float32 not exceeding the non-negative
// finite x — a round-toward-zero conversion, used to build conservative
// single-precision proxy constants.
func f32Down(x float64) float32 {
	f := float32(x)
	if float64(f) > x {
		f = math.Float32frombits(math.Float32bits(f) - 1)
	}
	return f
}

// predRowU8 computes pred[j] += s·b[j] and csRef[j] += b[j] — one row of
// the int32 checksum prediction pass, AVX2-dispatched.
func predRowU8(pred, csRef []int32, b []uint8, s int32) {
	n := len(b)
	j := 0
	if simdAvailable {
		if nb := n &^ 7; nb > 0 {
			predRowU8AVX(&pred[0], &csRef[0], &b[0], nb, s)
			j = nb
		}
	}
	for ; j < n; j++ {
		v := int32(b[j])
		pred[j] += s * v
		csRef[j] += v
	}
}

// sumRowI32 computes acc[i] += row[i] — one row of the int32 checksum
// measurement pass, AVX2-dispatched.
func sumRowI32(acc, row []int32) {
	n := len(row)
	i := 0
	if simdAvailable {
		if nb := n &^ 7; nb > 0 {
			sumRowI32AVX(&acc[0], &row[0], nb)
			i = nb
		}
	}
	for ; i < n; i++ {
		acc[i] += row[i]
	}
}

// verifyConvCols checks (and where needed repairs) every column of the
// already-computed product cd = ad × im2col(src) against column
// checksums. B is never materialized: the prediction pass reads its rows
// through convRows, and the magnitude envelope and repair gather the one
// column they need with im2colBlock, so the check reads the conv's input
// and filter whichever kernel produced cd.
// Its checksum arrays are scratch from a, released on return; the repair
// path runs a's sink's RetryHook before every attempt.
// The checksum accumulators run in the native element type F: the
// tolerance already charges abftTol·(k+m)·eps for the kernel's own
// accumulation error, and the checksum passes add at most k·eps·bnd
// (prediction) plus m·eps·bnd (measurement) on top — comfortably inside
// that budget, and far cheaper than float64-widening every float32
// element.
func verifyConvCols[F Float](cd, ad, src []F, m, bsz int, g ConvGeom, eps, eta, lim float64, a *Arena) VerifyOutcome {
	k := g.InC * g.KH * g.KW
	n := bsz * g.OutH() * g.OutW()
	o := VerifyOutcome{Checks: n}
	if m == 0 || k == 0 || n == 0 {
		return o
	}
	mk := a.Mark()
	rowLen, size := convRowsLen(bsz, g)
	buf := Raw[F](a, 3*n+2*k+rowLen+size)
	pred, act, actAbs := buf[:n], buf[n:2*n], buf[2*n:3*n]
	aSum, col := buf[3*n:3*n+k], buf[3*n+k:3*n+2*k]
	acc, xs := pred, buf[3*n+2*k+rowLen:]
	if g.Stride == 1 {
		acc = buf[3*n+2*k : 3*n+2*k+rowLen]
	}
	aAbs := Raw[float64](a, k)
	copy(aSum, ad[:k])
	for p, v := range ad[:k] {
		aAbs[p] = math.Abs(float64(v))
	}
	for i := 1; i < m; i++ {
		for p, v := range ad[i*k : (i+1)*k] {
			aSum[p] += v
			aAbs[p] += math.Abs(float64(v))
		}
	}
	// Prediction pass. Each column accumulates B's rows in ascending p, so
	// its predicted checksum has the bits a materialized B would give it.
	convRows(src, bsz, g, 0, xs, func(p int, x []F) {
		if p == 0 {
			scaleSetAuto(acc, aSum[0], x)
		} else {
			axpyAuto(acc, aSum[p], x)
		}
	})
	if g.Stride == 1 {
		unpadCols(pred, acc, bsz, g)
	}
	setAbsAuto(act, actAbs, cd[:n])
	for i := 1; i < m; i++ {
		sumAbsAuto(act, actAbs, cd[i*n:(i+1)*n])
	}
	scale, floor := abftProxyTerms(k, m, eps, eta)
	// checkCol runs the exact float64 check for one column: proxy tier,
	// then the magnitude envelope over the gathered column, then detection
	// and repair.
	checkCol := func(j int) {
		d := float64(pred[j]) - float64(act[j])
		if d < 0 {
			d = -d
		}
		if t := scale*float64(actAbs[j]) + floor; d <= t && t <= math.MaxFloat64 {
			return
		}
		// Suspicious (or non-finite) column: reconstruct the exact
		// magnitude envelope from B's column j and re-judge.
		im2colBlock(col, src, g, 0, k, j, 1, 1, 0)
		var bnd float64
		for p, v := range col {
			bnd += aAbs[p] * math.Abs(float64(v))
		}
		tol := abftColTol(bnd, k, m, eps, eta)
		if !abftMismatch(float64(pred[j]), float64(act[j]), tol, bnd, lim) {
			return
		}
		o.Detected++
		ok := false
		for r := 0; r < abftMaxRetries; r++ {
			a.Abft().retry(r)
			// Re-gather: re-execution reads the operands as they are now.
			im2colBlock(col, src, g, 0, k, j, 1, 1, 0)
			recomputeConvCol(cd, ad, col, m, n, j, a)
			s := 0.0
			for i := 0; i < m; i++ {
				s += float64(cd[i*n+j])
			}
			if !abftMismatch(float64(pred[j]), s, tol, bnd, lim) {
				ok = true
				break
			}
		}
		if ok {
			o.Corrected++
		} else {
			o.Uncorrectable++
		}
	}
	j := 0
	if p32, ok := any(pred).([]float32); ok && simdAvailable {
		// Vectorized fast tier: eight columns per scan step against
		// single-precision proxy constants deflated by 4 ulp (and rounded
		// toward zero), so the vector tolerance never exceeds the exact
		// float64 one — a lane pass is always sound, a lane miss only
		// sends those eight columns to checkCol for the exact verdict.
		a32 := any(act).([]float32)
		ab32 := any(actAbs).([]float32)
		s32 := f32Down(scale * (1 - 4*abftEps32))
		fl32 := f32Down(floor * (1 - 4*abftEps32))
		nb := n &^ 7
		for j < nb {
			idx := proxyScanF32AVX(&p32[0], &a32[0], &ab32[0], j, nb, s32, fl32)
			if idx >= nb {
				j = nb
				break
			}
			for jj := idx; jj < idx+8; jj++ {
				checkCol(jj)
			}
			j = idx + 8
		}
	}
	for ; j < n; j++ {
		// The proxy tier inline, so a clean column costs no call.
		if d, t := math.Abs(float64(pred[j])-float64(act[j])), scale*float64(actAbs[j])+floor; !(d <= t && t <= math.MaxFloat64) {
			checkCol(j)
		}
	}
	a.Release(mk)
	return o
}

// verifyConv checks and repairs an already-computed convolution product
// cm = weight × im2col(src): cm [m, bsz·OutH·OutW], weight
// [m, InC·KH·KW], src the packed image-major batch — the operands of Conv,
// whichever lowering computed cm. a supplies the scratch and, through its
// sink, the fault hooks.
func verifyConv[F Float](cm, weight, src []F, m, bsz int, g ConvGeom, a *Arena) VerifyOutcome {
	injectF(a.Abft(), cm)
	eps, eta, lim := abftBounds[F]()
	return verifyConvCols(cm, weight, src, m, bsz, g, eps, eta, lim, a)
}

// abftBounds returns F's unit roundoff, smallest subnormal and largest
// finite value — the terms of the checksum tolerance.
func abftBounds[F Float]() (eps, eta, lim float64) {
	var z F
	if unsafe.Sizeof(z) == 4 {
		return abftEps32, abftEta32, abftLim32
	}
	return abftEps64, abftEta64, abftLim64
}

// verifyConvU8 checks and repairs an already-computed int8 convolution
// product (acc, colsum as produced by convDirectU8 or convGemmU8 from the
// biased weights w [m, InC·KH·KW] and the quantized batch qsrc, padding
// with zp). The int32 accumulators are exact, so the checksum must match
// exactly — any difference is a fault. Both the accumulators and the
// column sums are covered; a nil colsum (DenseU8, whose product has none)
// checks the accumulators alone. a as in verifyConv.
func verifyConvU8(acc, colsum []int32, w []uint8, m int, qsrc []uint8, bsz int, g ConvGeom, zp uint8, a *Arena) VerifyOutcome {
	k := g.InC * g.KH * g.KW
	n := bsz * g.OutH() * g.OutW()
	if colsum != nil {
		colsum = colsum[:n]
	}
	if s := a.Abft(); s != nil && s.Injector != nil {
		s.Injector.CorruptI32(acc[:m*n], colsum)
	}
	// When every clean intermediate fits in int32 (m·k·255² bounds both the
	// prediction and the accumulator sum), the checksum arithmetic runs in
	// the same width the kernel accumulates in, roughly halving the
	// epilogue. A corrupted accumulator can wrap the int32 measurement sum,
	// but a single flipped bit changes the sum by ±2^bit ≠ 0 (mod 2³²), so
	// wrapping never masks a detection.
	if int64(m)*int64(k)*255*255 <= math.MaxInt32 {
		return verifyConvU8Cols[int32](acc, colsum, w, qsrc, m, k, n, bsz, g, zp, a)
	}
	return verifyConvU8Cols[int64](acc, colsum, w, qsrc, m, k, n, bsz, g, zp, a)
}

// verifyGemmU8 checks and repairs an already-computed plain uint8 product
// (c, colsum as produced by GemmU8Into; colsum nil for DenseU8's tile):
// verifyConvU8 over the 1×1 geometry under which b [k, n] is its own
// im2col matrix.
func verifyGemmU8(c, colsum []int32, a, b []uint8, m, k, n int, ar *Arena) VerifyOutcome {
	return verifyConvU8(c, colsum, a, m, b, 1, gemmGeom(k, n), 0, ar)
}

// verifyConvU8Cols is verifyConvCols for the int8 kernels, with exact
// checksums carried in I; scratch and the retry hook come from ar.
func verifyConvU8Cols[I int32 | int64](c, colsum []int32, a, qsrc []uint8, m, k, n, bsz int, g ConvGeom, zp uint8, ar *Arena) VerifyOutcome {
	o := VerifyOutcome{Checks: n}
	if m == 0 || k == 0 || n == 0 {
		return o
	}
	mk := ar.Mark()
	rowLen, size := convRowsLen(bsz, g)
	buf := Raw[I](ar, 3*n+k+2*rowLen)
	pred, csRef, act := buf[:n], buf[n:2*n], buf[2*n:3*n]
	aSum := buf[3*n : 3*n+k]
	acc, accCS := pred, csRef
	if g.Stride == 1 {
		acc, accCS = buf[3*n+k:3*n+k+rowLen], buf[3*n+k+rowLen:]
	}
	u8 := Raw[uint8](ar, k+size)
	col, xs := u8[:k], u8[k:]
	clear(aSum)
	for i := 0; i < m; i++ {
		for p, v := range a[i*k : (i+1)*k] {
			aSum[p] += I(v)
		}
	}
	clear(acc)
	clear(accCS)
	convRows(qsrc, bsz, g, zp, xs, func(p int, x []uint8) {
		predRowU8I(acc, accCS, x, aSum[p])
	})
	if g.Stride == 1 {
		unpadCols(pred, acc, bsz, g)
		unpadCols(csRef, accCS, bsz, g)
	}
	if act32, ok := any(act).([]int32); ok {
		copy(act32, c[:n])
		for i := 1; i < m; i++ {
			sumRowI32(act32, c[i*n:(i+1)*n])
		}
	} else {
		for j, v := range c[:n] {
			act[j] = I(v)
		}
		for i := 1; i < m; i++ {
			row := c[i*n : (i+1)*n]
			for j, v := range row {
				act[j] += I(v)
			}
		}
	}
	for j := 0; j < n; j++ {
		if act[j] == pred[j] && (colsum == nil || I(colsum[j]) == csRef[j]) {
			continue
		}
		o.Detected++
		ok := false
		for r := 0; r < abftMaxRetries; r++ {
			ar.Abft().retry(r)
			im2colBlock(col, qsrc, g, 0, k, j, 1, 1, zp)
			gemmU8Col(c[j:], a, col, k, n, 1, 0, m, 0)
			// k ≤ MaxQuantK keeps Σ_p b[p][j] ≤ k·255 far below 2³¹, so the
			// reference value is the exact int32 the kernel computes.
			if colsum != nil {
				colsum[j] = int32(csRef[j])
			}
			var s I
			for i := 0; i < m; i++ {
				s += I(c[i*n+j])
			}
			if s == pred[j] {
				ok = true
				break
			}
		}
		if ok {
			o.Corrected++
		} else {
			o.Uncorrectable++
		}
	}
	ar.Release(mk)
	return o
}

// predRowU8I is predRowU8 at either checksum width.
func predRowU8I[I int32 | int64](pred, csRef []I, b []uint8, s I) {
	if p32, ok := any(pred).([]int32); ok {
		predRowU8(p32, any(csRef).([]int32), b, int32(s))
		return
	}
	for j, v := range b {
		pred[j] += s * I(v)
		csRef[j] += I(v)
	}
}
