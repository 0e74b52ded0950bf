package tensor

import "fmt"

// MatMul computes C = A×B for 2-d tensors A (m×k) and B (k×n), returning a
// new m×n tensor. The inner loops are ordered i-k-j so the innermost loop
// streams both B and C rows sequentially, which is the dominant factor for
// pure-Go throughput.
func MatMul(a, b *T) *T {
	if a.Rank() != 2 || b.Rank() != 2 {
		panic(fmt.Sprintf("tensor: MatMul requires rank-2 operands, got %v × %v", a.Shape, b.Shape))
	}
	m, k := a.Shape[0], a.Shape[1]
	k2, n := b.Shape[0], b.Shape[1]
	if k != k2 {
		panic(fmt.Sprintf("tensor: MatMul inner dimensions differ: %v × %v", a.Shape, b.Shape))
	}
	c := New(m, n)
	MatMulInto(c, a, b)
	return c
}

// MatMulInto computes C = A×B into an existing m×n tensor, overwriting it.
// It panics on any shape mismatch.
//
// The kernel is chosen by a density probe on A: genuinely sparse operands
// (post-ReLU activation columns in the backward pass) keep the zero-skip
// branch, while dense operands (weights, raw inputs) run a branch-free inner
// loop — the data-dependent `av == 0` test mispredicts on dense data and
// costs more than the skipped multiplies save (see BenchmarkMatMulDense).
func MatMulInto(c, a, b *T) {
	m, k := a.Shape[0], a.Shape[1]
	n := b.Shape[1]
	if b.Shape[0] != k || c.Shape[0] != m || c.Shape[1] != n {
		panic(fmt.Sprintf("tensor: MatMulInto shape mismatch: C%v = A%v × B%v", c.Shape, a.Shape, b.Shape))
	}
	c.Zero()
	if likelySparse(a.Data) {
		matMulRowsSkipZero(c.Data, a.Data, b.Data, 0, m, k, n)
		return
	}
	matMulRowsDense(c.Data, a.Data, b.Data, 0, m, k, n)
}

// matMulRowsDense computes rows [i0,i1) of C = A×B with the i-k-j loop order
// and no zero test: every A element issues an axpy.
func matMulRowsDense(cd, ad, bd []float64, i0, i1, k, n int) {
	for i := i0; i < i1; i++ {
		arow := ad[i*k : (i+1)*k]
		crow := cd[i*n : (i+1)*n]
		for p, av := range arow {
			brow := bd[p*n : (p+1)*n]
			axpyUnrolled(crow, av, brow)
		}
	}
}

// matMulRowsSkipZero is matMulRowsDense with the zero-skip branch, worthwhile
// only when a meaningful fraction of A is exactly zero.
func matMulRowsSkipZero(cd, ad, bd []float64, i0, i1, k, n int) {
	for i := i0; i < i1; i++ {
		arow := ad[i*k : (i+1)*k]
		crow := cd[i*n : (i+1)*n]
		for p, av := range arow {
			if av == 0 {
				continue
			}
			brow := bd[p*n : (p+1)*n]
			axpyUnrolled(crow, av, brow)
		}
	}
}

// likelySparse probes up to 128 evenly spaced elements and reports whether
// at least a quarter of them are exactly zero — the break-even point below
// which the zero-skip branch mispredicts more than it saves. The probe is
// O(1) relative to the O(m·n·k) multiply it steers.
func likelySparse(data []float64) bool {
	const maxSamples = 128
	n := len(data)
	if n == 0 {
		return false
	}
	stride := n/maxSamples + 1
	zeros, seen := 0, 0
	for i := 0; i < n; i += stride {
		if data[i] == 0 {
			zeros++
		}
		seen++
	}
	return zeros*4 >= seen
}

// MatMulTransAInto computes C = Aᵀ×B where A is k×m, B is k×n, C is m×n.
// Used by convolution backward passes. Like MatMulInto, the zero-skip branch
// is kept only when the density probe says A is actually sparse.
func MatMulTransAInto(c, a, b *T) {
	k, m := a.Shape[0], a.Shape[1]
	n := b.Shape[1]
	if b.Shape[0] != k || c.Shape[0] != m || c.Shape[1] != n {
		panic(fmt.Sprintf("tensor: MatMulTransAInto shape mismatch: C%v = A%v ᵀ× B%v", c.Shape, a.Shape, b.Shape))
	}
	c.Zero()
	ad, bd, cd := a.Data, b.Data, c.Data
	skip := likelySparse(ad)
	for p := 0; p < k; p++ {
		arow := ad[p*m : (p+1)*m]
		brow := bd[p*n : (p+1)*n]
		if skip {
			for i, av := range arow {
				if av == 0 {
					continue
				}
				axpyUnrolled(cd[i*n:(i+1)*n], av, brow)
			}
		} else {
			for i, av := range arow {
				axpyUnrolled(cd[i*n:(i+1)*n], av, brow)
			}
		}
	}
}

// MatMulTransBInto computes C = A×Bᵀ where A is m×k, B is n×k, C is m×n.
// Conv2D.Backward uses it for the weight gradient; the served Dense layer
// runs Dense against a transposed pack instead.
func MatMulTransBInto(c, a, b *T) {
	m, k := a.Shape[0], a.Shape[1]
	n := b.Shape[0]
	if b.Shape[1] != k || c.Shape[0] != m || c.Shape[1] != n {
		panic(fmt.Sprintf("tensor: MatMulTransBInto shape mismatch: C%v = A%v × B%v ᵀ", c.Shape, a.Shape, b.Shape))
	}
	matMulTransB(c.Data, a.Data, b.Data, m, k, n)
}

func matMulTransB[F Float](cd, ad, bd []F, m, k, n int) {
	for i := 0; i < m; i++ {
		arow := ad[i*k : (i+1)*k]
		for j := 0; j < n; j++ {
			brow := bd[j*k : (j+1)*k]
			cd[i*n+j] = dotUnrolled(arow, brow)
		}
	}
}

// axpyUnrolled computes dst += alpha*src with 4-way unrolling. len(dst) must
// equal len(src); callers in this package guarantee it.
func axpyUnrolled[F Float](dst []F, alpha F, src []F) {
	n := len(dst)
	i := 0
	for ; i+4 <= n; i += 4 {
		dst[i] += alpha * src[i]
		dst[i+1] += alpha * src[i+1]
		dst[i+2] += alpha * src[i+2]
		dst[i+3] += alpha * src[i+3]
	}
	for ; i < n; i++ {
		dst[i] += alpha * src[i]
	}
}

// dotUnrolled returns the dot product of equal-length slices with 4-way
// unrolling into independent accumulators. Only training calls it
// (MatMulTransBInto in Conv2D.Backward); each product is converted
// explicitly, so no target fuses it with the add.
func dotUnrolled[F Float](a, b []F) F {
	n := len(a)
	var s0, s1, s2, s3 F
	i := 0
	for ; i+4 <= n; i += 4 {
		s0 += F(a[i] * b[i])
		s1 += F(a[i+1] * b[i+1])
		s2 += F(a[i+2] * b[i+2])
		s3 += F(a[i+3] * b[i+3])
	}
	s := s0 + s1 + s2 + s3
	for ; i < n; i++ {
		s += F(a[i] * b[i])
	}
	return s
}
