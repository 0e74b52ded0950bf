package tensor

import (
	"fmt"
	"unsafe"
)

// This file implements the one float GEMM of the inference graph (nn.Net,
// via Conv): one driver, gemmFMA, over one 4-row microkernel, fmaGemm4,
// at both element widths. The driver tiles C into 4-row × fmaLanes blocks
// and runs the microkernel on each; the edge blocks (the n mod fmaLanes
// columns and the m mod 4 rows) run it on zero-padded copies of their B
// columns and A rows, so every output element is the microkernel's chain
// whatever its position. The microkernel has two bodies: the AVX2
// assembly (simd_amd64.s) on machines that have it, gemm4Go elsewhere.
//
// Bit-identity contract: each output element C[i][j] is one accumulation
// chain in ascending p from +0 over A's row i and B's column j. The AVX2
// body fuses each step (one rounding); gemm4Go rounds the product and the
// sum separately on every target. Either way a column's bits depend only
// on its own A rows and B column — never on how many rows or columns sit
// beside it, nor on the B row stride — so the explicit lowering, the
// implicit conv driver (convGemm), a batch of any composition and the
// ABFT column repair all produce the same bits on one machine.

// Float constrains the element type of the shared inference kernels: the
// reference float64 path and the reduced-precision float32 backend run the
// same generic code, specialized per width by the compiler.
type Float interface {
	float32 | float64
}

// GemmInto computes C = A×B into an existing m×n tensor with the served
// GEMM, overwriting every element (C's prior contents are ignored, so
// arena Raw buffers are fine), its edge scratch drawn from a private
// arena. It panics on any shape mismatch.
func GemmInto(c, a, b *T) {
	if a.Rank() != 2 || b.Rank() != 2 || c.Rank() != 2 {
		panic(fmt.Sprintf("tensor: GemmInto requires rank-2 operands, got C%v = A%v × B%v", c.Shape, a.Shape, b.Shape))
	}
	m, k := a.Shape[0], a.Shape[1]
	n := b.Shape[1]
	if b.Shape[0] != k || c.Shape[0] != m || c.Shape[1] != n {
		panic(fmt.Sprintf("tensor: GemmInto shape mismatch: C%v = A%v × B%v", c.Shape, a.Shape, b.Shape))
	}
	gemmServed(c.Data, a.Data, b.Data, m, k, n, NewArena())
}

// GemmInto32Fast is GemmInto for float32 tensors. Its only caller is the
// benchmark kernel probe; the served convolution reaches the same GEMM
// through Conv.
func GemmInto32Fast(c, a, b *T32) {
	as, bs, cs := a.Shape, b.Shape, c.Shape
	if len(as) != 2 || len(bs) != 2 || len(cs) != 2 || bs[0] != as[1] || cs[0] != as[0] || cs[1] != bs[1] {
		panic(fmt.Sprintf("tensor: GemmInto32Fast shape mismatch: C%v = A%v × B%v", cs, as, bs))
	}
	gemmServed(c.Data, a.Data, b.Data, as[0], as[1], bs[1], NewArena())
}

// gemmServed computes the dense m×n product C = A×B (A m×k, B k×n), its
// edge scratch drawn from a.
func gemmServed[F Float](cd, ad, bd []F, m, k, n int, a *Arena) {
	gemmFMA(cd, ad, bd, m, k, n, n, n, a)
}

// fmaLanes is the column width of F's microkernel. The AVX2 kernels hold
// a 4-row block in two YMM registers (64 bytes) per row: 16 float32 or 8
// float64 columns.
func fmaLanes[F Float]() int {
	var z F
	return 64 / int(unsafe.Sizeof(z))
}

// gemm4Body is a 4-row microkernel: C[0:4][0:fmaLanes] (row stride ldc,
// overwritten) = A[0:4][0:k] (row stride lda) × B[0:k][0:fmaLanes] (row
// stride ldb), k ≥ 1.
type gemm4Body[F Float] func(a *F, lda int, b *F, ldb int, c *F, ldc int, k int)

// fmaGemm4 is the served microkernel: fmaGemm4x16 (float32) or
// fmaGemm4x8F64 (float64) where the machine has AVX2+FMA, gemm4Go
// elsewhere. The size test is a constant in each instantiation.
func fmaGemm4[F Float](a *F, lda int, b *F, ldb int, c *F, ldc int, k int) {
	switch {
	case !simdAvailable:
		gemm4Go(a, lda, b, ldb, c, ldc, k)
	case unsafe.Sizeof(*a) == 4:
		fmaGemm4x16((*float32)(unsafe.Pointer(a)), lda, (*float32)(unsafe.Pointer(b)), ldb, (*float32)(unsafe.Pointer(c)), ldc, k)
	default:
		fmaGemm4x8F64((*float64)(unsafe.Pointer(a)), lda, (*float64)(unsafe.Pointer(b)), ldb, (*float64)(unsafe.Pointer(c)), ldc, k)
	}
}

// gemm4Go is the microkernel's pure-Go body, two columns of the four rows
// at a time. Each output is one chain in ascending p from +0 with the
// product rounded to F before it is added: the explicit conversion
// forbids fusing the two (Go spec, "Floating-point operators"), so every
// target computes the same bits.
func gemm4Go[F Float](a *F, lda int, b *F, ldb int, c *F, ldc int, k int) {
	w := fmaLanes[F]()
	as := unsafe.Slice(a, 3*lda+k)
	bs := unsafe.Slice(b, (k-1)*ldb+w)
	cs := unsafe.Slice(c, 3*ldc+w)
	a0, a1, a2, a3 := as[:k], as[lda:lda+k], as[2*lda:2*lda+k], as[3*lda:3*lda+k]
	for j := 0; j < w; j += 2 {
		var c00, c01, c10, c11, c20, c21, c30, c31 F
		bi := j
		for p, av0 := range a0 {
			b0, b1 := bs[bi], bs[bi+1]
			bi += ldb
			av1, av2, av3 := a1[p], a2[p], a3[p]
			c00 += F(av0 * b0)
			c01 += F(av0 * b1)
			c10 += F(av1 * b0)
			c11 += F(av1 * b1)
			c20 += F(av2 * b0)
			c21 += F(av2 * b1)
			c30 += F(av3 * b0)
			c31 += F(av3 * b1)
		}
		cs[j], cs[j+1] = c00, c01
		cs[ldc+j], cs[ldc+j+1] = c10, c11
		cs[2*ldc+j], cs[2*ldc+j+1] = c20, c21
		cs[3*ldc+j], cs[3*ldc+j+1] = c30, c31
	}
}

// gemmFMA is the float GEMM driver of both widths: it computes
// C[0:m][0:n] = A×B for A m×k (row stride k), B k×n (row stride ldb) and
// C row stride ldc — both n on the explicit path; the implicit conv path
// passes a generated block with ldb = block width — on the served
// microkernel, drawing its edge scratch from a.
func gemmFMA[F Float](cd, ad, bd []F, m, k, n, ldc, ldb int, a *Arena) {
	gemmWith(fmaGemm4[F], cd, ad, bd, m, k, n, ldc, ldb, a)
}

// gemmWith is gemmFMA on a given microkernel body (the tests hold each
// body to its own reference chain through it). Full blocks run in place;
// the edges go through gemmEdges.
func gemmWith[F Float](body gemm4Body[F], cd, ad, bd []F, m, k, n, ldc, ldb int, a *Arena) {
	if k == 0 {
		for i := 0; i < m; i++ {
			clear(cd[i*ldc : i*ldc+n])
		}
		return
	}
	w := fmaLanes[F]()
	mb, nb := m&^3, n-n%w
	for j := 0; j < nb; j += w {
		for i := 0; i < mb; i += 4 {
			body(&ad[i*k], k, &bd[j], ldb, &cd[i*ldc+j], ldc, k)
		}
	}
	if mb < m || nb < n {
		gemmEdges(body, cd, ad, bd, m, k, n, ldc, ldb, a)
	}
}

// gemmEdges computes the blocks of gemmWith's C that the microkernel
// cannot run in place: the n mod fmaLanes tail columns of every row and
// the m mod 4 tail rows of every column. The tail of B is copied into a
// zero-padded k×fmaLanes scratch and the tail rows of A into a
// zero-padded 4×k one; the microkernel runs into a 4×fmaLanes scratch C
// and the valid part is copied out; the scratch is drawn from a and
// released on return. Rows and lanes are independent, so an edge element
// gets exactly the arithmetic it would get inside a full block — which is
// what makes an image's output independent of where in the batch it sits
// (the columns are B·OH·OW, so the column tail is the last image's).
func gemmEdges[F Float](body gemm4Body[F], cd, ad, bd []F, m, k, n, ldc, ldb int, a *Arena) {
	w := fmaLanes[F]()
	mb, nb := m&^3, n-n%w
	mk := a.Mark()
	sp := Raw[F](a, 4*k+k*w+4*w)
	ap, bp, cp := sp[:4*k], sp[4*k:4*k+k*w], sp[4*k+k*w:]
	// edge runs one padded block and copies its rows × cols corner to C[i][j].
	edge := func(a, b *F, lb, i, j, rows, cols int) {
		body(a, k, b, lb, &cp[0], w, k)
		for r := 0; r < rows; r++ {
			copy(cd[(i+r)*ldc+j:(i+r)*ldc+j+cols], cp[r*w:])
		}
	}
	if nb < n {
		for p := 0; p < k; p++ {
			row := bp[p*w : (p+1)*w]
			clear(row[copy(row, bd[p*ldb+nb:p*ldb+n]):])
		}
		for i := 0; i < mb; i += 4 {
			edge(&ad[i*k], &bp[0], w, i, nb, 4, n-nb)
		}
	}
	if mb < m {
		clear(ap[copy(ap, ad[mb*k:m*k]):])
		for j := 0; j < nb; j += w {
			edge(&ap[0], &bd[j], ldb, mb, j, m-mb, w)
		}
		if nb < n {
			edge(&ap[0], &bp[0], w, mb, nb, m-mb, n-nb)
		}
	}
	a.Release(mk)
}
