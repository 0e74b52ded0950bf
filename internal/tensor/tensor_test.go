package tensor

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewShapeAndLen(t *testing.T) {
	tests := []struct {
		name  string
		shape []int
		want  int
	}{
		{"scalar-ish", []int{1}, 1},
		{"vector", []int{7}, 7},
		{"matrix", []int{3, 4}, 12},
		{"image", []int{3, 32, 32}, 3072},
		{"empty dim", []int{0, 5}, 0},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			x := New(tt.shape...)
			if got := x.Len(); got != tt.want {
				t.Errorf("Len() = %d, want %d", got, tt.want)
			}
			for _, v := range x.Data {
				if v != 0 {
					t.Fatalf("New not zero-filled: %v", x.Data)
				}
			}
		})
	}
}

func TestNewPanicsOnNegativeDim(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(-1) did not panic")
		}
	}()
	New(-1, 3)
}

func TestAtSetRoundTrip(t *testing.T) {
	x := New(2, 3, 4)
	x.Set(42, 1, 2, 3)
	if got := x.At(1, 2, 3); got != 42 {
		t.Errorf("At = %v, want 42", got)
	}
	// Row-major: index [1,2,3] = 1*12 + 2*4 + 3 = 23.
	if x.Data[23] != 42 {
		t.Errorf("flat index mismatch: Data[23] = %v", x.Data[23])
	}
}

func TestAtPanicsOutOfRange(t *testing.T) {
	x := New(2, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("At out of range did not panic")
		}
	}()
	x.At(2, 0)
}

func TestCloneIsDeep(t *testing.T) {
	x := FromSlice([]float64{1, 2, 3}, 3)
	c := x.Clone()
	c.Data[0] = 99
	if x.Data[0] != 1 {
		t.Error("Clone shares data with original")
	}
	if !x.SameShape(c) {
		t.Error("Clone shape differs")
	}
}

func TestReshapeSharesData(t *testing.T) {
	x := FromSlice([]float64{1, 2, 3, 4, 5, 6}, 2, 3)
	y := x.Reshape(3, 2)
	y.Data[0] = 10
	if x.Data[0] != 10 {
		t.Error("Reshape copied data; want shared buffer")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("bad Reshape did not panic")
		}
	}()
	x.Reshape(4, 2)
}

func TestElementwiseOps(t *testing.T) {
	x := FromSlice([]float64{1, 2, 3}, 3)
	y := FromSlice([]float64{10, 20, 30}, 3)
	x.AddInPlace(y)
	want := []float64{11, 22, 33}
	for i, v := range want {
		if x.Data[i] != v {
			t.Fatalf("AddInPlace = %v, want %v", x.Data, want)
		}
	}
	x.Axpy(0.5, y)
	if x.Data[0] != 16 || x.Data[2] != 48 {
		t.Errorf("Axpy = %v", x.Data)
	}
	x.Scale(2)
	if x.Data[0] != 32 {
		t.Errorf("Scale = %v", x.Data)
	}
}

func TestMaxIndex(t *testing.T) {
	tests := []struct {
		name string
		data []float64
		idx  int
		val  float64
	}{
		{"simple", []float64{1, 5, 3}, 1, 5},
		{"tie goes low", []float64{7, 7, 2}, 0, 7},
		{"negatives", []float64{-3, -1, -2}, 1, -1},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			x := FromSlice(tt.data, len(tt.data))
			i, v := x.MaxIndex()
			if i != tt.idx || v != tt.val {
				t.Errorf("MaxIndex = (%d, %v), want (%d, %v)", i, v, tt.idx, tt.val)
			}
		})
	}
	empty := New(0)
	if i, _ := empty.MaxIndex(); i != -1 {
		t.Errorf("MaxIndex on empty = %d, want -1", i)
	}
}

func TestSumDotNorm(t *testing.T) {
	x := FromSlice([]float64{3, 4}, 2)
	if got := x.Sum(); got != 7 {
		t.Errorf("Sum = %v", got)
	}
	if got := x.Dot(x); got != 25 {
		t.Errorf("Dot = %v", got)
	}
}

// matMulNaive is the reference triple loop used to validate the optimized
// kernels.
func matMulNaive(a, b *T) *T {
	m, k, n := a.Shape[0], a.Shape[1], b.Shape[1]
	c := New(m, n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			s := 0.0
			for p := 0; p < k; p++ {
				s += a.Data[i*k+p] * b.Data[p*n+j]
			}
			c.Data[i*n+j] = s
		}
	}
	return c
}

func approxEqual(a, b *T, tol float64) bool {
	if !a.SameShape(b) {
		return false
	}
	for i := range a.Data {
		if math.Abs(a.Data[i]-b.Data[i]) > tol {
			return false
		}
	}
	return true
}

func TestMatMulMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 20; trial++ {
		m, k, n := 1+rng.Intn(17), 1+rng.Intn(17), 1+rng.Intn(17)
		a, b := New(m, k), New(k, n)
		a.FillNormal(rng, 0, 1)
		b.FillNormal(rng, 0, 1)
		got := MatMul(a, b)
		want := matMulNaive(a, b)
		if !approxEqual(got, want, 1e-10) {
			t.Fatalf("trial %d (%dx%dx%d): MatMul mismatch", trial, m, k, n)
		}
	}
}

func TestMatMulTransposedVariants(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 20; trial++ {
		m, k, n := 1+rng.Intn(13), 1+rng.Intn(13), 1+rng.Intn(13)
		a, b := New(m, k), New(k, n)
		a.FillNormal(rng, 0, 1)
		b.FillNormal(rng, 0, 1)
		want := matMulNaive(a, b)

		// C = (Aᵀ)ᵀ × B via MatMulTransAInto with A stored transposed.
		at := New(k, m)
		for i := 0; i < m; i++ {
			for p := 0; p < k; p++ {
				at.Data[p*m+i] = a.Data[i*k+p]
			}
		}
		c1 := New(m, n)
		MatMulTransAInto(c1, at, b)
		if !approxEqual(c1, want, 1e-10) {
			t.Fatalf("trial %d: MatMulTransAInto mismatch", trial)
		}

		// C = A × (Bᵀ)ᵀ via MatMulTransBInto with B stored transposed.
		bt := New(n, k)
		for p := 0; p < k; p++ {
			for j := 0; j < n; j++ {
				bt.Data[j*k+p] = b.Data[p*n+j]
			}
		}
		c2 := New(m, n)
		MatMulTransBInto(c2, a, bt)
		if !approxEqual(c2, want, 1e-10) {
			t.Fatalf("trial %d: MatMulTransBInto mismatch", trial)
		}
	}
}

func TestMatMulShapePanics(t *testing.T) {
	a, b := New(2, 3), New(4, 5)
	defer func() {
		if recover() == nil {
			t.Fatal("MatMul with mismatched inner dims did not panic")
		}
	}()
	MatMul(a, b)
}

// convNaive computes a direct convolution for Im2Col validation.
func convNaive(src *T, w *T, g ConvGeom, outC int) *T {
	oh, ow := g.OutH(), g.OutW()
	out := New(outC, oh, ow)
	for oc := 0; oc < outC; oc++ {
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				s := 0.0
				for c := 0; c < g.InC; c++ {
					for kh := 0; kh < g.KH; kh++ {
						for kw := 0; kw < g.KW; kw++ {
							iy := oy*g.Stride + kh - g.Pad
							ix := ox*g.Stride + kw - g.Pad
							if iy < 0 || iy >= g.InH || ix < 0 || ix >= g.InW {
								continue
							}
							s += src.Data[c*g.InH*g.InW+iy*g.InW+ix] *
								w.Data[oc*g.InC*g.KH*g.KW+c*g.KH*g.KW+kh*g.KW+kw]
						}
					}
				}
				out.Data[oc*oh*ow+oy*ow+ox] = s
			}
		}
	}
	return out
}

func TestIm2ColConvMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	geoms := []ConvGeom{
		{InC: 1, InH: 8, InW: 8, KH: 3, KW: 3, Stride: 1, Pad: 0},
		{InC: 3, InH: 9, InW: 7, KH: 3, KW: 3, Stride: 1, Pad: 1},
		{InC: 2, InH: 10, InW: 10, KH: 5, KW: 5, Stride: 2, Pad: 2},
		{InC: 4, InH: 6, InW: 6, KH: 1, KW: 1, Stride: 1, Pad: 0},
		{InC: 1, InH: 5, InW: 5, KH: 5, KW: 5, Stride: 1, Pad: 0},
	}
	for gi, g := range geoms {
		if err := g.Validate(); err != nil {
			t.Fatalf("geom %d invalid: %v", gi, err)
		}
		outC := 1 + rng.Intn(4)
		src := New(g.InC, g.InH, g.InW)
		src.FillNormal(rng, 0, 1)
		w := New(outC, g.InC*g.KH*g.KW)
		w.FillNormal(rng, 0, 1)

		cols := New(g.InC*g.KH*g.KW, g.OutH()*g.OutW())
		Im2Col(cols, src, g)
		got := MatMul(w, cols).Reshape(outC, g.OutH(), g.OutW())
		want := convNaive(src, w, g, outC)
		if !approxEqual(got, want, 1e-9) {
			t.Errorf("geom %d: im2col conv does not match naive conv", gi)
		}
	}
}

// TestCol2ImIsAdjoint verifies the defining adjoint property
// <Im2Col(x), y> == <x, Col2Im(y)> for random x, y — the exact condition for
// Col2Im to implement the correct input-gradient.
func TestCol2ImIsAdjoint(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 10; trial++ {
		g := ConvGeom{
			InC: 1 + rng.Intn(3), InH: 4 + rng.Intn(6), InW: 4 + rng.Intn(6),
			KH: 1 + rng.Intn(3), KW: 1 + rng.Intn(3), Stride: 1 + rng.Intn(2), Pad: rng.Intn(2),
		}
		if g.Validate() != nil {
			continue
		}
		x := New(g.InC, g.InH, g.InW)
		x.FillNormal(rng, 0, 1)
		rows, cols := g.InC*g.KH*g.KW, g.OutH()*g.OutW()
		y := New(rows, cols)
		y.FillNormal(rng, 0, 1)

		ix := New(rows, cols)
		Im2Col(ix, x, g)
		cy := New(g.InC, g.InH, g.InW)
		Col2Im(cy, y, g)

		lhs := ix.Dot(y)
		rhs := x.Dot(cy)
		if math.Abs(lhs-rhs) > 1e-9*(1+math.Abs(lhs)) {
			t.Fatalf("trial %d: adjoint violated: <Im2Col x, y>=%v, <x, Col2Im y>=%v (geom %+v)", trial, lhs, rhs, g)
		}
	}
}

func TestConvGeomValidate(t *testing.T) {
	tests := []struct {
		name    string
		g       ConvGeom
		wantErr bool
	}{
		{"ok", ConvGeom{InC: 3, InH: 32, InW: 32, KH: 3, KW: 3, Stride: 1, Pad: 1}, false},
		{"zero stride", ConvGeom{InC: 3, InH: 32, InW: 32, KH: 3, KW: 3, Stride: 0, Pad: 1}, true},
		{"negative pad", ConvGeom{InC: 3, InH: 32, InW: 32, KH: 3, KW: 3, Stride: 1, Pad: -1}, true},
		{"kernel too big", ConvGeom{InC: 1, InH: 4, InW: 4, KH: 9, KW: 9, Stride: 1, Pad: 0}, true},
		{"no channels", ConvGeom{InC: 0, InH: 4, InW: 4, KH: 3, KW: 3, Stride: 1, Pad: 0}, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if err := tt.g.Validate(); (err != nil) != tt.wantErr {
				t.Errorf("Validate() error = %v, wantErr %v", err, tt.wantErr)
			}
		})
	}
}

// Property: matmul distributes over addition, (A+B)×C == A×C + B×C.
func TestQuickMatMulDistributive(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m, k, n := 1+rng.Intn(8), 1+rng.Intn(8), 1+rng.Intn(8)
		a, b, c := New(m, k), New(m, k), New(k, n)
		a.FillNormal(rng, 0, 1)
		b.FillNormal(rng, 0, 1)
		c.FillNormal(rng, 0, 1)
		ab := a.Clone()
		ab.AddInPlace(b)
		lhs := MatMul(ab, c)
		rhs := MatMul(a, c)
		rhs.AddInPlace(MatMul(b, c))
		return approxEqual(lhs, rhs, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// Property: Axpy with alpha and then -alpha restores the original tensor.
func TestQuickAxpyInverse(t *testing.T) {
	f := func(seed int64, alpha float64) bool {
		if math.IsNaN(alpha) || math.IsInf(alpha, 0) || math.Abs(alpha) > 1e6 {
			return true
		}
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(64)
		x, y := New(n), New(n)
		x.FillNormal(rng, 0, 1)
		y.FillNormal(rng, 0, 1)
		orig := x.Clone()
		x.Axpy(alpha, y)
		x.Axpy(-alpha, y)
		return approxEqual(x, orig, 1e-6*(1+math.Abs(alpha)))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func BenchmarkMatMul64(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	x, y := New(64, 64), New(64, 64)
	x.FillNormal(rng, 0, 1)
	y.FillNormal(rng, 0, 1)
	c := New(64, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatMulInto(c, x, y)
	}
}

func BenchmarkIm2Col(b *testing.B) {
	g := ConvGeom{InC: 8, InH: 32, InW: 32, KH: 3, KW: 3, Stride: 1, Pad: 1}
	rng := rand.New(rand.NewSource(6))
	src := New(g.InC, g.InH, g.InW)
	src.FillNormal(rng, 0, 1)
	dst := New(g.InC*g.KH*g.KW, g.OutH()*g.OutW())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Im2Col(dst, src, g)
	}
}
