package tensor

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/stats"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestNewShapesAndLen(t *testing.T) {
	x := New(2, 3, 4)
	if x.Len() != 24 {
		t.Fatalf("Len = %d, want 24", x.Len())
	}
	if x.Shape[0] != 2 || x.Shape[1] != 3 || x.Shape[2] != 4 {
		t.Fatalf("dims wrong: %v", x.Shape)
	}
	for _, v := range x.Data {
		if v != 0 {
			t.Fatal("New must zero-initialise")
		}
	}
}

func TestNewPanicsOnNonPositiveDim(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(2, 0)
}

func TestFromDataValidatesLength(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	FromData([]float32{1, 2, 3}, 2, 2)
}

func TestCloneIsDeep(t *testing.T) {
	x := New(2, 2)
	x.Fill(1)
	y := x.Clone()
	y.Data[0] = 9
	if x.Data[0] != 1 {
		t.Fatal("Clone must not share storage")
	}
	if !SameShape(x, y) {
		t.Fatal("Clone must preserve shape")
	}
}

func TestAddScaleMaxAbs(t *testing.T) {
	x := FromData([]float32{1, -4, 2}, 3)
	y := FromData([]float32{1, 1, 1}, 3)
	x.Add(y)
	if x.Data[1] != -3 {
		t.Fatalf("Add wrong: %v", x.Data)
	}
	x.Scale(2)
	if x.Data[2] != 6 {
		t.Fatalf("Scale wrong: %v", x.Data)
	}
	if m := x.MaxAbs(); m != 6 {
		t.Fatalf("MaxAbs = %g, want 6", m)
	}
}

// naiveMatMul is the reference implementation MatMulInto is tested against.
func naiveMatMul(a, b *Tensor) *Tensor {
	m, k, n := a.Shape[0], a.Shape[1], b.Shape[1]
	c := New(m, n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var s float64
			for p := 0; p < k; p++ {
				s += float64(a.Data[i*k+p]) * float64(b.Data[p*n+j])
			}
			c.Data[i*n+j] = float32(s)
		}
	}
	return c
}

func randTensor(rng *stats.RNG, shape ...int) *Tensor {
	x := New(shape...)
	x.RandNormal(rng, 1)
	return x
}

// gemm runs one of the GEMM kernels into a fresh (m x n) output.
func gemm(into func(c, a, b *Tensor), m, n int, a, b *Tensor) *Tensor {
	c := New(m, n)
	into(c, a, b)
	return c
}

func TestMatMulAgainstNaive(t *testing.T) {
	rng := stats.NewRNG(1)
	for _, dims := range [][3]int{{1, 1, 1}, {2, 3, 4}, {5, 7, 3}, {8, 8, 8}} {
		a := randTensor(rng, dims[0], dims[1])
		b := randTensor(rng, dims[1], dims[2])
		got := gemm(MatMulInto, dims[0], dims[2], a, b)
		want := naiveMatMul(a, b)
		for i := range got.Data {
			if !almostEqual(float64(got.Data[i]), float64(want.Data[i]), 1e-4) {
				t.Fatalf("dims %v: element %d = %g, want %g", dims, i, got.Data[i], want.Data[i])
			}
		}
	}
}

func TestMatMulShapeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MatMulInto(New(2, 2), New(2, 3), New(4, 2))
}

// transpose returns a new transposed 2-D tensor.
func transpose(a *Tensor) *Tensor {
	m, n := a.Shape[0], a.Shape[1]
	out := New(n, m)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			out.Data[j*m+i] = a.Data[i*n+j]
		}
	}
	return out
}

func TestMatMulTransAEqualsExplicitTranspose(t *testing.T) {
	rng := stats.NewRNG(2)
	a := randTensor(rng, 6, 4) // (k=6, m=4)
	b := randTensor(rng, 6, 5) // (k=6, n=5)
	got := gemm(MatMulTransAInto, 4, 5, a, b)
	want := gemm(MatMulInto, 4, 5, transpose(a), b)
	for i := range got.Data {
		if !almostEqual(float64(got.Data[i]), float64(want.Data[i]), 1e-4) {
			t.Fatalf("element %d = %g, want %g", i, got.Data[i], want.Data[i])
		}
	}
}

func TestMatMulTransBEqualsExplicitTranspose(t *testing.T) {
	rng := stats.NewRNG(3)
	a := randTensor(rng, 4, 6)
	b := randTensor(rng, 5, 6) // (n=5, k=6)
	got := gemm(MatMulTransBInto, 4, 5, a, b)
	want := gemm(MatMulInto, 4, 5, a, transpose(b))
	for i := range got.Data {
		if !almostEqual(float64(got.Data[i]), float64(want.Data[i]), 1e-4) {
			t.Fatalf("element %d = %g, want %g", i, got.Data[i], want.Data[i])
		}
	}
}

func TestIm2ColKnownValues(t *testing.T) {
	// 1x1x3x3 input, 2x2 kernel, stride 1, no pad -> 4 taps of 4 patches.
	x := FromData([]float32{
		1, 2, 3,
		4, 5, 6,
		7, 8, 9,
	}, 1, 1, 3, 3)
	if oh, ow := ConvOutDims(3, 3, 2, 2, 1, 0); oh != 2 || ow != 2 {
		t.Fatalf("out dims %dx%d, want 2x2", oh, ow)
	}
	cols := New(4, 4)
	Im2ColInto(cols, x, 2, 2, 1, 0)
	// Row r of colsᵀ is kernel tap r over the patches in output order.
	want := [][]float32{
		{1, 2, 4, 5},
		{2, 3, 5, 6},
		{4, 5, 7, 8},
		{5, 6, 8, 9},
	}
	for r, row := range want {
		for c, v := range row {
			if cols.Data[r*4+c] != v {
				t.Fatalf("cols[%d][%d] = %g, want %g", r, c, cols.Data[r*4+c], v)
			}
		}
	}
}

func TestIm2ColPaddingZeros(t *testing.T) {
	x := FromData([]float32{1, 2, 3, 4}, 1, 1, 2, 2)
	oh, ow := ConvOutDims(2, 2, 3, 3, 1, 1)
	if oh != 2 || ow != 2 {
		t.Fatalf("out dims %dx%d, want 2x2", oh, ow)
	}
	cols := New(9, oh*ow)
	Im2ColInto(cols, x, 3, 3, 1, 1)
	// First patch centered at (0,0), column 0 of colsᵀ: top row and left
	// column are padding.
	wantFirst := []float32{0, 0, 0, 0, 1, 2, 0, 3, 4}
	for tap, v := range wantFirst {
		if got := cols.Data[tap*oh*ow]; got != v {
			t.Fatalf("padded patch[%d] = %g, want %g", tap, got, v)
		}
	}
}

// TestIm2ColCol2ImAdjoint verifies <Im2Col(x), y> == <x, Col2Im(y)> — the
// defining property of an adjoint pair, which is exactly what conv
// backward relies on.
func TestIm2ColCol2ImAdjoint(t *testing.T) {
	rng := stats.NewRNG(4)
	for _, tc := range []struct{ n, c, h, w, k, stride, pad int }{
		{1, 1, 4, 4, 3, 1, 1},
		{2, 3, 5, 5, 3, 2, 1},
		{1, 2, 6, 4, 2, 2, 0},
	} {
		x := randTensor(rng, tc.n, tc.c, tc.h, tc.w)
		oh, ow := ConvOutDims(tc.h, tc.w, tc.k, tc.k, tc.stride, tc.pad)
		cols := New(tc.c*tc.k*tc.k, tc.n*oh*ow)
		Im2ColInto(cols, x, tc.k, tc.k, tc.stride, tc.pad)
		y := randTensor(rng, cols.Shape[0], cols.Shape[1])
		back := New(tc.n, tc.c, tc.h, tc.w)
		Col2ImInto(back, y, tc.k, tc.k, tc.stride, tc.pad)

		var lhs, rhs float64
		for i := range cols.Data {
			lhs += float64(cols.Data[i]) * float64(y.Data[i])
		}
		for i := range x.Data {
			rhs += float64(x.Data[i]) * float64(back.Data[i])
		}
		if !almostEqual(lhs, rhs, 1e-2*math.Max(1, math.Abs(lhs))) {
			t.Fatalf("%+v: adjoint identity violated: %g vs %g", tc, lhs, rhs)
		}
	}
}

func TestArgMaxRow(t *testing.T) {
	x := FromData([]float32{1, 5, 2, 9, 0, 3}, 2, 3)
	got := ArgMaxRowInto(nil, x)
	if got[0] != 1 || got[1] != 0 {
		t.Fatalf("ArgMaxRowInto = %v, want [1 0]", got)
	}
}

func TestKaimingInitVariance(t *testing.T) {
	rng := stats.NewRNG(5)
	x := New(200, 50)
	fanIn := 50
	x.KaimingInit(rng, fanIn)
	var sum, sq float64
	for _, v := range x.Data {
		sum += float64(v)
		sq += float64(v) * float64(v)
	}
	n := float64(x.Len())
	variance := sq/n - (sum/n)*(sum/n)
	want := 2.0 / float64(fanIn)
	if !almostEqual(variance, want, want*0.15) {
		t.Fatalf("Kaiming variance = %g, want ~%g", variance, want)
	}
}

// Property: MatMulInto is linear in its first argument.
func TestMatMulLinearityProperty(t *testing.T) {
	rng := stats.NewRNG(6)
	f := func(seed uint64) bool {
		r := stats.NewRNG(seed)
		a1 := randTensor(r, 3, 4)
		a2 := randTensor(r, 3, 4)
		b := randTensor(r, 4, 2)
		sum := a1.Clone()
		sum.Add(a2)
		lhs := gemm(MatMulInto, 3, 2, sum, b)
		r1 := gemm(MatMulInto, 3, 2, a1, b)
		r2 := gemm(MatMulInto, 3, 2, a2, b)
		for i := range lhs.Data {
			if !almostEqual(float64(lhs.Data[i]), float64(r1.Data[i]+r2.Data[i]), 1e-3) {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 25, Values: nil}
	if err := quick.Check(func(s uint64) bool { return f(s) }, cfg); err != nil {
		t.Fatal(err)
	}
	_ = rng
}
