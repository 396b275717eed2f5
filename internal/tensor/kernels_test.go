package tensor

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/par"
	"repro/internal/stats"
)

// The serial references below mirror the kernels' accumulation order
// (ascending k, single accumulator) without blocking or goroutines. The
// equivalence tests require *bit* identity against them — tolerance-free
// — which is the determinism guarantee the experiment reports rely on.

func serialMatMul(a, b *Tensor) *Tensor {
	m, k, n := a.Shape[0], a.Shape[1], b.Shape[1]
	c := New(m, n)
	for i := 0; i < m; i++ {
		for p := 0; p < k; p++ {
			av := a.Data[i*k+p]
			for j := 0; j < n; j++ {
				c.Data[i*n+j] += av * b.Data[p*n+j]
			}
		}
	}
	return c
}

func serialMatMulTransA(a, b *Tensor) *Tensor {
	return serialMatMulTransAAcc(New(a.Shape[1], b.Shape[1]), a, b)
}

// serialMatMulTransAAcc accumulates c += Aᵀ·B onto c's contents and
// returns c.
func serialMatMulTransAAcc(c, a, b *Tensor) *Tensor {
	k, m, n := a.Shape[0], a.Shape[1], b.Shape[1]
	for p := 0; p < k; p++ {
		for i := 0; i < m; i++ {
			av := a.Data[p*m+i]
			for j := 0; j < n; j++ {
				c.Data[i*n+j] += av * b.Data[p*n+j]
			}
		}
	}
	return c
}

func serialMatMulTransB(a, b *Tensor) *Tensor {
	m, k, n := a.Shape[0], a.Shape[1], b.Shape[0]
	c := New(m, n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var s float32
			for p := 0; p < k; p++ {
				s += a.Data[i*k+p] * b.Data[j*k+p]
			}
			c.Data[i*n+j] = s
		}
	}
	return c
}

// requireBitIdentical fails unless got and want match bit for bit
// (including NaN payloads and zero signs).
func requireBitIdentical(t *testing.T, tag string, got, want *Tensor) {
	t.Helper()
	if !SameShape(got, want) {
		t.Fatalf("%s: shape %v, want %v", tag, got.Shape, want.Shape)
	}
	for i := range want.Data {
		g, w := math.Float32bits(got.Data[i]), math.Float32bits(want.Data[i])
		if g != w {
			t.Fatalf("%s: element %d = %g (0x%08x), want %g (0x%08x)",
				tag, i, got.Data[i], g, want.Data[i], w)
		}
	}
}

// kernelShapes covers small, rectangular and deliberately awkward sizes:
// dimensions straddling the k-block boundary (gemmBlockK±1) and sizes not
// divisible by any block or chunk width. Between them every tile tail
// runs: m odd and even (the lone last row beside the row pairs), n and
// k at every residue mod 4 (column and k remainders), and k tails inside
// the last k-panel. The n ≥ 8 entries cover the vector path: the 2×32
// tile (n ∈ {32, 33, 71}), the 2×8 remainder tile (n ∈ {8, 31, 47}),
// the scalar n%8 columns beside them, the odd row with n ≥ 32, and
// panels shorter than the kernel's four-k unroll (k < 4).
var kernelShapes = [][3]int{
	{1, 1, 1},
	{2, 3, 4},
	{5, 7, 3},
	{6, 10, 6},
	{17, 13, 19},
	{64, 64, 64},
	{3, gemmBlockK - 1, 5},
	{3, gemmBlockK, 5},
	{3, gemmBlockK + 1, 5},
	{7, gemmBlockK + 6, 10},
	{33, 2*gemmBlockK + 7, 9},
	{129, 65, 31},
	{4, 9, 8},
	{6, 5, 32},
	{8, 14, 33},
	{10, 13, 71},
	{7, 6, 40},
	{2, 3, 64},
	{5, 2, 33},
	{9, gemmBlockK + 5, 47},
}

// onBothPaths runs f as two subtests: "vector", on the kernels the CPU
// selected at init (skipped without AVX2), and "scalar", with the vector
// tiles switched off, so the scalar fallback stays tested on AVX2 hosts.
func onBothPaths(t *testing.T, f func(t *testing.T)) {
	t.Helper()
	detected := useAVX2
	t.Run("vector", func(t *testing.T) {
		if !detected {
			t.Skip("CPU has no AVX2: the scalar kernels are the only path")
		}
		f(t)
	})
	t.Run("scalar", func(t *testing.T) {
		useAVX2 = false
		defer func() { useAVX2 = detected }()
		f(t)
	})
}

// withBudget runs f under a temporary worker budget.
func withBudget(t *testing.T, n int, f func()) {
	t.Helper()
	old := par.Budget()
	par.SetBudget(n)
	defer par.SetBudget(old)
	f()
}

func TestGEMMBitIdenticalAcrossBudgets(t *testing.T) {
	onBothPaths(t, func(t *testing.T) {
		rng := stats.NewRNG(42)
		for _, dims := range kernelShapes {
			m, k, n := dims[0], dims[1], dims[2]
			a := randTensor(rng, m, k)
			b := randTensor(rng, k, n)
			at := transpose(a) // (k, m) for TransA
			bt := transpose(b) // (n, k) for TransB
			bias := randTensor(rng, n)
			wantMM := serialMatMul(a, b)
			wantTA := serialMatMulTransA(at, b)
			wantTB := serialMatMulTransB(a, bt)
			wantBias := wantTB.Clone()
			for i := range wantBias.Data {
				wantBias.Data[i] += bias.Data[i%n]
			}
			gotBias := New(m, n)
			for _, budget := range []int{1, 2, 3, 8} {
				withBudget(t, budget, func() {
					requireBitIdentical(t, "MatMul", MatMul(a, b), wantMM)
					requireBitIdentical(t, "MatMulTransA", MatMulTransA(at, b), wantTA)
					requireBitIdentical(t, "MatMulTransB", MatMulTransB(a, bt), wantTB)
					MatMulTransBBiasInto(gotBias, a, bt, bias.Data)
					requireBitIdentical(t, "MatMulTransBBias", gotBias, wantBias)
				})
			}
		}
	})
}

func TestIntoVariantsMatchAndReusePooledScratch(t *testing.T) {
	onBothPaths(t, func(t *testing.T) {
		rng := stats.NewRNG(43)
		for _, dims := range [][3]int{{4, 5, 6}, {31, gemmBlockK + 3, 17}, {6, 7, 45}} {
			m, k, n := dims[0], dims[1], dims[2]
			a := randTensor(rng, m, k)
			b := randTensor(rng, k, n)
			at := transpose(a)
			bt := transpose(b)

			c := GetScratch(m, n)
			c.Fill(999) // Into must fully overwrite stale scratch contents
			MatMulInto(c, a, b)
			requireBitIdentical(t, "MatMulInto", c, serialMatMul(a, b))

			c = ensureInto(c, []int{m, n})
			c.Fill(999)
			MatMulTransAInto(c, at, b)
			requireBitIdentical(t, "MatMulTransAInto", c, serialMatMulTransA(at, b))

			c.Fill(999)
			MatMulTransBInto(c, a, bt)
			requireBitIdentical(t, "MatMulTransBInto", c, serialMatMulTransB(a, bt))
			PutScratch(c)
		}
	})
}

// TestMatMulTransAAccAccumulates pins the weight-gradient kernel's
// starting point: each element's accumulator starts at c's old value and
// adds every k in order, bit for bit, so a reordered or separately summed
// Aᵀ·B fails.
func TestMatMulTransAAccAccumulates(t *testing.T) {
	onBothPaths(t, func(t *testing.T) {
		rng := stats.NewRNG(44)
		for _, dims := range kernelShapes {
			m, k, n := dims[0], dims[1], dims[2]
			at := randTensor(rng, k, m)
			b := randTensor(rng, k, n)
			base := randTensor(rng, m, n)
			want := serialMatMulTransAAcc(base.Clone(), at, b)
			for _, budget := range []int{1, 3} {
				withBudget(t, budget, func() {
					got := base.Clone()
					MatMulTransAAcc(got, at, b)
					requireBitIdentical(t, fmt.Sprintf("MatMulTransAAcc %v budget %d", dims, budget), got, want)
				})
			}
		}
	})
}

// TestGEMMPropagatesNaN pins the semantics fix for the old
// `if av == 0 { continue }` zero-skip: a zero in A times a NaN in B must
// produce NaN, not silently skip the column, and a NaN in A times zeros
// in B must make its whole output row NaN. The NaN visits every position
// of B and of A. The second shape is large enough for the scalar tiles,
// and the third (n = 43: a 2×32 tile, a 2×8 tile and three scalar
// columns, beside an odd row) for every vector tile and tail, so each
// slot of every tile is checked, and a NaN in A is broadcast into every
// lane of the vector tiles.
func TestGEMMPropagatesNaN(t *testing.T) {
	nan := float32(math.NaN())
	onBothPaths(t, func(t *testing.T) {
		for _, dims := range [][3]int{{1, 2, 2}, {3, 6, 5}, {3, 5, 43}} {
			m, k, n := dims[0], dims[1], dims[2]
			a, at := New(m, k), New(k, m) // all zeros
			for p := 0; p < k; p++ {
				for j := 0; j < n; j++ {
					b, bt := New(k, n), New(n, k)
					b.Data[p*n+j], bt.Data[j*k+p] = nan, nan
					tag := fmt.Sprintf("%v, NaN at B(%d,%d)", dims, p, j)
					requireNaNExactly(t, tag, a, at, b, bt, func(_, col int) bool { return col == j })
				}
			}
			b, bt := New(k, n), New(n, k) // all zeros
			for i := 0; i < m; i++ {
				for p := 0; p < k; p++ {
					a, at := New(m, k), New(k, m)
					a.Data[i*k+p], at.Data[p*m+i] = nan, nan
					tag := fmt.Sprintf("%v, NaN at A(%d,%d)", dims, i, p)
					requireNaNExactly(t, tag, a, at, b, bt, func(row, _ int) bool { return row == i })
				}
			}
		}
	})
}

// requireNaNExactly runs the three GEMMs on A·B (a, b and their
// transposes at, bt) and fails unless the elements where want(row, col)
// holds are NaN and every other element is zero.
func requireNaNExactly(t *testing.T, tag string, a, at, b, bt *Tensor, want func(row, col int) bool) {
	t.Helper()
	n := b.Shape[1]
	for _, kern := range []struct {
		name string
		c    *Tensor
	}{
		{"MatMul", MatMul(a, b)},
		{"MatMulTransA", MatMulTransA(at, b)},
		{"MatMulTransB", MatMulTransB(a, bt)},
	} {
		for i, v := range kern.c.Data {
			if want(i/n, i%n) {
				if !math.IsNaN(float64(v)) {
					t.Fatalf("%s %s: element %d = %g, want NaN", kern.name, tag, i, v)
				}
			} else if v != 0 {
				t.Fatalf("%s %s: element %d = %g, want 0", kern.name, tag, i, v)
			}
		}
	}
}

// TestGEMMRejectsShortData pins the up-front length checks: an operand
// whose data is shorter than its shape panics, naming the op, before any
// kernel (the vector tiles check no bounds) reads or writes it.
func TestGEMMRejectsShortData(t *testing.T) {
	short := func(x *Tensor) *Tensor { return &Tensor{Shape: x.Shape, Data: x.Data[:len(x.Data)-1]} }
	a, at, b, bt, c := New(4, 3), New(3, 4), New(3, 40), New(40, 3), New(4, 40)
	for _, tc := range []struct {
		op      string
		run     func(c, x, y *Tensor)
		c, x, y *Tensor
	}{
		{"MatMul", MatMulInto, c, a, b},
		{"MatMulTransA", MatMulTransAAcc, c, at, b},
		{"MatMulTransB", MatMulTransBInto, c, a, bt},
	} {
		for bad, name := range []string{"destination", "A", "B"} {
			ops := []*Tensor{tc.c, tc.x, tc.y}
			ops[bad] = short(ops[bad])
			func() {
				defer func() {
					msg, _ := recover().(string)
					if !strings.Contains(msg, tc.op+" "+name) {
						t.Fatalf("%s with a short %s: panic %q, want one naming %q", tc.op, name, msg, tc.op+" "+name)
					}
				}()
				tc.run(ops[0], ops[1], ops[2])
			}()
		}
	}
}

func TestIm2ColIntoMatchesAndParallel(t *testing.T) {
	rng := stats.NewRNG(45)
	for _, tc := range []struct{ n, c, h, w, k, stride, pad int }{
		{1, 1, 4, 4, 3, 1, 1},
		{5, 3, 7, 5, 3, 2, 1},
		{9, 2, 6, 6, 2, 2, 0},
	} {
		x := randTensor(rng, tc.n, tc.c, tc.h, tc.w)
		var want *Tensor
		withBudget(t, 1, func() { want, _, _ = Im2Col(x, tc.k, tc.k, tc.stride, tc.pad) })

		withBudget(t, 8, func() {
			got := Ensure(nil, want.Shape[0], want.Shape[1])
			got.Fill(42) // stale contents must be fully cleared
			Im2ColInto(got, x, tc.k, tc.k, tc.stride, tc.pad)
			requireBitIdentical(t, "Im2ColInto", got, want)

			cols := randTensor(rng, want.Shape[0], want.Shape[1])
			var wantIm *Tensor
			withBudget(t, 1, func() {
				wantIm = Col2Im(cols, tc.n, tc.c, tc.h, tc.w, tc.k, tc.k, tc.stride, tc.pad)
			})
			gotIm := Ensure(nil, tc.n, tc.c, tc.h, tc.w)
			gotIm.Fill(-7)
			Col2ImInto(gotIm, cols, tc.k, tc.k, tc.stride, tc.pad)
			requireBitIdentical(t, "Col2ImInto", gotIm, wantIm)
		})
	}
}

func TestEnsureReusesCapacity(t *testing.T) {
	t1 := Ensure(nil, 4, 4)
	if t1.Len() != 16 {
		t.Fatalf("Ensure(nil) len %d", t1.Len())
	}
	data := &t1.Data[0]
	t2 := Ensure(t1, 2, 3)
	if t2.Len() != 6 || &t2.Data[0] != data {
		t.Fatal("Ensure must reuse capacity when shrinking")
	}
	t3 := Ensure(t2, 8, 8)
	if t3.Len() != 64 {
		t.Fatalf("Ensure grow len %d", t3.Len())
	}
}

func TestZeroAndFill(t *testing.T) {
	x := New(3, 3)
	x.Fill(2.5)
	for _, v := range x.Data {
		if v != 2.5 {
			t.Fatalf("Fill: got %g", v)
		}
	}
	x.Zero()
	for _, v := range x.Data {
		if v != 0 {
			t.Fatalf("Zero: got %g", v)
		}
	}
}
