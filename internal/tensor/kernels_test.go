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
				c.Data[i*n+j] += float32(av * b.Data[p*n+j])
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
				c.Data[i*n+j] += float32(av * b.Data[p*n+j])
			}
		}
	}
	return c
}

func serialMatMulTransB(a, b *Tensor) *Tensor {
	return serialMatMulTransBAcc(New(a.Shape[0], b.Shape[0]), a, b)
}

// serialMatMulTransBAcc accumulates c += A·Bᵀ onto c's contents and
// returns c.
func serialMatMulTransBAcc(c, a, b *Tensor) *Tensor {
	m, k, n := a.Shape[0], a.Shape[1], b.Shape[0]
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			s := c.Data[i*n+j]
			for p := 0; p < k; p++ {
				s += float32(a.Data[i*k+p] * b.Data[j*k+p])
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
// dimensions straddling the k-block and column-block boundaries
// (gemmBlockK±1, gemmBlockN±1) and sizes not divisible by any block or
// chunk width. Between them every tile tail runs: m odd and even (the
// lone last row beside the row pairs), n and k at every residue mod 4
// (column and k remainders), and k tails inside the last k-panel. The
// n ≥ 8 entries cover the vector path: the 2×32 tile (n ∈ {32, 33,
// 71}), the 2×8 remainder tile (n ∈ {8, 31, 47}), the scalar n%8
// columns beside them, the odd row with n ≥ 32, and panels shorter than
// the kernel's four-k unroll (k < 4). Past one column block, the last
// block holds a lone scalar column (gemmBlockN+1), or a 2×32 tile, a
// 2×8 tile and a scalar column after two full blocks, beside an odd row
// (2*gemmBlockN+41). The last entry is wide enough that A·Bᵀ's
// transposed chunk is one gemmBlockK (see transposeChunkBytes), so its
// k runs three full chunks and a short fourth, and every chunk seam is
// checked.
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
	{3, 5, gemmBlockN - 1},
	{4, 7, gemmBlockN},
	{5, 9, gemmBlockN + 1},
	{7, gemmBlockK + 2, 2*gemmBlockN + 41},
	{5, 3*gemmBlockK + 13, 2*gemmBlockN + 91},
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
					requireBitIdentical(t, "MatMul", gemm(MatMulInto, m, n, a, b), wantMM)
					requireBitIdentical(t, "MatMulTransA", gemm(MatMulTransAInto, m, n, at, b), wantTA)
					requireBitIdentical(t, "MatMulTransB", gemm(MatMulTransBInto, m, n, a, bt), wantTB)
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

// TestMatMulTransAAccAccumulates pins the weight-gradient kernels'
// starting point, for Linear's Aᵀ·B and the convolution's A·Bᵀ: each
// element's accumulator starts at c's old value and adds every k in
// order, bit for bit, so a reordered or separately summed product fails.
func TestMatMulTransAAccAccumulates(t *testing.T) {
	onBothPaths(t, func(t *testing.T) {
		rng := stats.NewRNG(44)
		for _, dims := range kernelShapes {
			m, k, n := dims[0], dims[1], dims[2]
			at := randTensor(rng, k, m)
			b := randTensor(rng, k, n)
			a, bt := transpose(at), transpose(b)
			base := randTensor(rng, m, n)
			wantA := serialMatMulTransAAcc(base.Clone(), at, b)
			wantB := serialMatMulTransBAcc(base.Clone(), a, bt)
			for _, budget := range []int{1, 3} {
				withBudget(t, budget, func() {
					got := base.Clone()
					MatMulTransAAcc(got, at, b)
					requireBitIdentical(t, fmt.Sprintf("MatMulTransAAcc %v budget %d", dims, budget), got, wantA)
					got = base.Clone()
					MatMulTransBAcc(got, a, bt)
					requireBitIdentical(t, fmt.Sprintf("MatMulTransBAcc %v budget %d", dims, budget), got, wantB)
				})
			}
		}
	})
}

// TestTransposeIntoMatchesNaive checks A·Bᵀ's transpose against the
// element-by-element reference, bit for bit, over a stale destination
// and a row stride larger than k: n below, at and past one 8-row group,
// with an overlapping last group (9, 12, 36), and k below, at and past
// one 8×8 block, with a k%8 tail (7, 13) and a whole k-panel (240).
func TestTransposeIntoMatchesNaive(t *testing.T) {
	onBothPaths(t, func(t *testing.T) {
		rng := stats.NewRNG(46)
		for _, n := range []int{1, 7, 8, 9, 12, 36} {
			for _, k := range []int{1, 7, 8, 13, 240} {
				ldb := k + 5
				b := randTensor(rng, n, ldb)
				want := New(k, n)
				for j := range n {
					for p := range k {
						want.Data[p*n+j] = b.Data[j*ldb+p]
					}
				}
				got := New(k, n)
				got.Fill(float32(math.NaN()))
				transposeInto(got.Data, b.Data, n, k, ldb)
				requireBitIdentical(t, fmt.Sprintf("transposeInto n=%d k=%d", n, k), got, want)
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
	m, n := a.Shape[0], b.Shape[1]
	for _, kern := range []struct {
		name string
		c    *Tensor
	}{
		{"MatMul", gemm(MatMulInto, m, n, a, b)},
		{"MatMulTransA", gemm(MatMulTransAInto, m, n, at, b)},
		{"MatMulTransB", gemm(MatMulTransBInto, m, n, a, bt)},
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
		{"MatMulTransB", MatMulTransBAcc, c, a, bt},
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

// naiveIm2Col is the reference channel-major lowering: colsᵀ element
// (tap, column) set one at a time.
func naiveIm2Col(x *Tensor, kh, kw, stride, pad int) *Tensor {
	n, c, h, w := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	oh, ow := ConvOutDims(h, w, kh, kw, stride, pad)
	cols := New(c*kh*kw, n*oh*ow)
	for r := range cols.Shape[0] {
		ch, ky, kx := r/(kh*kw), r/kw%kh, r%kw
		for img := range n {
			for oy := range oh {
				for ox := range ow {
					iy, ix := oy*stride-pad+ky, ox*stride-pad+kx
					if iy >= 0 && iy < h && ix >= 0 && ix < w {
						cols.Data[(r*n+img)*oh*ow+oy*ow+ox] = x.Data[((img*c+ch)*h+iy)*w+ix]
					}
				}
			}
		}
	}
	return cols
}

// naiveCol2Im is the reference scatter of colsᵀ: image, then output
// position (oy, ox), then channel and tap, so every x element adds its
// terms in ascending (oy, ox) order, the order of the pinned results.
// An element that already holds a NaN keeps it, payload and all: the
// element is the first operand of each add, as in the kernel's shifted
// add (an x86 add of two NaNs returns the first).
func naiveCol2Im(cols *Tensor, n, c, h, w, kh, kw, stride, pad int) *Tensor {
	oh, ow := ConvOutDims(h, w, kh, kw, stride, pad)
	x := New(n, c, h, w)
	for img := range n {
		for oy := range oh {
			for ox := range ow {
				for ch := range c {
					for ky := range kh {
						for kx := range kw {
							iy, ix := oy*stride-pad+ky, ox*stride-pad+kx
							if iy >= 0 && iy < h && ix >= 0 && ix < w {
								r := (ch*kh+ky)*kw + kx
								if e := &x.Data[((img*c+ch)*h+iy)*w+ix]; *e == *e {
									*e += cols.Data[(r*n+img)*oh*ow+oy*ow+ox]
								}
							}
						}
					}
				}
			}
		}
	}
	return x
}

// TestIm2ColIntoMatchesAndParallel checks the channel-major lowering and
// its scatter against the naive references, bit for bit, at budgets 1
// to 8, over stale destinations, on both paths. The sweep covers kernels
// 1–5, strides 1–3 and pads 0–2 on non-square planes, 1×1 planes and
// planes smaller than the kernel; the larger cases split rows and
// planes across workers. The scattered colsᵀ holds NaN in every entry
// whose tap falls in the padding, which the scatter must never add, and
// −0 in some valid entries. Where the scatter is one shifted add per
// tap (stride 1, outW == W), some valid entries hold NaNs of distinct
// payloads too: an x element that takes two keeps the first one's
// payload. Col2ImInto may zero padding entries but must leave every
// valid entry of cols as it was.
func TestIm2ColIntoMatchesAndParallel(t *testing.T) {
	type conv struct{ n, c, h, w, k, stride, pad int }
	cases := []conv{
		{4, 8, 24, 24, 3, 1, 1},
		{3, 5, 17, 13, 3, 2, 1},
		{4, 6, 16, 16, 1, 2, 0},
		{2, 4, 12, 20, 5, 1, 2},
		{5, 3, 9, 30, 2, 3, 2},
	}
	for _, hw := range [][2]int{{1, 1}, {2, 3}, {5, 7}, {8, 8}} {
		for k := 1; k <= 5; k++ {
			for stride := 1; stride <= 3; stride++ {
				for pad := 0; pad <= 2; pad++ {
					if hw[0]+2*pad >= k && hw[1]+2*pad >= k {
						cases = append(cases, conv{2, 3, hw[0], hw[1], k, stride, pad})
					}
				}
			}
		}
	}
	onBothPaths(t, func(t *testing.T) {
		rng := stats.NewRNG(45)
		for _, tc := range cases {
			x := randTensor(rng, tc.n, tc.c, tc.h, tc.w)
			want := naiveIm2Col(x, tc.k, tc.k, tc.stride, tc.pad)
			cols := randTensor(rng, want.Shape[0], want.Shape[1])
			valid := validCols(tc.n, tc.c, tc.h, tc.w, tc.k, tc.k, tc.stride, tc.pad)
			_, ow := ConvOutDims(tc.h, tc.w, tc.k, tc.k, tc.stride, tc.pad)
			shifted := tc.stride == 1 && ow == tc.w
			for i := range cols.Data {
				switch {
				case !valid[i]:
					cols.Data[i] = math.Float32frombits(0x7fc0dead)
				case i%16 == 3:
					cols.Data[i] = float32(math.Copysign(0, -1))
				case shifted && i%32 == 7:
					cols.Data[i] = math.Float32frombits(0x7fc00000 | uint32(i))
				}
			}
			wantIm := naiveCol2Im(cols, tc.n, tc.c, tc.h, tc.w, tc.k, tc.k, tc.stride, tc.pad)
			got := Ensure(nil, want.Shape...)
			gotIm := Ensure(nil, tc.n, tc.c, tc.h, tc.w)
			scattered := cols.Clone()
			for budget := 1; budget <= 8; budget++ {
				withBudget(t, budget, func() {
					tag := fmt.Sprintf("%+v budget %d", tc, budget)
					got.Fill(42) // stale contents must be fully overwritten
					Im2ColInto(got, x, tc.k, tc.k, tc.stride, tc.pad)
					requireBitIdentical(t, "Im2ColInto "+tag, got, want)
					gotIm.Fill(-7)
					copy(scattered.Data, cols.Data)
					Col2ImInto(gotIm, scattered, tc.k, tc.k, tc.stride, tc.pad)
					requireBitIdentical(t, "Col2ImInto "+tag, gotIm, wantIm)
					for i, v := range scattered.Data {
						if valid[i] && math.Float32bits(v) != math.Float32bits(cols.Data[i]) {
							t.Fatalf("Col2ImInto %s: valid cols entry %d = %g, was %g", tag, i, v, cols.Data[i])
						}
					}
				})
			}
		}
	})
}

// validCols marks the colsᵀ entries of a convolution whose tap falls
// inside the image, the entries naiveCol2Im reads.
func validCols(n, c, h, w, kh, kw, stride, pad int) []bool {
	oh, ow := ConvOutDims(h, w, kh, kw, stride, pad)
	valid := make([]bool, c*kh*kw*n*oh*ow)
	for r := range c * kh * kw {
		ky, kx := r/kw%kh, r%kw
		for img := range n {
			for oy := range oh {
				for ox := range ow {
					iy, ix := oy*stride-pad+ky, ox*stride-pad+kx
					valid[(r*n+img)*oh*ow+oy*ow+ox] = iy >= 0 && iy < h && ix >= 0 && ix < w
				}
			}
		}
	}
	return valid
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
