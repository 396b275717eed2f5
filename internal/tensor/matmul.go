package tensor

import (
	"fmt"

	"repro/internal/par"
)

// The GEMM kernels are cache-blocked and goroutine-parallel with a hard
// determinism guarantee: results are bit-identical to the serial kernel
// at any worker budget. Parallelism only ever partitions *output rows*
// across goroutines — each output element is computed entirely by one
// worker with a fixed accumulation order (ascending k) — and cache
// blocking visits k-panels in ascending order, which preserves that
// per-element order exactly. So neither the budget nor the block size can
// change a single bit of the result.
//
// Inside a worker the kernels are register-tiled micro-kernels that
// keep every output element's single float32 accumulator and its
// ascending-k order. All three GEMMs share one driver, axpyRows, that
// updates two C rows at a time, one column block after another; A·Bᵀ
// runs it over B transposed one L2-sized chunk of k at a time (the
// B-panel packing of Goto and van de Geijn), by transpose8's 8×8
// register transposes on AVX2. On a CPU with AVX2 it hands each
// row pair's columns to the assembly tiles of matmul_amd64.s: a 2×32
// tile of C held in eight YMM registers across a whole k-panel, and a
// 2×8 tile for the remaining multiples of 8. Each lane takes a rounded
// VMULPS and then a rounded VADDPS per k, the same two steps as the
// scalar `s += float32(a*b)` (the conversion keeps any compiler from
// fusing them into an FMA), so the vector tiles are bit-identical to
// the scalar kernels. The scalar tile folds four consecutive k into one
// load and one store of each C element and shares each load of the
// four B rows between the two C rows (axpy4x2); it takes the n%8
// columns beside the vector tiles, and every column without AVX2. The
// tiles change how many loads, stores and independent chains the inner
// loops carry, never a result bit. axpy4 and axpy are the row and k
// remainders.
//
// Zero weights are NOT skipped in the inner loops (the seed kernel had an
// `if av == 0 { continue }` fast path): the skip broke NaN/Inf
// propagation (0*NaN must stay NaN) and cost a branch per element on
// dense data.

const (
	// gemmBlockK is the k-panel height: a panel of B (gemmBlockK x n
	// float32 rows) is streamed against a row block of A so B stays in
	// cache across the rows of the block.
	gemmBlockK = 240

	// gemmBlockN is the column-block width, a multiple of the 32-column
	// vector tile. axpyRows visits C's columns in blocks this wide,
	// outside the k-panels, so a panel of B stays in cache across every
	// row pair: a convolution's W·colsᵀ has N·outH·outW columns, and a
	// full-width panel of them would be streamed from memory once per
	// row pair.
	gemmBlockN = 256

	// gemmMinWork is the minimum number of multiply-adds a chunk must
	// amortise before For fans out another goroutine; below this the
	// spawn overhead dominates.
	gemmMinWork = 1 << 15

	// copyMinWork is the same threshold for memory-bound kernels
	// (im2col/col2im, dequantization), which move one element per unit.
	copyMinWork = 1 << 14
)

// MatMulInto computes C = A(mxk) * B(kxn) into c, which must already have
// shape (m x n). The previous contents of c are overwritten.
func MatMulInto(c, a, b *Tensor) {
	m, k, n := mmShapes("MatMul", a, b, false, false)
	checkOut("MatMul", c, m, n)
	clear(c.Data)
	axpyGEMM(c.Data, a.Data, b.Data, m, k, n, k, 1)
}

// axpyGEMM accumulates C(m x n) += Â·B (see axpyRows for Â, rs and ps),
// fanning row pairs out over the worker budget when the work is worth
// it. Workers take whole pairs: the tiles update two rows at a time, and
// a chunk of odd size would run its last row alone.
func axpyGEMM(c, a, b []float32, m, k, n, rs, ps int) {
	pairs := (m + 1) / 2
	if grain := par.Grain(2*k*n, gemmMinWork); par.WorthIt(pairs, grain) {
		par.For(pairs, grain, func(lo, hi int) {
			axpyRows(c, a, b, 2*lo, min(2*hi, m), k, n, rs, ps)
		})
		return
	}
	axpyRows(c, a, b, 0, m, k, n, rs, ps)
}

// axpyRows accumulates rows [i0,i1) of C += Â·B, where the coefficient
// Â(i,p) = a[i*rs+p*ps] lets one driver serve A (rs = k, ps = 1) and Aᵀ
// (rs = 1, ps = m). Columns go in blocks of gemmBlockN, and within a
// block k goes in ascending panels of gemmBlockK B rows, each reused
// across every row of the block. Two C rows at a time go through the
// vector tiles (axpyTiles) on their first n &^ 7 columns when the CPU
// has AVX2, and through axpy4x2 on the rest; an odd last row takes
// axpy4 alone, and the k%4 tail of a panel goes one B row at a time
// (axpy). Per-element accumulation stays ascending in k.
func axpyRows(c, a, b []float32, i0, i1, k, n, rs, ps int) {
	nv := 0 // columns [0, nv) of a row pair take the vector tiles
	if useAVX2 {
		nv = n &^ 7
	}
	for j0 := 0; j0 < n; j0 += gemmBlockN {
		j1 := min(j0+gemmBlockN, n)
		v1 := max(j0, min(j1, nv)) // the block's vector columns are [j0, v1)
		for kb := 0; kb < k; kb += gemmBlockK {
			kEnd := min(kb+gemmBlockK, k)
			for i := i0; i < i1; i += 2 {
				c0, a0 := c[i*n+j0:i*n+j1], a[i*rs:]
				if i+1 == i1 {
					p := kb
					for ; p+4 <= kEnd; p += 4 {
						axpy4(c0, b[p*n+j0:p*n+j1], b[(p+1)*n+j0:(p+1)*n+j1], b[(p+2)*n+j0:(p+2)*n+j1], b[(p+3)*n+j0:(p+3)*n+j1],
							a0[p*ps], a0[(p+1)*ps], a0[(p+2)*ps], a0[(p+3)*ps])
					}
					for ; p < kEnd; p++ {
						axpy(c0, b[p*n+j0:p*n+j1], a0[p*ps])
					}
					break
				}
				c1, a1 := c[(i+1)*n+j0:(i+1)*n+j1], a[(i+1)*rs:]
				if v1 > j0 {
					axpyTiles(c0[:v1-j0], c1[:v1-j0], a0, a1, b[j0:], kb, kEnd, n, ps)
					if v1 == j1 {
						continue
					}
					c0, c1 = c0[v1-j0:], c1[v1-j0:]
				}
				p := kb
				for ; p+4 <= kEnd; p += 4 {
					axpy4x2(c0, c1, b[p*n+v1:p*n+j1], b[(p+1)*n+v1:(p+1)*n+j1], b[(p+2)*n+v1:(p+2)*n+j1], b[(p+3)*n+v1:(p+3)*n+j1],
						a0[p*ps], a0[(p+1)*ps], a0[(p+2)*ps], a0[(p+3)*ps],
						a1[p*ps], a1[(p+1)*ps], a1[(p+2)*ps], a1[(p+3)*ps])
				}
				for ; p < kEnd; p++ {
					axpy(c0, b[p*n+v1:p*n+j1], a0[p*ps])
					axpy(c1, b[p*n+v1:p*n+j1], a1[p*ps])
				}
			}
		}
	}
}

// axpyTiles adds the k-panel [kb, kEnd) of one row pair's Â·B into the
// rows' columns [0, len(c0)), a multiple of 8, where b starts at the
// first of those columns: 2×32 tiles first, then 2×8 tiles. The index
// expressions before each call name the last element of every operand
// the assembly touches, so they are its bounds checks.
func axpyTiles(c0, c1, a0, a1, b []float32, kb, kEnd, n, ps int) {
	x0, x1 := &a0[kb*ps], &a1[kb*ps]
	_, _ = a0[(kEnd-1)*ps], a1[(kEnd-1)*ps]
	last := (kEnd - 1) * n // B row of the panel's last k
	j := 0
	for ; j+32 <= len(c0); j += 32 {
		_, _, _ = c0[j+31], c1[j+31], b[last+j+31]
		axpyTile2x32(&c0[j], &c1[j], &b[kb*n+j], x0, x1, n, ps, kEnd-kb)
	}
	for ; j < len(c0); j += 8 {
		_, _, _ = c0[j+7], c1[j+7], b[last+j+7]
		axpyTile2x8(&c0[j], &c1[j], &b[kb*n+j], x0, x1, n, ps, kEnd-kb)
	}
}

// MatMulTransAInto computes C = Aᵀ·B into c: A is (k x m), B is (k x n),
// c must have shape (m x n). The previous contents of c are overwritten.
func MatMulTransAInto(c, a, b *Tensor) {
	m, k, n := mmShapes("MatMulTransA", a, b, true, false)
	checkOut("MatMulTransA", c, m, n)
	clear(c.Data)
	axpyGEMM(c.Data, a.Data, b.Data, m, k, n, 1, m)
}

// MatMulTransAAcc accumulates C += Aᵀ·B into c without clearing it — the
// weight-gradient kernel of Linear, writing straight into the gradient
// tensor with no intermediate allocation. When c starts at zero the
// result is bit-identical to computing Aᵀ·B separately and adding it
// once.
func MatMulTransAAcc(c, a, b *Tensor) {
	m, k, n := mmShapes("MatMulTransA", a, b, true, false)
	checkOut("MatMulTransA", c, m, n)
	axpyGEMM(c.Data, a.Data, b.Data, m, k, n, 1, m)
}

// MatMulTransBInto computes C = A·Bᵀ into c: A is (m x k), B is (n x k),
// c must have shape (m x n). The previous contents of c are overwritten.
func MatMulTransBInto(c, a, b *Tensor) { MatMulTransBBiasInto(c, a, b, nil) }

// MatMulTransBBiasInto computes C = A·Bᵀ + bias into c, with bias (one
// value per output column, i.e. per row of B) added to every element
// once, after its last k; nil bias gives the plain product. This is
// Linear's forward kernel (x·Wᵀ + b).
func MatMulTransBBiasInto(c, a, b *Tensor, bias []float32) {
	m, k, n := mmShapes("MatMulTransB", a, b, false, true)
	checkOut("MatMulTransB", c, m, n)
	if bias != nil && len(bias) != n {
		panic(fmt.Sprintf("tensor: MatMulTransB bias length %d, want %d", len(bias), n))
	}
	clear(c.Data)
	matMulTransBAcc(c.Data, a.Data, b.Data, m, k, n)
	if bias != nil {
		for i := 0; i < len(c.Data); i += n {
			for j, v := range bias {
				c.Data[i+j] += v
			}
		}
	}
}

// MatMulTransBAcc accumulates C += A·Bᵀ into c without clearing it: A is
// (m x k), B is (n x k), c has shape (m x n). It is the convolution
// weight-gradient kernel, dW += g·(colsᵀ)ᵀ. Each element's accumulator
// starts at c's old value and adds every k in ascending order.
func MatMulTransBAcc(c, a, b *Tensor) {
	m, k, n := mmShapes("MatMulTransB", a, b, false, true)
	checkOut("MatMulTransB", c, m, n)
	matMulTransBAcc(c.Data, a.Data, b.Data, m, k, n)
}

// matMulTransBAcc accumulates C += A·Bᵀ through the one driver, which
// streams rows of a (k x n) B: the (n x k) operand is transposed into
// scratch one chunk of k at a time, and axpyGEMM runs on each chunk
// with A's full row stride. The chunks go in ascending k and each one
// accumulates onto C, so every element keeps its start value, its one
// float32 accumulator and its ascending-k order; C already goes through
// memory between k-panels, so a chunk boundary adds no rounding. A
// chunk stays in L2 from its transpose to its GEMM; a whole transposed
// B would go out to memory and be read back.
func matMulTransBAcc(c, a, b []float32, m, k, n int) {
	kc := min(k, max(1, transposeChunkBytes/4/n/gemmBlockK)*gemmBlockK)
	bt := GetScratch(kc, n)
	for k0 := 0; k0 < k; k0 += kc {
		kn := min(kc, k-k0)
		transposeInto(bt.Data[:kn*n], b[k0:], n, kn, k)
		axpyGEMM(c, a[k0:], bt.Data[:kn*n], m, kn, n, k, 1)
	}
	PutScratch(bt)
}

// transposeChunkBytes bounds the transposed chunk of an A·Bᵀ: a chunk
// is the largest multiple of gemmBlockK k whose k x n float32 panel fits
// in it, and never less than gemmBlockK. 256 KiB measured the same on
// the weight gradients and 1 MiB slower.
const transposeChunkBytes = 512 << 10

// transposeInto writes bt (k x n) = the first k columns of b's n rows,
// ldb elements apart, transposed. Eight rows of b go at a time, so each
// k stores eight contiguous elements of bt while the loads advance
// along the eight rows; when n%8 != 0 the last group overlaps the one
// before it and rewrites the same values. On AVX2 the group's k &^ 7
// columns go through transpose8, one 8×8 register transpose per block,
// and the k%8 tail through the Go gather that is the whole group on
// other CPUs. Fewer than eight rows go one row at a time.
func transposeInto(bt, b []float32, n, k, ldb int) {
	if n < 8 {
		for j := 0; j < n; j++ {
			for p, v := range b[j*ldb : j*ldb+k] {
				bt[p*n+j] = v
			}
		}
		return
	}
	kv := 0 // columns [0, kv) of a group go through transpose8
	if useAVX2 {
		kv = k &^ 7
	}
	for j0 := 0; j0 < n; j0 += 8 {
		j := min(j0, n-8)
		if kv > 0 {
			_, _ = bt[(kv-1)*n+j+7], b[(j+7)*ldb+kv-1]
			transpose8(&bt[j], &b[j*ldb], n, ldb, kv)
		}
		r0 := b[j*ldb+kv : j*ldb+k]
		r1 := b[(j+1)*ldb+kv:][:len(r0)]
		r2 := b[(j+2)*ldb+kv:][:len(r0)]
		r3 := b[(j+3)*ldb+kv:][:len(r0)]
		r4 := b[(j+4)*ldb+kv:][:len(r0)]
		r5 := b[(j+5)*ldb+kv:][:len(r0)]
		r6 := b[(j+6)*ldb+kv:][:len(r0)]
		r7 := b[(j+7)*ldb+kv:][:len(r0)]
		for p, v := range r0 {
			o := bt[(kv+p)*n+j:][:8]
			o[0], o[1], o[2], o[3], o[4], o[5], o[6], o[7] = v, r1[p], r2[p], r3[p], r4[p], r5[p], r6[p], r7[p]
		}
	}
}

// axpy4 computes ci += a0*b0 + a1*b1 + a2*b2 + a3*b3 elementwise, adding
// the four products one at a time in that order: each element takes the
// same four rounded steps as four axpy calls, with one load and one
// store of ci instead of four. The slice-length hints let the compiler
// drop per-iteration bounds checks. Here and in every kernel below, the
// float32 conversion rounds each product before it is added, which
// keeps compilers for FMA-capable architectures from fusing the two.
func axpy4(ci, b0, b1, b2, b3 []float32, a0, a1, a2, a3 float32) {
	b0, b1, b2, b3 = b0[:len(ci)], b1[:len(ci)], b2[:len(ci)], b3[:len(ci)]
	for j, s := range ci {
		s += float32(a0 * b0[j])
		s += float32(a1 * b1[j])
		s += float32(a2 * b2[j])
		s += float32(a3 * b3[j])
		ci[j] = s
	}
}

// axpy4x2 is axpy4 on two C rows at once, sharing each load of the four
// B rows: c0 takes the coefficients x00..x03 and c1 takes x10..x13. They
// are scalar arguments rather than arrays so that they stay in registers
// across the loop.
func axpy4x2(c0, c1, b0, b1, b2, b3 []float32, x00, x01, x02, x03, x10, x11, x12, x13 float32) {
	c1 = c1[:len(c0)]
	b0, b1, b2, b3 = b0[:len(c0)], b1[:len(c0)], b2[:len(c0)], b3[:len(c0)]
	for j, s := range c0 {
		t := c1[j]
		s += float32(x00 * b0[j])
		t += float32(x10 * b0[j])
		s += float32(x01 * b1[j])
		t += float32(x11 * b1[j])
		s += float32(x02 * b2[j])
		t += float32(x12 * b2[j])
		s += float32(x03 * b3[j])
		t += float32(x13 * b3[j])
		c0[j], c1[j] = s, t
	}
}

// axpy computes ci += av * bp elementwise: the remainder tail of axpy4.
func axpy(ci, bp []float32, av float32) {
	bp = bp[:len(ci)]
	for j := range ci {
		ci[j] += float32(av * bp[j])
	}
}

// mmShapes validates a 2-D matmul pair and returns (m, k, n). ta/tb mark
// which operand is transposed. Each operand's data must hold exactly its
// shape: the kernels index by shape alone, and the vector tiles check no
// bounds of their own.
func mmShapes(op string, a, b *Tensor, ta, tb bool) (m, k, n int) {
	if len(a.Shape) != 2 || len(b.Shape) != 2 {
		panic(fmt.Sprintf("tensor: %s needs 2-D operands, got %v x %v", op, a.Shape, b.Shape))
	}
	checkData(op, "A", a)
	checkData(op, "B", b)
	m, k = a.Shape[0], a.Shape[1]
	if ta {
		m, k = k, m
	}
	bk, bn := b.Shape[0], b.Shape[1]
	if tb {
		bk, bn = bn, bk
	}
	if k != bk {
		panic(fmt.Sprintf("tensor: %s shape mismatch %v x %v", op, a.Shape, b.Shape))
	}
	return m, k, bn
}

// checkOut validates a destination's shape and data length.
func checkOut(op string, c *Tensor, m, n int) {
	if len(c.Shape) != 2 || c.Shape[0] != m || c.Shape[1] != n {
		panic(fmt.Sprintf("tensor: %s destination %v, want (%d, %d)", op, c.Shape, m, n))
	}
	checkData(op, "destination", c)
}

// checkData panics unless t's data length matches its 2-D shape.
func checkData(op, name string, t *Tensor) {
	if want := t.Shape[0] * t.Shape[1]; len(t.Data) != want {
		panic(fmt.Sprintf("tensor: %s %s %v holds %d elements, want %d", op, name, t.Shape, len(t.Data), want))
	}
}
