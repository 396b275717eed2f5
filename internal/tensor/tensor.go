// Package tensor provides the dense float32 tensors and kernels that the
// DNN substrate (internal/nn) is built on: matrix multiplication, im2col
// convolution lowering, pooling, and elementwise operations, with
// deterministic results. Everything is Go except the GEMMs' AVX2 tile
// kernels on amd64 (matmul_amd64.s), which are selected from the CPU at
// init and are bit-identical to the Go kernels they stand in for.
package tensor

import (
	"fmt"
	"math"

	"repro/internal/par"
	"repro/internal/stats"
)

// Tensor is a dense row-major float32 tensor.
type Tensor struct {
	Shape []int
	Data  []float32
}

// New allocates a zero tensor with the given shape.
func New(shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		if d <= 0 {
			panic(fmt.Sprintf("tensor: non-positive dim %d in %v", d, shape))
		}
		n *= d
	}
	return &Tensor{Shape: append([]int(nil), shape...), Data: make([]float32, n)}
}

// FromData wraps data with a shape; the slice is used directly.
func FromData(data []float32, shape ...int) *Tensor {
	t := &Tensor{Shape: append([]int(nil), shape...), Data: data}
	if t.Len() != len(data) {
		panic(fmt.Sprintf("tensor: data length %d does not match shape %v", len(data), shape))
	}
	return t
}

// Len returns the number of elements.
func (t *Tensor) Len() int {
	n := 1
	for _, d := range t.Shape {
		n *= d
	}
	return n
}

// Dim returns the size of axis i.
func (t *Tensor) Dim(i int) int { return t.Shape[i] }

// Clone deep-copies the tensor.
func (t *Tensor) Clone() *Tensor {
	out := &Tensor{Shape: append([]int(nil), t.Shape...), Data: make([]float32, len(t.Data))}
	copy(out.Data, t.Data)
	return out
}

// Reshape returns a view with a new shape of equal length.
func (t *Tensor) Reshape(shape ...int) *Tensor {
	out := &Tensor{Shape: append([]int(nil), shape...), Data: t.Data}
	if out.Len() != t.Len() {
		panic(fmt.Sprintf("tensor: reshape %v -> %v changes length", t.Shape, shape))
	}
	return out
}

// Zero sets all elements to zero.
func (t *Tensor) Zero() { clear(t.Data) }

// Fill sets all elements to v.
func (t *Tensor) Fill(v float32) {
	for i := range t.Data {
		t.Data[i] = v
	}
}

// At returns the element at the given indices (bounds-checked; for tests
// and small-scale code, not inner loops).
func (t *Tensor) At(idx ...int) float32 { return t.Data[t.offset(idx)] }

// Set stores v at the given indices.
func (t *Tensor) Set(v float32, idx ...int) { t.Data[t.offset(idx)] = v }

func (t *Tensor) offset(idx []int) int {
	if len(idx) != len(t.Shape) {
		panic(fmt.Sprintf("tensor: %d indices for shape %v", len(idx), t.Shape))
	}
	off := 0
	for i, x := range idx {
		if x < 0 || x >= t.Shape[i] {
			panic(fmt.Sprintf("tensor: index %d out of range for axis %d (%v)", x, i, t.Shape))
		}
		off = off*t.Shape[i] + x
	}
	return off
}

// SameShape reports whether two tensors have identical shapes.
func SameShape(a, b *Tensor) bool {
	if len(a.Shape) != len(b.Shape) {
		return false
	}
	for i := range a.Shape {
		if a.Shape[i] != b.Shape[i] {
			return false
		}
	}
	return true
}

// RandNormal fills the tensor with Normal(0, std) values.
func (t *Tensor) RandNormal(rng *stats.RNG, std float64) {
	for i := range t.Data {
		t.Data[i] = float32(rng.Normal(0, std))
	}
}

// KaimingInit fills a weight tensor with He-normal initialisation using
// fanIn input connections.
func (t *Tensor) KaimingInit(rng *stats.RNG, fanIn int) {
	std := math.Sqrt(2 / float64(fanIn))
	t.RandNormal(rng, std)
}

// Add accumulates src into t elementwise.
func (t *Tensor) Add(src *Tensor) {
	if len(src.Data) != len(t.Data) {
		panic("tensor: Add length mismatch")
	}
	for i, v := range src.Data {
		t.Data[i] += v
	}
}

// Scale multiplies every element by s.
func (t *Tensor) Scale(s float32) {
	for i := range t.Data {
		t.Data[i] *= s
	}
}

// MaxAbs returns the maximum absolute value.
func (t *Tensor) MaxAbs() float32 {
	var m float32
	for _, v := range t.Data {
		if v < 0 {
			v = -v
		}
		if v > m {
			m = v
		}
	}
	return m
}

// MatMul computes C = A(mxk) * B(kxn) into a new (mxn) tensor. See
// matmul.go for the blocked, goroutine-parallel kernel underneath.
func MatMul(a, b *Tensor) *Tensor {
	m, _, n := mmShapes("MatMul", a, b, false, false)
	c := New(m, n)
	MatMulInto(c, a, b)
	return c
}

// MatMulTransA computes C = Aᵀ·B where A is (k x m) and B is (k x n),
// giving C (m x n): C[i,j] = sum_p A[p,i] * B[p,j]. Used for weight
// gradients.
func MatMulTransA(a, b *Tensor) *Tensor {
	m, _, n := mmShapes("MatMulTransA", a, b, true, false)
	c := New(m, n)
	MatMulTransAAcc(c, a, b)
	return c
}

// MatMulTransB computes C[m,n] = sum_p A[m,p] * B[n,p] (B transposed).
// Used for input gradients.
func MatMulTransB(a, b *Tensor) *Tensor {
	m, _, n := mmShapes("MatMulTransB", a, b, false, true)
	c := New(m, n)
	MatMulTransBInto(c, a, b)
	return c
}

// ConvOutDims returns the spatial output size of a convolution over an
// (H, W) map with the given kernel, stride and padding.
func ConvOutDims(h, w, kh, kw, stride, pad int) (int, int) {
	return (h+2*pad-kh)/stride + 1, (w+2*pad-kw)/stride + 1
}

// Im2Col lowers an input image batch (N, C, H, W) into a matrix of shape
// (N*outH*outW, C*kh*kw) for convolution by matmul. Padding is zero-fill.
func Im2Col(x *Tensor, kh, kw, stride, pad int) (*Tensor, int, int) {
	n, c := x.Shape[0], x.Shape[1]
	outH, outW := ConvOutDims(x.Shape[2], x.Shape[3], kh, kw, stride, pad)
	cols := New(n*outH*outW, c*kh*kw)
	Im2ColInto(cols, x, kh, kw, stride, pad)
	return cols, outH, outW
}

// Im2ColInto lowers x into cols, which must have shape
// (N*outH*outW, C*kh*kw); previous contents are overwritten. Images are
// lowered in parallel — each output row belongs to exactly one image, so
// the result is identical at any worker budget.
func Im2ColInto(cols, x *Tensor, kh, kw, stride, pad int) {
	n, c, h, w := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	outH, outW := ConvOutDims(h, w, kh, kw, stride, pad)
	colStride := c * kh * kw
	checkOut("Im2Col", cols, n*outH*outW, colStride)
	if pad > 0 {
		// Padded positions are skipped by the fill and must read as zero;
		// with no padding every element is overwritten, so the (possibly
		// stale) destination needs no clearing.
		clear(cols.Data)
	}
	if grain := par.Grain(outH*outW*colStride, copyMinWork); parallelWorthIt(n, grain) {
		par.For(n, grain, func(lo, hi int) {
			for img := lo; img < hi; img++ {
				im2colImage(cols.Data, x.Data, img, c, h, w, outH, outW, kh, kw, stride, pad)
			}
		})
		return
	}
	for img := 0; img < n; img++ {
		im2colImage(cols.Data, x.Data, img, c, h, w, outH, outW, kh, kw, stride, pad)
	}
}

func im2colImage(cols, x []float32, img, c, h, w, outH, outW, kh, kw, stride, pad int) {
	colStride := c * kh * kw
	xoff := img * c * h * w
	for oy := 0; oy < outH; oy++ {
		for ox := 0; ox < outW; ox++ {
			row := ((img*outH+oy)*outW + ox) * colStride
			for ch := 0; ch < c; ch++ {
				choff := xoff + ch*h*w
				for ky := 0; ky < kh; ky++ {
					iy := oy*stride - pad + ky
					dst := row + (ch*kh+ky)*kw
					if iy < 0 || iy >= h {
						continue // zeros already
					}
					srcRow := choff + iy*w
					for kx := 0; kx < kw; kx++ {
						ix := ox*stride - pad + kx
						if ix < 0 || ix >= w {
							continue
						}
						cols[dst+kx] = x[srcRow+ix]
					}
				}
			}
		}
	}
}

// Col2Im scatters a column matrix (as produced by Im2Col) back into an
// image batch of shape (N, C, H, W), accumulating overlaps. It is the
// adjoint of Im2Col and is used for convolution input gradients.
func Col2Im(cols *Tensor, n, c, h, w, kh, kw, stride, pad int) *Tensor {
	x := New(n, c, h, w)
	Col2ImInto(x, cols, kh, kw, stride, pad)
	return x
}

// Col2ImInto scatters cols into x (shape (N, C, H, W)), overwriting its
// previous contents. Images scatter in parallel: overlapping patch writes
// only ever land within one image, so per-element accumulation order is
// fixed and the result is identical at any worker budget.
func Col2ImInto(x, cols *Tensor, kh, kw, stride, pad int) {
	n, c, h, w := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	outH, outW := ConvOutDims(h, w, kh, kw, stride, pad)
	colStride := c * kh * kw
	checkOut("Col2Im", cols, n*outH*outW, colStride)
	clear(x.Data)
	if grain := par.Grain(outH*outW*colStride, copyMinWork); parallelWorthIt(n, grain) {
		par.For(n, grain, func(lo, hi int) {
			for img := lo; img < hi; img++ {
				col2imImage(x.Data, cols.Data, img, c, h, w, outH, outW, kh, kw, stride, pad)
			}
		})
		return
	}
	for img := 0; img < n; img++ {
		col2imImage(x.Data, cols.Data, img, c, h, w, outH, outW, kh, kw, stride, pad)
	}
}

func col2imImage(x, cols []float32, img, c, h, w, outH, outW, kh, kw, stride, pad int) {
	colStride := c * kh * kw
	xoff := img * c * h * w
	for oy := 0; oy < outH; oy++ {
		for ox := 0; ox < outW; ox++ {
			row := ((img*outH+oy)*outW + ox) * colStride
			for ch := 0; ch < c; ch++ {
				choff := xoff + ch*h*w
				for ky := 0; ky < kh; ky++ {
					iy := oy*stride - pad + ky
					if iy < 0 || iy >= h {
						continue
					}
					src := row + (ch*kh+ky)*kw
					dstRow := choff + iy*w
					for kx := 0; kx < kw; kx++ {
						ix := ox*stride - pad + kx
						if ix < 0 || ix >= w {
							continue
						}
						x[dstRow+ix] += cols[src+kx]
					}
				}
			}
		}
	}
}

// ArgMaxRow returns the index of the maximum element in each row of a 2-D
// tensor (class predictions from logits).
func ArgMaxRow(t *Tensor) []int {
	return ArgMaxRowInto(nil, t)
}

// ArgMaxRowInto is ArgMaxRow writing into dst, which is grown only when
// its capacity is short — evaluation loops pass the previous batch's
// slice back in so per-batch predictions cost no allocation.
func ArgMaxRowInto(dst []int, t *Tensor) []int {
	if len(t.Shape) != 2 {
		panic("tensor: ArgMaxRow needs a 2-D tensor")
	}
	rows, cols := t.Shape[0], t.Shape[1]
	out := dst
	if cap(out) < rows {
		out = make([]int, rows)
	}
	out = out[:rows]
	for i := 0; i < rows; i++ {
		row := t.Data[i*cols : (i+1)*cols]
		best := 0
		for j, v := range row {
			if v > row[best] {
				best = j
			}
		}
		out[i] = best
	}
	return out
}
