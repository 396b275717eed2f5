// Package tensor provides the dense float32 tensors and kernels that the
// DNN substrate (internal/nn) is built on: matrix multiplication, the
// channel-major im2col convolution lowering and its adjoint (colsᵀ rows
// built and scattered as contiguous strips), and elementwise operations,
// with deterministic results. Everything is Go except three AVX2 kernels
// on amd64 (matmul_amd64.s): the GEMMs' tiles, the 8×8 transpose of
// A·Bᵀ's B operand and col2im's add. They are selected from the CPU at
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

// Clone deep-copies the tensor.
func (t *Tensor) Clone() *Tensor {
	out := &Tensor{Shape: append([]int(nil), t.Shape...), Data: make([]float32, len(t.Data))}
	copy(out.Data, t.Data)
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

// ConvOutDims returns the spatial output size of a convolution over an
// (H, W) map with the given kernel, stride and padding.
func ConvOutDims(h, w, kh, kw, stride, pad int) (int, int) {
	return (h+2*pad-kh)/stride + 1, (w+2*pad-kw)/stride + 1
}

// Im2ColInto lowers x (N, C, H, W) into colsᵀ, which must have shape
// (C*kh*kw, N*outH*outW): row (ch*kh+ky)*kw+kx holds, for each image in
// turn, the outH×outW plane of channel ch under kernel tap (ky, kx),
// with zeros where the tap falls in the padding. A convolution is then
// W·colsᵀ. Previous contents are overwritten. Rows are lowered in
// parallel; each is a pure copy, so the result is identical at any
// worker budget.
func Im2ColInto(cols, x *Tensor, kh, kw, stride, pad int) {
	n, c, h, w := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	outH, outW := ConvOutDims(h, w, kh, kw, stride, pad)
	rows := c * kh * kw
	checkOut("Im2Col", cols, rows, n*outH*outW)
	if grain := par.Grain(n*outH*outW, copyMinWork); par.WorthIt(rows, grain) {
		par.For(rows, grain, func(lo, hi int) {
			im2colRows(cols.Data, x.Data, lo, hi, n, c, h, w, kh, kw, stride, pad)
		})
		return
	}
	im2colRows(cols.Data, x.Data, 0, rows, n, c, h, w, kh, kw, stride, pad)
}

// im2colRows fills rows [r0, r1) of colsᵀ.
func im2colRows(cols, x []float32, r0, r1, n, c, h, w, kh, kw, stride, pad int) {
	outH, outW := ConvOutDims(h, w, kh, kw, stride, pad)
	hw := outH * outW
	for r := r0; r < r1; r++ {
		ch, ky, kx := r/(kh*kw), r/kw%kh, r%kw
		yLo, yHi := tapRange(ky, h, outH, stride, pad)
		xLo, xHi := tapRange(kx, w, outW, stride, pad)
		for img := 0; img < n; img++ {
			dst := cols[(r*n+img)*hw : (r*n+img+1)*hw]
			src := x[(img*c+ch)*h*w : (img*c+ch+1)*h*w]
			clear(dst[:yLo*outW])
			clear(dst[yHi*outW:])
			if stride == 1 && outW == w {
				// Output (oy, ox) reads input element oy*w+ox+shift, so the
				// rows [yLo, yHi) are one shifted block copy, clipped to the
				// plane. The copy wraps each row's border columns around from
				// the neighbouring input rows; they are padding and are
				// zeroed after.
				shift := (ky-pad)*w + kx - pad
				if lo, hi := max(yLo*w, -shift), min(yHi*w, h*w-shift); lo < hi {
					copy(dst[lo:hi], src[lo+shift:hi+shift])
				}
				zeroPadColumns(dst, w, xLo, xHi, yLo, yHi)
				continue
			}
			for oy := yLo; oy < yHi; oy++ {
				row := dst[oy*outW : oy*outW+outW]
				in := src[(oy*stride-pad+ky)*w:][:w]
				clear(row[:xLo])
				clear(row[xHi:])
				if stride == 1 && xLo < xHi {
					copy(row[xLo:xHi], in[xLo-pad+kx:])
					continue
				}
				for ox := xLo; ox < xHi; ox++ {
					row[ox] = in[ox*stride-pad+kx]
				}
			}
		}
	}
}

// zeroPadColumns zeroes columns [0, xLo) and [xHi, w) of the rows
// [yLo, yHi) of a plane w wide: the entries of a stride-1 "same" tap
// that fall in the padding, which its shifted copy or add wraps around
// from the neighbouring rows. A tap has at most pad such columns a side,
// so each goes down the rows with a strided loop, and a tap with none
// costs nothing.
func zeroPadColumns(plane []float32, w, xLo, xHi, yLo, yHi int) {
	rows := plane[yLo*w : yHi*w]
	for ox := 0; ox < xLo; ox++ {
		for i := ox; i < len(rows); i += w {
			rows[i] = 0
		}
	}
	for ox := xHi; ox < w; ox++ {
		for i := ox; i < len(rows); i += w {
			rows[i] = 0
		}
	}
}

// tapRange returns the output positions [lo, hi) along one axis whose
// input position o*stride-pad+t, for kernel offset t, lies in [0, size),
// that is pad-t <= o*stride < size+pad-t; outSize is the axis's output
// length. It returns 0, 0 when there is none.
func tapRange(t, size, outSize, stride, pad int) (lo, hi int) {
	lo, hi = pad-t, size+pad-t
	if stride > 1 {
		lo, hi = ceilDiv(lo, stride), ceilDiv(hi, stride)
	}
	lo, hi = max(lo, 0), min(hi, outSize)
	if lo >= hi {
		return 0, 0
	}
	return lo, hi
}

// ceilDiv returns ⌈a/b⌉ for b > 0 and any sign of a; Go's division
// truncates toward zero, which rounds up only for negative quotients.
func ceilDiv(a, b int) int {
	if a <= 0 {
		return a / b
	}
	return (a + b - 1) / b
}

// Col2ImInto scatters colsᵀ (shape (C*kh*kw, N*outH*outW)) into x
// (shape (N, C, H, W)), overwriting its previous contents. Every x
// element adds its terms in ascending (oy, ox) order, starting from
// zero: the order that the training bits pinned in internal/nn's tests
// and bench/golden.json were computed in. For a stride-1 convolution
// with outW == W it also writes zeros over entries of cols whose tap
// falls in the padding columns: gradients with respect to the zero
// padding, which nothing reads. Every entry whose tap falls inside the
// image is left as it was. The (image, channel) planes scatter in
// parallel: each belongs to one worker, so the result is identical at
// any worker budget.
func Col2ImInto(x, cols *Tensor, kh, kw, stride, pad int) {
	n, c, h, w := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	outH, outW := ConvOutDims(h, w, kh, kw, stride, pad)
	checkOut("Col2Im", cols, c*kh*kw, n*outH*outW)
	planes := n * c
	if grain := par.Grain(kh*kw*outH*outW, copyMinWork); par.WorthIt(planes, grain) {
		par.For(planes, grain, func(lo, hi int) {
			col2imPlanes(x.Data, cols.Data, lo, hi, n, c, h, w, kh, kw, stride, pad)
		})
		return
	}
	col2imPlanes(x.Data, cols.Data, 0, planes, n, c, h, w, kh, kw, stride, pad)
}

// col2imPlanes clears and scatters the planes [p0, p1) of x, plane
// img*c+ch, one tap row of colsᵀ at a time. The taps go in descending
// (ky, kx) order: the terms an x element receives come from
// oy = (iy+pad-ky)/stride and ox = (ix+pad-kx)/stride, so that is
// ascending (oy, ox) order for every element. A stride-1 convolution
// with outW == w adds each tap with one shifted add (addShifted); every
// other convolution adds one strip over ox per output row.
func col2imPlanes(x, cols []float32, p0, p1, n, c, h, w, kh, kw, stride, pad int) {
	outH, outW := ConvOutDims(h, w, kh, kw, stride, pad)
	hw := outH * outW
	for p := p0; p < p1; p++ {
		img, ch := p/c, p%c
		plane := x[p*h*w : (p+1)*h*w]
		clear(plane)
		for ky := kh - 1; ky >= 0; ky-- {
			yLo, yHi := tapRange(ky, h, outH, stride, pad)
			for kx := kw - 1; kx >= 0; kx-- {
				xLo, xHi := tapRange(kx, w, outW, stride, pad)
				if xLo == xHi {
					continue
				}
				src := cols[(((ch*kh+ky)*kw+kx)*n+img)*hw:][:hw]
				if stride == 1 && outW == w {
					addShifted(plane, src, w, (ky-pad)*w+kx-pad, xLo, xHi, yLo, yHi)
					continue
				}
				for oy := yLo; oy < yHi; oy++ {
					in := src[oy*outW+xLo : oy*outW+xHi]
					out := plane[(oy*stride-pad+ky)*w:][:w]
					if stride == 1 {
						out = out[xLo-pad+kx:][:len(in)]
						for i, v := range in {
							out[i] += v
						}
						continue
					}
					for i, v := range in {
						out[(xLo+i)*stride-pad+kx] += v
					}
				}
			}
		}
	}
}

// addShifted adds one stride-1 "same" tap's rows [yLo, yHi) of src, a
// colsᵀ plane w wide, into plane, where element i lands on input element
// i+shift: one shifted add, the adjoint of im2colRows' block copy. The
// add wraps each row's padding entries onto the neighbouring input
// rows, so they are zeroed first. A zero adds nothing: the plane starts
// at +0, a sum that starts at +0 never becomes −0 under round-to-nearest,
// and x + (+0) = x for every other x, NaN payloads included. On AVX2 the
// add is addTo, a rounded VADDPS per element with the plane as the first
// source, as in `out[i] += in[i]`; the len%8 tail and other CPUs take
// the Go loop.
func addShifted(plane, src []float32, w, shift, xLo, xHi, yLo, yHi int) {
	zeroPadColumns(src, w, xLo, xHi, yLo, yHi)
	lo, hi := max(yLo*w, -shift), min(yHi*w, len(plane)-shift)
	if lo >= hi {
		return
	}
	in, out := src[lo:hi], plane[lo+shift:hi+shift]
	i := 0
	if useAVX2 && len(in) >= 8 {
		i = len(in) &^ 7
		addTo(&out[0], &in[0], i)
	}
	for ; i < len(in); i++ {
		out[i] += in[i]
	}
}

// ArgMaxRowInto writes the index of the maximum element in each row of a
// 2-D tensor (class predictions from logits) into dst, which is grown
// only when its capacity is short — evaluation loops pass the previous
// batch's slice back in so per-batch predictions cost no allocation.
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
