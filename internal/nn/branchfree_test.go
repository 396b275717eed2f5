package nn

import (
	"math"
	"testing"

	"repro/internal/stats"
	"repro/internal/tensor"
)

// The branch-free ReLU, fused residual ReLU and max pooling must give the
// bits the branchy loops they replaced gave, on every input. The
// reference* functions below are those loops, kept as the golden model.

// referenceReLU is the branchy ReLU forward: +0 where v <= 0, v
// elsewhere, and the mask Backward reads.
func referenceReLU(x []float32) (out []float32, mask []bool) {
	out, mask = make([]float32, len(x)), make([]bool, len(x))
	for i, v := range x {
		if v <= 0 {
			out[i] = 0
		} else {
			out[i] = v
			mask[i] = true
		}
	}
	return out, mask
}

// referenceReLUBackward passes grad where mask holds and writes 0
// elsewhere.
func referenceReLUBackward(grad []float32, mask []bool) []float32 {
	dx := make([]float32, len(grad))
	for i, v := range grad {
		if mask[i] {
			dx[i] = v
		} else {
			dx[i] = 0
		}
	}
	return dx
}

// referenceMaxPool2 is the branchy 2×2 max pool: each window starts at
// its (0,0) element and scans (0,0), (0,1), (1,0), (1,1), moving on a
// strict >.
func referenceMaxPool2(x *tensor.Tensor) (out []float32, argmax []int) {
	n, c, h, w := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	oh, ow := h/2, w/2
	out, argmax = make([]float32, n*c*oh*ow), make([]int, n*c*oh*ow)
	for img := 0; img < n; img++ {
		for ch := 0; ch < c; ch++ {
			inBase := (img*c + ch) * h * w
			outBase := (img*c + ch) * oh * ow
			for oy := 0; oy < oh; oy++ {
				for ox := 0; ox < ow; ox++ {
					best := inBase + (2*oy)*w + 2*ox
					bv := x.Data[best]
					for dy := 0; dy < 2; dy++ {
						for dx := 0; dx < 2; dx++ {
							idx := inBase + (2*oy+dy)*w + 2*ox + dx
							if x.Data[idx] > bv {
								bv = x.Data[idx]
								best = idx
							}
						}
					}
					o := outBase + oy*ow + ox
					out[o] = bv
					argmax[o] = best
				}
			}
		}
	}
	return out, argmax
}

// referenceMaxPool2Backward routes each output gradient to its argmax.
func referenceMaxPool2Backward(grad []float32, argmax []int, inLen int) []float32 {
	dx := make([]float32, inLen)
	for o, src := range argmax {
		dx[src] += grad[o]
	}
	return dx
}

// specials are the values the select logic must treat as the branchy
// code did: NaNs of both signs and with payloads, both zeros, both
// infinities, the smallest subnormals and ordinary values.
var specials = []float32{
	float32(math.NaN()),
	math.Float32frombits(0xffc00000), // NaN with the sign bit set
	math.Float32frombits(0x7f800001), // signalling-pattern NaN
	math.Float32frombits(0xffffffff),
	0, float32(math.Copysign(0, -1)),
	float32(math.Inf(1)), float32(math.Inf(-1)),
	math.Float32frombits(1), math.Float32frombits(0x80000001),
	1, -1, 0.5, -0.5,
}

// specialTensor fills a tensor of the given shape with normal values
// and every special value, several times over.
func specialTensor(seed uint64, shape ...int) *tensor.Tensor {
	x := tensor.New(shape...)
	x.RandNormal(stats.NewRNG(seed), 1)
	for i := 0; i < len(x.Data); i += 3 {
		x.Data[i] = specials[(i/3)%len(specials)]
	}
	return x
}

// sameBits fails unless got and want hold the same float32 bits.
func sameBits(t *testing.T, label string, got, want []float32) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d values, want %d", label, len(got), len(want))
	}
	for i := range got {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			t.Fatalf("%s[%d] = %#08x, want %#08x", label, i, math.Float32bits(got[i]), math.Float32bits(want[i]))
		}
	}
}

func TestReLUMatchesBranchyReference(t *testing.T) {
	x := specialTensor(1, 2, 3, 5, 7)
	grad := specialTensor(2, 2, 3, 5, 7)
	r := NewReLU("relu")
	for _, train := range []bool{true, false} {
		wantOut, mask := referenceReLU(x.Data)
		sameBits(t, "forward", r.Forward(x, train).Data, wantOut)
		sameBits(t, "backward", r.Backward(grad).Data, referenceReLUBackward(grad.Data, mask))
	}
}

// TestBasicBlockReLUMatchesBranchyReference checks the block's fused
// residual ReLU: the output against the branchy loop over the main
// branch's output plus the identity shortcut, and the gradient handed
// to the branches against the branchy mask. With the second BatchNorm's
// scale and shift at 0 the main branch is +0 wherever no NaN or
// infinity reached it, so the sums there are the input's own specials.
// A training forward gets no NaN or infinity, which would turn whole
// channels' batch statistics into NaN. The backward after an inference
// forward reuses the training forward's BatchNorm state; only the
// gradient handed to the branches is checked.
func TestBasicBlockReLUMatchesBranchyReference(t *testing.T) {
	for _, zeroMain := range []bool{false, true} {
		b := NewBasicBlock("block", 4, 4, 1, stats.NewRNG(3))
		if zeroMain {
			b.BN2.Gamma.W.Fill(0)
			b.BN2.Beta.W.Fill(0)
		}
		for _, train := range []bool{true, false} {
			x := specialTensor(4, 2, 4, 5, 7)
			for i, v := range x.Data {
				if train && (v != v || math.IsInf(float64(v), 0)) {
					x.Data[i] = 0.25
				}
			}
			grad := specialTensor(5, 2, 4, 5, 7)
			out := b.Forward(x, train)
			sum := make([]float32, len(x.Data))
			for i := range sum {
				sum[i] = b.BN2.out.Data[i] + x.Data[i]
			}
			wantOut, mask := referenceReLU(sum)
			sameBits(t, "forward", out.Data, wantOut)
			b.Backward(grad)
			sameBits(t, "backward", b.g.Data, referenceReLUBackward(grad.Data, mask))
		}
	}
}

// poolTies fills the first windows of every plane of x with ties and
// specials: 2-, 3- and 4-way ties, +0 against −0 in both orders, a NaN
// at each of the four positions, and infinities.
func poolTies(x *tensor.Tensor) {
	w := x.Shape[3]
	windows := [][4]float32{
		{1, 1, 0, 0}, {0, 1, 1, 0}, {0, 0, 1, 1}, // 2-way
		{2, 2, 2, 0}, {0, 2, 2, 2}, // 3-way
		{3, 3, 3, 3}, // 4-way
		{specials[4], specials[5], specials[5], specials[4]}, // +0, −0, −0, +0
		{specials[5], specials[4], specials[4], specials[5]},
		{specials[0], 1, 2, 3}, {1, specials[1], 0, 3}, {3, 2, specials[2], 1}, {0, 0, 0, specials[3]},
		{specials[6], 1, specials[6], 2}, {specials[7], specials[7], specials[7], specials[7]},
		{specials[7], specials[0], specials[6], 1},
	}
	planes := x.Shape[0] * x.Shape[1]
	hw := x.Shape[2] * w
	for p := 0; p < planes; p++ {
		for k, win := range windows {
			oy, ox := k/(w/2), k%(w/2)
			if 2*oy+1 >= x.Shape[2] {
				break
			}
			at := p*hw + 2*oy*w + 2*ox
			x.Data[at], x.Data[at+1], x.Data[at+w], x.Data[at+w+1] = win[0], win[1], win[2], win[3]
		}
	}
}

func TestMaxPool2MatchesBranchyReference(t *testing.T) {
	for _, shape := range [][4]int{{2, 3, 8, 8}, {2, 3, 7, 9}, {1, 2, 9, 5}} {
		x := specialTensor(6, shape[:]...)
		poolTies(x)
		m := NewMaxPool2("pool")
		wantOut, argmax := referenceMaxPool2(x)
		out := m.Forward(x, true)
		sameBits(t, "forward", out.Data, wantOut)
		for o := range argmax {
			if m.argmax[o] != argmax[o] {
				t.Fatalf("%v: argmax[%d] = %d, want %d", shape, o, m.argmax[o], argmax[o])
			}
		}
		grad := specialTensor(7, out.Shape...)
		sameBits(t, "backward", m.Backward(grad).Data, referenceMaxPool2Backward(grad.Data, argmax, len(x.Data)))
	}
	// A map down to one row or column passes through both ways.
	for _, shape := range [][4]int{{2, 3, 1, 5}, {2, 3, 4, 1}} {
		x := specialTensor(8, shape[:]...)
		m := NewMaxPool2("pool")
		if out := m.Forward(x, true); out != x {
			t.Fatalf("%v: forward is not the identity", shape)
		}
		if grad := specialTensor(9, shape[:]...); m.Backward(grad) != grad {
			t.Fatalf("%v: backward is not the identity", shape)
		}
	}
}
