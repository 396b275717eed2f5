// Package nn implements the DNN substrate of the reproduction: layers with
// explicit forward/backward passes, the ResNet-20 and VGG-11 architectures
// the paper evaluates, an SGD trainer, and cross-entropy loss. Gradients
// with respect to weights — required by the progressive bit search of the
// Bit-Flip Attack — come out of the same backward pass used for training.
//
// Convolutions lower channel-major: Conv2D builds colsᵀ, one row per
// kernel tap, and computes W·colsᵀ (forward), Wᵀ·g (input gradient) and
// g·(colsᵀ)ᵀ (weight gradient), so every layout move between the GEMMs
// and the (N, C, H, W) activations is a block copy of one image plane.
//
// Memory discipline: the attack/defense loops re-evaluate the same
// networks thousands of times, so the hot path must not allocate. Every
// layer owns its activation and gradient buffers and reuses them across
// steps (tensor.Ensure), transient GEMM outputs come from the shared
// scratch pool (tensor.GetScratch/PutScratch), and conv layers keep their
// colsᵀ matrix alive between steps. The contract this buys is: a tensor
// returned by Forward or Backward is owned by the layer and valid only
// until that layer's next Forward/Backward call — callers that need
// persistence must Clone.
package nn

import (
	"fmt"
	"math"

	"repro/internal/par"
	"repro/internal/stats"
	"repro/internal/tensor"
)

// bnMinWork is the minimum per-chunk element count before the BatchNorm
// channel loops fan out goroutines (the kernels are ~8 flops/element).
const bnMinWork = 1 << 13

// Param is one learnable parameter with its gradient accumulator.
type Param struct {
	Name string
	W    *tensor.Tensor
	Grad *tensor.Tensor
	// NoDecay excludes the parameter from weight decay (biases, BN).
	NoDecay bool
	// Quantizable marks weight matrices eligible for 8-bit quantization
	// and therefore exposed to the bit-flip attack surface.
	Quantizable bool
}

// newParam allocates a parameter and its gradient.
func newParam(name string, shape ...int) *Param {
	return &Param{Name: name, W: tensor.New(shape...), Grad: tensor.New(shape...)}
}

// Layer is a differentiable module.
type Layer interface {
	// Forward computes the layer output; train toggles training behaviour
	// (BatchNorm statistics). Implementations cache what Backward needs.
	// The returned tensor is a layer-owned buffer, valid until the next
	// Forward call on this layer.
	Forward(x *tensor.Tensor, train bool) *tensor.Tensor
	// Backward consumes dL/dout and returns dL/din, accumulating dL/dW
	// into the layer's parameter gradients. The returned tensor is a
	// layer-owned buffer, valid until the next Backward call.
	Backward(grad *tensor.Tensor) *tensor.Tensor
	// Params lists learnable parameters (may be empty).
	Params() []*Param
	// Name identifies the layer instance.
	Name() string
}

// --- Conv2D -------------------------------------------------------------------

// Conv2D is a 2-D convolution with square kernels, implemented by a
// channel-major im2col lowering to matrix multiplication: the input is
// lowered to colsᵀ (InC*K*K, N*oh*ow) and the output is W·colsᵀ, one row
// per output channel. The colsᵀ matrix and the output / input-gradient
// buffers persist across steps.
type Conv2D struct {
	LayerName           string
	InC, OutC           int
	Kernel, Stride, Pad int

	Weight *Param // (OutC, InC*K*K)

	// cached forward state and reusable buffers
	cols       *tensor.Tensor
	out        *tensor.Tensor
	dx         *tensor.Tensor
	inShape    []int
	outH, outW int
}

// NewConv2D constructs a convolution layer with Kaiming init.
func NewConv2D(name string, inC, outC, kernel, stride, pad int, rng *stats.RNG) *Conv2D {
	c := &Conv2D{
		LayerName: name, InC: inC, OutC: outC,
		Kernel: kernel, Stride: stride, Pad: pad,
	}
	c.Weight = newParam(name+".weight", outC, inC*kernel*kernel)
	c.Weight.Quantizable = true
	c.Weight.W.KaimingInit(rng, inC*kernel*kernel)
	return c
}

// Name implements Layer.
func (c *Conv2D) Name() string { return c.LayerName }

// Params implements Layer.
func (c *Conv2D) Params() []*Param { return []*Param{c.Weight} }

// Forward implements Layer.
func (c *Conv2D) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	if len(x.Shape) != 4 || x.Shape[1] != c.InC {
		panic(fmt.Sprintf("nn: %s expects (N,%d,H,W), got %v", c.LayerName, c.InC, x.Shape))
	}
	n := x.Shape[0]
	outH, outW := tensor.ConvOutDims(x.Shape[2], x.Shape[3], c.Kernel, c.Kernel, c.Stride, c.Pad)
	c.inShape = append(c.inShape[:0], x.Shape...)
	c.outH, c.outW = outH, outW
	hw := outH * outW
	nhw := n * hw
	c.cols = tensor.Ensure(c.cols, c.InC*c.Kernel*c.Kernel, nhw)
	tensor.Im2ColInto(c.cols, x, c.Kernel, c.Kernel, c.Stride, c.Pad)

	// (outC, inC*k*k) x (inC*k*k, N*oh*ow) = W·colsᵀ, one row per output
	// channel; each image's plane of a row is then one block copy into
	// (N, outC, oh, ow).
	out2 := tensor.GetScratch(c.OutC, nhw)
	tensor.MatMulInto(out2, c.Weight.W, c.cols)
	c.out = tensor.Ensure(c.out, n, c.OutC, outH, outW)
	for oc := 0; oc < c.OutC; oc++ {
		for img := 0; img < n; img++ {
			copy(c.out.Data[(img*c.OutC+oc)*hw:][:hw], out2.Data[oc*nhw+img*hw:])
		}
	}
	tensor.PutScratch(out2)
	return c.out
}

// Backward implements Layer.
func (c *Conv2D) Backward(grad *tensor.Tensor) *tensor.Tensor {
	n := grad.Shape[0]
	hw := c.outH * c.outW
	nhw := n * hw
	// Rearrange grad (N, outC, oh, ow) to (outC, N*oh*ow), one block copy
	// per image plane.
	g2 := tensor.GetScratch(c.OutC, nhw)
	for oc := 0; oc < c.OutC; oc++ {
		for img := 0; img < n; img++ {
			copy(g2.Data[oc*nhw+img*hw:][:hw], grad.Data[(img*c.OutC+oc)*hw:])
		}
	}
	// dW += g2·(colsᵀ)ᵀ -> (outC, inC*k*k), accumulated straight into the
	// gradient tensor with no intermediate.
	tensor.MatMulTransBAcc(c.Weight.Grad, g2, c.cols)
	// dColsᵀ = Wᵀ·g2 -> (inC*k*k, N*oh*ow), scattered back to image space.
	dcols := tensor.GetScratch(c.InC*c.Kernel*c.Kernel, nhw)
	tensor.MatMulTransAInto(dcols, c.Weight.W, g2)
	c.dx = tensor.Ensure(c.dx, c.inShape...)
	tensor.Col2ImInto(c.dx, dcols, c.Kernel, c.Kernel, c.Stride, c.Pad)
	tensor.PutScratch(dcols)
	tensor.PutScratch(g2)
	return c.dx
}

// --- Linear -------------------------------------------------------------------

// Linear is a fully connected layer y = xW^T + b.
type Linear struct {
	LayerName string
	In, Out   int
	Weight    *Param // (Out, In)
	B         *Param // (Out)

	x       *tensor.Tensor
	out, dx *tensor.Tensor
}

// NewLinear constructs a fully connected layer.
func NewLinear(name string, in, out int, rng *stats.RNG) *Linear {
	l := &Linear{LayerName: name, In: in, Out: out}
	l.Weight = newParam(name+".weight", out, in)
	l.Weight.Quantizable = true
	l.Weight.W.KaimingInit(rng, in)
	l.B = newParam(name+".bias", out)
	l.B.NoDecay = true
	return l
}

// Name implements Layer.
func (l *Linear) Name() string { return l.LayerName }

// Params implements Layer.
func (l *Linear) Params() []*Param { return []*Param{l.Weight, l.B} }

// Forward implements Layer.
func (l *Linear) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	if len(x.Shape) != 2 || x.Shape[1] != l.In {
		panic(fmt.Sprintf("nn: %s expects (N,%d), got %v", l.LayerName, l.In, x.Shape))
	}
	l.x = x
	l.out = tensor.Ensure(l.out, x.Shape[0], l.Out)
	tensor.MatMulTransBBiasInto(l.out, x, l.Weight.W, l.B.W.Data) // (N, Out) + b
	return l.out
}

// Backward implements Layer.
func (l *Linear) Backward(grad *tensor.Tensor) *tensor.Tensor {
	// dW += gradᵀ x -> (Out, In)
	tensor.MatMulTransAAcc(l.Weight.Grad, grad, l.x)
	n := grad.Shape[0]
	for i := 0; i < n; i++ {
		row := grad.Data[i*l.Out : (i+1)*l.Out]
		for j := range row {
			l.B.Grad.Data[j] += row[j]
		}
	}
	l.dx = tensor.Ensure(l.dx, n, l.In)
	tensor.MatMulInto(l.dx, grad, l.Weight.W) // (N, In)
	return l.dx
}

// --- ReLU ---------------------------------------------------------------------

// ReLU is the rectified linear activation.
type ReLU struct {
	LayerName string
	out, dx   *tensor.Tensor
}

// NewReLU constructs a ReLU layer.
func NewReLU(name string) *ReLU { return &ReLU{LayerName: name} }

// Name implements Layer.
func (r *ReLU) Name() string { return r.LayerName }

// Params implements Layer.
func (r *ReLU) Params() []*Param { return nil }

// Forward implements Layer.
func (r *ReLU) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	r.out = tensor.Ensure(r.out, x.Shape...)
	out := r.out.Data[:len(x.Data)]
	for i, v := range x.Data {
		out[i] = relu(v)
	}
	return r.out
}

// Backward implements Layer. The forward's output is the mask: the
// gradient passes where it is not +0.
func (r *ReLU) Backward(grad *tensor.Tensor) *tensor.Tensor {
	r.dx = tensor.Ensure(r.dx, grad.Shape...)
	dx, out := r.dx.Data[:len(grad.Data)], r.out.Data[:len(grad.Data)]
	for i, g := range grad.Data {
		dx[i] = reluGrad(g, out[i])
	}
	return r.dx
}

// relu returns +0 where v <= 0 (−0 included) and v elsewhere, NaN bits
// untouched. The choice is a select on v's bits, which the compiler
// emits as a conditional move instead of a branch that mispredicts on
// every sign change.
func relu(v float32) float32 {
	b := math.Float32bits(v)
	if v <= 0 {
		b = 0
	}
	return math.Float32frombits(b)
}

// reluGrad returns g where out, relu's output, is not +0 and +0 where it
// is: the mask o|−o has its sign bit set exactly when o != 0.
func reluGrad(g, out float32) float32 {
	o := math.Float32bits(out)
	return math.Float32frombits(math.Float32bits(g) & uint32(int32(o|-o)>>31))
}

// --- BatchNorm2D --------------------------------------------------------------

// BatchNorm2D normalises per channel over (N, H, W) with learnable scale
// and shift, tracking running statistics for inference. The per-channel
// mean/variance reductions are independent, so channels are processed in
// parallel under the worker budget; each channel's accumulation order is
// fixed, keeping results bit-identical at any budget.
type BatchNorm2D struct {
	LayerName string
	C         int
	Momentum  float64
	Eps       float64
	// FreezeStats suppresses running-statistics updates during train-mode
	// forwards. The bit-flip attack sets this while computing gradients so
	// that probing the model does not perturb its inference behaviour.
	FreezeStats bool

	Gamma *Param
	Beta  *Param

	RunningMean []float64
	RunningVar  []float64

	// cached forward state and reusable buffers
	xhat    *tensor.Tensor
	out, dx *tensor.Tensor
	invStd  []float64
	inShape []int
}

// NewBatchNorm2D constructs a batch normalisation layer.
func NewBatchNorm2D(name string, c int) *BatchNorm2D {
	bn := &BatchNorm2D{
		LayerName: name, C: c, Momentum: 0.1, Eps: 1e-5,
		Gamma: newParam(name+".gamma", c), Beta: newParam(name+".beta", c),
		RunningMean: make([]float64, c), RunningVar: make([]float64, c),
	}
	bn.Gamma.NoDecay = true
	bn.Beta.NoDecay = true
	bn.Gamma.W.Fill(1)
	for i := range bn.RunningVar {
		bn.RunningVar[i] = 1
	}
	return bn
}

// Name implements Layer.
func (bn *BatchNorm2D) Name() string { return bn.LayerName }

// Params implements Layer.
func (bn *BatchNorm2D) Params() []*Param { return []*Param{bn.Gamma, bn.Beta} }

// Forward implements Layer.
func (bn *BatchNorm2D) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	if len(x.Shape) != 4 || x.Shape[1] != bn.C {
		panic(fmt.Sprintf("nn: %s expects (N,%d,H,W), got %v", bn.LayerName, bn.C, x.Shape))
	}
	n, c, h, w := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	hw := h * w
	bn.out = tensor.Ensure(bn.out, n, c, h, w)
	bn.inShape = append(bn.inShape[:0], x.Shape...)
	grain := par.Grain(n*hw*8, bnMinWork)
	if train {
		bn.xhat = tensor.Ensure(bn.xhat, n, c, h, w)
		if cap(bn.invStd) < c {
			bn.invStd = make([]float64, c)
		}
		bn.invStd = bn.invStd[:c]
		if par.WorthIt(c, grain) {
			par.For(c, grain, func(lo, hi int) { bn.forwardTrain(x, lo, hi) })
		} else {
			bn.forwardTrain(x, 0, c)
		}
		return bn.out
	}
	if par.WorthIt(c, grain) {
		par.For(c, grain, func(lo, hi int) { bn.forwardEval(x, lo, hi) })
	} else {
		bn.forwardEval(x, 0, c)
	}
	return bn.out
}

// forwardTrain normalises channels [c0,c1) with batch statistics. Each
// channel's reduction runs in the same order as the serial code, so the
// parallel split cannot change a bit of the output.
func (bn *BatchNorm2D) forwardTrain(x *tensor.Tensor, c0, c1 int) {
	n, c := bn.inShape[0], bn.inShape[1]
	hw := bn.inShape[2] * bn.inShape[3]
	cnt := float64(n * hw)
	for ch := c0; ch < c1; ch++ {
		var mean float64
		for img := 0; img < n; img++ {
			base := (img*c + ch) * hw
			row := x.Data[base : base+hw]
			for _, v := range row {
				mean += float64(v)
			}
		}
		mean /= cnt
		var variance float64
		for img := 0; img < n; img++ {
			base := (img*c + ch) * hw
			row := x.Data[base : base+hw]
			for _, v := range row {
				d := float64(v) - mean
				variance += float64(d * d)
			}
		}
		variance /= cnt
		if !bn.FreezeStats {
			bn.RunningMean[ch] = float64((1-bn.Momentum)*bn.RunningMean[ch]) + float64(bn.Momentum*mean)
			bn.RunningVar[ch] = float64((1-bn.Momentum)*bn.RunningVar[ch]) + float64(bn.Momentum*variance)
		}
		inv := 1 / math.Sqrt(variance+bn.Eps)
		bn.invStd[ch] = inv
		g := float64(bn.Gamma.W.Data[ch])
		b := float64(bn.Beta.W.Data[ch])
		for img := 0; img < n; img++ {
			base := (img*c + ch) * hw
			for p := 0; p < hw; p++ {
				xh := (float64(x.Data[base+p]) - mean) * inv
				bn.xhat.Data[base+p] = float32(xh)
				bn.out.Data[base+p] = float32(float64(g*xh) + b)
			}
		}
	}
}

// forwardEval normalises channels [c0,c1) with running statistics.
func (bn *BatchNorm2D) forwardEval(x *tensor.Tensor, c0, c1 int) {
	n, c := bn.inShape[0], bn.inShape[1]
	hw := bn.inShape[2] * bn.inShape[3]
	for ch := c0; ch < c1; ch++ {
		inv := 1 / math.Sqrt(bn.RunningVar[ch]+bn.Eps)
		mean := bn.RunningMean[ch]
		g := float64(bn.Gamma.W.Data[ch])
		b := float64(bn.Beta.W.Data[ch])
		for img := 0; img < n; img++ {
			base := (img*c + ch) * hw
			for p := 0; p < hw; p++ {
				bn.out.Data[base+p] = float32(float64(g*(float64(x.Data[base+p])-mean)*inv) + b)
			}
		}
	}
}

// Backward implements Layer (training-mode gradient).
func (bn *BatchNorm2D) Backward(grad *tensor.Tensor) *tensor.Tensor {
	n, c := bn.inShape[0], bn.inShape[1]
	hw := bn.inShape[2] * bn.inShape[3]
	bn.dx = tensor.Ensure(bn.dx, bn.inShape...)
	grain := par.Grain(n*hw*10, bnMinWork)
	if par.WorthIt(c, grain) {
		par.For(c, grain, func(lo, hi int) { bn.backwardChannels(grad, lo, hi) })
	} else {
		bn.backwardChannels(grad, 0, c)
	}
	return bn.dx
}

// backwardChannels computes the training-mode gradient for channels
// [c0,c1). Channels write disjoint slices of dx and distinct Gamma/Beta
// gradient elements, so parallel execution is race-free and exact.
func (bn *BatchNorm2D) backwardChannels(grad *tensor.Tensor, c0, c1 int) {
	n, c := bn.inShape[0], bn.inShape[1]
	hw := bn.inShape[2] * bn.inShape[3]
	cnt := float64(n * hw)
	for ch := c0; ch < c1; ch++ {
		var sumG, sumGX float64
		for img := 0; img < n; img++ {
			base := (img*c + ch) * hw
			for p := 0; p < hw; p++ {
				g := float64(grad.Data[base+p])
				sumG += g
				sumGX += float64(g * float64(bn.xhat.Data[base+p]))
			}
		}
		bn.Beta.Grad.Data[ch] += float32(sumG)
		bn.Gamma.Grad.Data[ch] += float32(sumGX)
		// gamma*inv*(g - sumG/cnt - xh*sumGX/cnt), with the per-channel
		// factor and mean hoisted: the same operands in the same order.
		// (xh*sumGX)/cnt has no exact rewrite, so it stays per element.
		scale := float64(bn.Gamma.W.Data[ch]) * bn.invStd[ch]
		meanG := sumG / cnt
		for img := 0; img < n; img++ {
			base := (img*c + ch) * hw
			for p := 0; p < hw; p++ {
				g := float64(grad.Data[base+p])
				xh := float64(bn.xhat.Data[base+p])
				bn.dx.Data[base+p] = float32(scale * (g - meanG - xh*sumGX/cnt))
			}
		}
	}
}

// --- Pooling ------------------------------------------------------------------

// MaxPool2 is a 2x2 max pooling with stride 2. When the spatial map is
// already down to a single row or column the layer passes through
// unchanged, so fixed architectures (VGG's five pool stages) accept small
// inputs.
type MaxPool2 struct {
	LayerName string
	argmax    []int
	inShape   []int
	identity  bool
	out, dx   *tensor.Tensor
}

// NewMaxPool2 constructs the pooling layer.
func NewMaxPool2(name string) *MaxPool2 { return &MaxPool2{LayerName: name} }

// Name implements Layer.
func (m *MaxPool2) Name() string { return m.LayerName }

// Params implements Layer.
func (m *MaxPool2) Params() []*Param { return nil }

// Forward implements Layer.
func (m *MaxPool2) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	n, c, h, w := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	m.inShape = append(m.inShape[:0], x.Shape...)
	if h < 2 || w < 2 {
		m.identity = true
		return x
	}
	m.identity = false
	oh, ow := h/2, w/2
	m.out = tensor.Ensure(m.out, n, c, oh, ow)
	if cap(m.argmax) < m.out.Len() {
		m.argmax = make([]int, m.out.Len())
	}
	m.argmax = m.argmax[:m.out.Len()]
	// Each window is read (0,0), (0,1), (1,0), (1,1) and a later element
	// wins only when strictly greater.
	for p := 0; p < n*c; p++ {
		inBase, outBase := p*h*w, p*oh*ow
		for oy := 0; oy < oh; oy++ {
			at := inBase + 2*oy*w // the first element of the window row
			r0, r1 := x.Data[at:at+2*ow], x.Data[at+w:at+w+2*ow]
			out := m.out.Data[outBase+oy*ow : outBase+(oy+1)*ow]
			arg := m.argmax[outBase+oy*ow : outBase+(oy+1)*ow]
			for ox := range out {
				i := 2 * ox
				v, a := pick(r0[i], at+i, r0[i+1], at+i+1)
				v, a = pick(v, a, r1[i], at+w+i)
				out[ox], arg[ox] = pick(v, a, r1[i+1], at+w+i+1)
			}
		}
	}
	return m.out
}

// pick returns (v, j) when v > u and (u, i) otherwise, so a tie or a
// NaN keeps the earlier element. Both results are selected as integers,
// which the compiler emits as conditional moves instead of a branch;
// both float bit patterns are taken before the comparison, as with the
// conversion inside the if it branches.
func pick(u float32, i int, v float32, j int) (float32, int) {
	ub, vb := math.Float32bits(u), math.Float32bits(v)
	if v > u {
		ub, i = vb, j
	}
	return math.Float32frombits(ub), i
}

// Backward implements Layer.
func (m *MaxPool2) Backward(grad *tensor.Tensor) *tensor.Tensor {
	if m.identity {
		return grad
	}
	m.dx = tensor.Ensure(m.dx, m.inShape...)
	m.dx.Zero()
	for o, src := range m.argmax {
		m.dx.Data[src] += grad.Data[o]
	}
	return m.dx
}

// GlobalAvgPool averages each channel map to a single value, producing
// (N, C) from (N, C, H, W).
type GlobalAvgPool struct {
	LayerName string
	inShape   []int
	out, dx   *tensor.Tensor
}

// NewGlobalAvgPool constructs the pooling layer.
func NewGlobalAvgPool(name string) *GlobalAvgPool { return &GlobalAvgPool{LayerName: name} }

// Name implements Layer.
func (g *GlobalAvgPool) Name() string { return g.LayerName }

// Params implements Layer.
func (g *GlobalAvgPool) Params() []*Param { return nil }

// Forward implements Layer.
func (g *GlobalAvgPool) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	n, c, h, w := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	g.inShape = append(g.inShape[:0], x.Shape...)
	g.out = tensor.Ensure(g.out, n, c)
	hw := h * w
	inv := 1 / float32(hw)
	for img := 0; img < n; img++ {
		for ch := 0; ch < c; ch++ {
			base := (img*c + ch) * hw
			var s float32
			for p := 0; p < hw; p++ {
				s += x.Data[base+p]
			}
			g.out.Data[img*c+ch] = s * inv
		}
	}
	return g.out
}

// Backward implements Layer.
func (g *GlobalAvgPool) Backward(grad *tensor.Tensor) *tensor.Tensor {
	n, c := g.inShape[0], g.inShape[1]
	hw := g.inShape[2] * g.inShape[3]
	g.dx = tensor.Ensure(g.dx, g.inShape...)
	inv := 1 / float32(hw)
	for img := 0; img < n; img++ {
		for ch := 0; ch < c; ch++ {
			gv := grad.Data[img*c+ch] * inv
			base := (img*c + ch) * hw
			for p := 0; p < hw; p++ {
				g.dx.Data[base+p] = gv
			}
		}
	}
	return g.dx
}

// Flatten reshapes (N, C, H, W) to (N, C*H*W).
type Flatten struct {
	LayerName string
	inShape   []int
	// cached view headers so reshaping allocates nothing
	view, bview tensor.Tensor
}

// NewFlatten constructs the reshape layer.
func NewFlatten(name string) *Flatten { return &Flatten{LayerName: name} }

// Name implements Layer.
func (f *Flatten) Name() string { return f.LayerName }

// Params implements Layer.
func (f *Flatten) Params() []*Param { return nil }

// Forward implements Layer.
func (f *Flatten) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	f.inShape = append(f.inShape[:0], x.Shape...)
	n := x.Shape[0]
	f.view.Data = x.Data
	f.view.Shape = append(f.view.Shape[:0], n, x.Len()/n)
	return &f.view
}

// Backward implements Layer.
func (f *Flatten) Backward(grad *tensor.Tensor) *tensor.Tensor {
	f.bview.Data = grad.Data
	f.bview.Shape = append(f.bview.Shape[:0], f.inShape...)
	return &f.bview
}
