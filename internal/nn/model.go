package nn

import (
	"fmt"

	"repro/internal/stats"
	"repro/internal/tensor"
)

// Model is a network assembled from layers with a single forward path plus
// residual blocks (which are themselves composite layers).
type Model struct {
	ModelName string
	Layers    []Layer

	// lazily built caches; layer topology is fixed after construction,
	// and caching keeps ZeroGrad/Step/GradientPass off the allocator.
	params []*Param
	bns    []*BatchNorm2D
	// bnFreeze is GradientPass's reusable FreezeStats save-area.
	bnFreeze []bool
}

// Name returns the model identifier.
func (m *Model) Name() string { return m.ModelName }

// Params returns every learnable parameter in layer order. The slice is
// built once and cached — the layer list must not change afterwards.
func (m *Model) Params() []*Param {
	if m.params == nil {
		for _, l := range m.Layers {
			m.params = append(m.params, l.Params()...)
		}
	}
	return m.params
}

// QuantizableParams returns the weight matrices exposed to the bit-flip
// attack surface (conv and linear weights).
func (m *Model) QuantizableParams() []*Param {
	var out []*Param
	for _, p := range m.Params() {
		if p.Quantizable {
			out = append(out, p)
		}
	}
	return out
}

// NumParams counts scalar parameters.
func (m *Model) NumParams() int {
	n := 0
	for _, p := range m.Params() {
		n += p.W.Len()
	}
	return n
}

// container is implemented by composite layers that own sub-layers.
type container interface{ Children() []Layer }

// Walk visits every layer depth-first, including sub-layers of composite
// blocks.
func (m *Model) Walk(visit func(Layer)) {
	var rec func(l Layer)
	rec = func(l Layer) {
		visit(l)
		if c, ok := l.(container); ok {
			for _, ch := range c.Children() {
				rec(ch)
			}
		}
	}
	for _, l := range m.Layers {
		rec(l)
	}
}

// BatchNorms returns every BatchNorm2D in the model, including those
// inside residual blocks. Cached like Params.
func (m *Model) BatchNorms() []*BatchNorm2D {
	if m.bns == nil {
		m.Walk(func(l Layer) {
			if bn, ok := l.(*BatchNorm2D); ok {
				m.bns = append(m.bns, bn)
			}
		})
	}
	return m.bns
}

// CopyStateFrom copies src's learnable state into m: every parameter's
// values and every BatchNorm's running statistics, matched by position.
// Both models must come from one constructor with the same arguments
// but the seed; a count or length mismatch panics.
func (m *Model) CopyStateFrom(src *Model) {
	ps, sps := m.Params(), src.Params()
	bns, sbns := m.BatchNorms(), src.BatchNorms()
	if len(ps) != len(sps) || len(bns) != len(sbns) {
		panic(fmt.Sprintf("nn: copying %s (%d params, %d batch norms) into %s (%d, %d)",
			src.ModelName, len(sps), len(sbns), m.ModelName, len(ps), len(bns)))
	}
	for i, p := range ps {
		copyExact(p.Name, p.W.Data, sps[i].W.Data)
	}
	for i, bn := range bns {
		copyExact(bn.LayerName, bn.RunningMean, sbns[i].RunningMean)
		copyExact(bn.LayerName, bn.RunningVar, sbns[i].RunningVar)
	}
}

// copyExact copies src into dst, which must have src's length.
func copyExact[T any](name string, dst, src []T) {
	if len(dst) != len(src) {
		panic(fmt.Sprintf("nn: %s holds %d values, its source %d", name, len(dst), len(src)))
	}
	copy(dst, src)
}

// Forward runs the full network.
func (m *Model) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	return m.ForwardFrom(0, x, train, nil)
}

// ForwardFrom runs layers [i, end) on x, the input of layer i, and
// returns the network's output. A non-nil keep holds one slot per
// layer: before each later layer l whose slot is non-nil runs, its
// input is copied into keep[l] (resized to fit), so a later call can
// restart at l with every layer before it unchanged.
func (m *Model) ForwardFrom(i int, x *tensor.Tensor, train bool, keep []*tensor.Tensor) *tensor.Tensor {
	for l := i; l < len(m.Layers); l++ {
		if l > i && keep != nil && keep[l] != nil {
			copy(tensor.Ensure(keep[l], x.Shape...).Data, x.Data)
		}
		x = m.Layers[l].Forward(x, train)
	}
	return x
}

// Backward back-propagates from the loss gradient.
func (m *Model) Backward(grad *tensor.Tensor) *tensor.Tensor {
	for i := len(m.Layers) - 1; i >= 0; i-- {
		grad = m.Layers[i].Backward(grad)
	}
	return grad
}

// ZeroGrad clears all parameter gradients.
func (m *Model) ZeroGrad() {
	for _, p := range m.Params() {
		p.Grad.Zero()
	}
}

// --- Residual block ------------------------------------------------------------

// BasicBlock is the ResNet v1 basic block: conv-bn-relu-conv-bn plus a
// shortcut (identity, or 1x1 conv when shape changes), followed by ReLU.
type BasicBlock struct {
	LayerName string

	Conv1 *Conv2D
	BN1   *BatchNorm2D
	Relu1 *ReLU
	Conv2 *Conv2D
	BN2   *BatchNorm2D

	// Downsample is nil for identity shortcuts.
	DownConv *Conv2D
	DownBN   *BatchNorm2D

	out, g, dx *tensor.Tensor
}

// NewBasicBlock constructs a basic block from inC to outC with the given
// stride on the first convolution.
func NewBasicBlock(name string, inC, outC, stride int, rng *stats.RNG) *BasicBlock {
	b := &BasicBlock{LayerName: name}
	b.Conv1 = NewConv2D(name+".conv1", inC, outC, 3, stride, 1, rng)
	b.BN1 = NewBatchNorm2D(name+".bn1", outC)
	b.Relu1 = NewReLU(name + ".relu1")
	b.Conv2 = NewConv2D(name+".conv2", outC, outC, 3, 1, 1, rng)
	b.BN2 = NewBatchNorm2D(name+".bn2", outC)
	if stride != 1 || inC != outC {
		b.DownConv = NewConv2D(name+".down.conv", inC, outC, 1, stride, 0, rng)
		b.DownBN = NewBatchNorm2D(name+".down.bn", outC)
	}
	return b
}

// Name implements Layer.
func (b *BasicBlock) Name() string { return b.LayerName }

// Children exposes the block's sub-layers for model traversal.
func (b *BasicBlock) Children() []Layer {
	out := []Layer{b.Conv1, b.BN1, b.Relu1, b.Conv2, b.BN2}
	if b.DownConv != nil {
		out = append(out, b.DownConv, b.DownBN)
	}
	return out
}

// Params implements Layer.
func (b *BasicBlock) Params() []*Param {
	var out []*Param
	out = append(out, b.Conv1.Params()...)
	out = append(out, b.BN1.Params()...)
	out = append(out, b.Conv2.Params()...)
	out = append(out, b.BN2.Params()...)
	if b.DownConv != nil {
		out = append(out, b.DownConv.Params()...)
		out = append(out, b.DownBN.Params()...)
	}
	return out
}

// Forward implements Layer.
func (b *BasicBlock) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	main := b.Conv1.Forward(x, train)
	main = b.BN1.Forward(main, train)
	main = b.Relu1.Forward(main, train)
	main = b.Conv2.Forward(main, train)
	main = b.BN2.Forward(main, train)

	short := x
	if b.DownConv != nil {
		short = b.DownConv.Forward(x, train)
		short = b.DownBN.Forward(short, train)
	}
	if !tensor.SameShape(main, short) {
		panic(fmt.Sprintf("nn: %s residual shape mismatch %v vs %v", b.LayerName, main.Shape, short.Shape))
	}
	// Residual add and final ReLU fused into one pass over the block's
	// reusable output buffer.
	b.out = tensor.Ensure(b.out, main.Shape...)
	out, sd := b.out.Data[:len(main.Data)], short.Data[:len(main.Data)]
	for i, v := range main.Data {
		out[i] = relu(v + sd[i])
	}
	return b.out
}

// Backward implements Layer.
func (b *BasicBlock) Backward(grad *tensor.Tensor) *tensor.Tensor {
	b.g = tensor.Ensure(b.g, grad.Shape...)
	g, out := b.g.Data[:len(grad.Data)], b.out.Data[:len(grad.Data)]
	for i, v := range grad.Data {
		g[i] = reluGrad(v, out[i])
	}
	// Main branch.
	gm := b.BN2.Backward(b.g)
	gm = b.Conv2.Backward(gm)
	gm = b.Relu1.Backward(gm)
	gm = b.BN1.Backward(gm)
	gm = b.Conv1.Backward(gm)
	// Shortcut branch.
	gs := b.g
	if b.DownConv != nil {
		gs = b.DownBN.Backward(b.g)
		gs = b.DownConv.Backward(gs)
	}
	b.dx = tensor.Ensure(b.dx, gm.Shape...)
	for i, v := range gm.Data {
		b.dx.Data[i] = v + gs.Data[i]
	}
	return b.dx
}

// --- Architectures ---------------------------------------------------------------

// scaleC applies a width multiplier with a floor of 2 channels.
func scaleC(c int, width float64) int {
	s := int(float64(c) * width)
	if s < 2 {
		s = 2
	}
	return s
}

// NewResNet20 builds the CIFAR-style ResNet-20 (He et al.): a 3x3 stem
// then three stages of three basic blocks at 16/32/64 channels (scaled by
// width), global average pooling and a linear classifier.
func NewResNet20(classes int, width float64, seed uint64) *Model {
	rng := stats.NewRNG(seed)
	c1, c2, c3 := scaleC(16, width), scaleC(32, width), scaleC(64, width)
	m := &Model{ModelName: fmt.Sprintf("ResNet-20(w=%g)", width)}
	m.Layers = append(m.Layers,
		NewConv2D("stem.conv", 3, c1, 3, 1, 1, rng),
		NewBatchNorm2D("stem.bn", c1),
		NewReLU("stem.relu"),
	)
	stage := func(name string, inC, outC, blocks, stride int) {
		for i := 0; i < blocks; i++ {
			s, ic := 1, outC
			if i == 0 {
				s, ic = stride, inC
			}
			m.Layers = append(m.Layers, NewBasicBlock(fmt.Sprintf("%s.block%d", name, i), ic, outC, s, rng))
		}
	}
	stage("stage1", c1, c1, 3, 1)
	stage("stage2", c1, c2, 3, 2)
	stage("stage3", c2, c3, 3, 2)
	m.Layers = append(m.Layers,
		NewGlobalAvgPool("pool"),
		NewLinear("fc", c3, classes, rng),
	)
	return m
}

// NewVGG11 builds the CIFAR-style VGG-11 with batch normalisation: conv
// widths 64-128-256-256-512-512-512-512 (scaled by width) with max-pool
// stages, global average pooling, and a linear classifier. For 32x32
// inputs the five pools reduce to 1x1 exactly as in the CIFAR VGG.
func NewVGG11(classes int, width float64, seed uint64) *Model {
	rng := stats.NewRNG(seed)
	m := &Model{ModelName: fmt.Sprintf("VGG-11(w=%g)", width)}
	type item struct {
		ch   int
		pool bool
	}
	plan := []item{
		{64, true},
		{128, true},
		{256, false}, {256, true},
		{512, false}, {512, true},
		{512, false}, {512, true},
	}
	in := 3
	ci := 0
	for _, it := range plan {
		out := scaleC(it.ch, width)
		name := fmt.Sprintf("features.conv%d", ci)
		m.Layers = append(m.Layers,
			NewConv2D(name, in, out, 3, 1, 1, rng),
			NewBatchNorm2D(fmt.Sprintf("features.bn%d", ci), out),
			NewReLU(fmt.Sprintf("features.relu%d", ci)),
		)
		if it.pool {
			m.Layers = append(m.Layers, NewMaxPool2(fmt.Sprintf("features.pool%d", ci)))
		}
		in = out
		ci++
	}
	m.Layers = append(m.Layers,
		NewGlobalAvgPool("pool"),
		NewLinear("classifier", in, classes, rng),
	)
	return m
}
