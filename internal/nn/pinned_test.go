package nn

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"runtime"
	"testing"

	"repro/internal/stats"
	"repro/internal/tensor"
)

// digestFloats is the FNV-64a hash of the values' float32 bit patterns,
// little-endian, in order.
func digestFloats(vals ...[]float32) uint64 {
	h := fnv.New64a()
	var b [4]byte
	for _, v := range vals {
		for _, x := range v {
			binary.LittleEndian.PutUint32(b[:], math.Float32bits(x))
			h.Write(b[:])
		}
	}
	return h.Sum64()
}

// pinnedRun trains m for a few SGD steps on synthetic data and digests
// the result: every parameter, the eval-mode logits of a held-out batch,
// and, after one more training-mode forward and backward, every
// parameter gradient and the input gradient.
func pinnedRun(m *Model, size int) (params, logits, grads, dx uint64) {
	src := newSyntheticSource(16, 4, size, 37)
	cfg := TrainConfig{Epochs: 2, BatchSize: 8, LR: 0.05, Momentum: 0.9, WeightDecay: 5e-4, Seed: 9}
	Fit(m, src, cfg)
	var ws [][]float32
	for _, p := range m.Params() {
		ws = append(ws, p.W.Data)
	}
	params = digestFloats(ws...)

	eval := newSyntheticSource(8, 4, size, 38).Slice(0, 8)
	logits = digestFloats(m.Forward(eval.X, false).Data)

	m.ZeroGrad()
	out := m.Forward(eval.X, true)
	g := tensor.New(out.Shape...)
	SoftmaxCrossEntropyInto(g, out, eval.Y)
	dx = digestFloats(m.Backward(g).Data)
	var gs [][]float32
	for _, p := range m.Params() {
		gs = append(gs, p.Grad.Data)
	}
	grads = digestFloats(gs...)
	return params, logits, grads, dx
}

// TestTrainingMatchesPinnedBits pins the exact bits of training and
// inference to digests recorded before the channel-major conv lowering
// (the convolution stack's on the code that still had a conv bias, with
// the bias off): any reordered accumulation in a GEMM, the lowering, its
// scatter or a layout move changes them, where the tolerance-based tests
// would pass. The convolution case covers a 5×5 kernel, stride 2 and a
// 1×1 kernel, which the two architectures do not. The digests are
// amd64's (vector and scalar kernels agree there); other architectures
// may round differently where a compiler fuses a multiply-add.
func TestTrainingMatchesPinnedBits(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("digests are recorded on amd64")
	}
	convStack := func() *Model {
		rng := stats.NewRNG(41)
		return &Model{ModelName: "convs", Layers: []Layer{
			NewConv2D("c5", 3, 5, 5, 1, 2, rng),
			NewReLU("r5"),
			NewConv2D("c3s2", 5, 6, 3, 2, 0, rng),
			NewConv2D("c1", 6, 4, 1, 1, 0, rng),
			NewFlatten("flat"),
			NewLinear("fc", 4*4*4, 4, rng),
		}}
	}
	for _, tc := range []struct {
		name                      string
		model                     func() *Model
		size                      int
		params, logits, grads, dx uint64
	}{
		{"ResNet-20", func() *Model { return NewResNet20(4, 0.25, 51) }, 16,
			0xfe778243cd4f1cac, 0x83b70e82bd0e4668, 0xdf520494c7635a05, 0x641c861f4ca089e8},
		{"VGG-11", func() *Model { return NewVGG11(4, 0.25, 52) }, 16,
			0x50551f84e1b7df93, 0x71f335e602f49c35, 0xb9582302f434a176, 0x9e2b3399bbe664f9},
		{"convs", convStack, 10,
			0x7500023c520c482b, 0x311ae791e2976491, 0xc5163d97e884faa1, 0xa9e255356924f87d},
	} {
		params, logits, grads, dx := pinnedRun(tc.model(), tc.size)
		for _, d := range []struct {
			what      string
			got, want uint64
		}{{"parameters", params, tc.params}, {"eval logits", logits, tc.logits},
			{"parameter gradients", grads, tc.grads}, {"input gradient", dx, tc.dx}} {
			if d.got != d.want {
				t.Errorf("%s: %s digest %#x, want %#x", tc.name, d.what, d.got, d.want)
			}
		}
	}
}
