package nn

import (
	"math"
	"testing"

	"repro/internal/stats"
	"repro/internal/tensor"
)

// numericalGrad estimates dLoss/dTheta for one scalar parameter via
// central differences, where loss() re-runs the full forward pass.
func numericalGrad(theta *float32, loss func() float64) float64 {
	const eps = 1e-3
	orig := *theta
	*theta = orig + eps
	lp := loss()
	*theta = orig - eps
	lm := loss()
	*theta = orig
	return (lp - lm) / (2 * eps)
}

// checkLayerGradients runs a forward+backward through the layers and
// compares every parameter gradient and the input gradient against
// central differences.
func checkLayerGradients(t *testing.T, layers []Layer, x *tensor.Tensor, labels []int, tol float64) {
	t.Helper()
	m := &Model{ModelName: "gradcheck", Layers: layers}

	loss := func() float64 {
		logits := m.Forward(x, true)
		return SoftmaxCrossEntropyInto(tensor.New(logits.Shape...), logits, labels)
	}

	m.ZeroGrad()
	logits := m.Forward(x, true)
	g := tensor.New(logits.Shape...)
	SoftmaxCrossEntropyInto(g, logits, labels)
	dx := m.Backward(g)

	// Parameter gradients: check a spread of indices (all for small
	// tensors, strided for big ones).
	for _, p := range m.Params() {
		stride := p.W.Len()/7 + 1
		for i := 0; i < p.W.Len(); i += stride {
			want := numericalGrad(&p.W.Data[i], loss)
			got := float64(p.Grad.Data[i])
			if math.Abs(got-want) > tol*math.Max(1, math.Abs(want)) {
				t.Errorf("%s[%d]: analytic %g vs numeric %g", p.Name, i, got, want)
			}
		}
	}
	// Input gradient.
	stride := x.Len()/7 + 1
	for i := 0; i < x.Len(); i += stride {
		want := numericalGrad(&x.Data[i], loss)
		got := float64(dx.Data[i])
		if math.Abs(got-want) > tol*math.Max(1, math.Abs(want)) {
			t.Errorf("dx[%d]: analytic %g vs numeric %g", i, got, want)
		}
	}
}

func gradInput(rng *stats.RNG, n, c, h, w int) *tensor.Tensor {
	x := tensor.New(n, c, h, w)
	x.RandNormal(rng, 1)
	return x
}

func TestGradLinear(t *testing.T) {
	rng := stats.NewRNG(10)
	x := tensor.New(3, 5)
	x.RandNormal(rng, 1)
	layers := []Layer{NewLinear("fc", 5, 4, rng)}
	checkLayerGradients(t, layers, x, []int{0, 2, 1}, 2e-2)
}

func TestGradConv2D(t *testing.T) {
	rng := stats.NewRNG(11)
	x := gradInput(rng, 2, 2, 5, 5)
	layers := []Layer{
		NewConv2D("conv", 2, 3, 3, 1, 1, rng),
		NewFlatten("flat"),
		NewLinear("fc", 3*5*5, 3, rng),
	}
	checkLayerGradients(t, layers, x, []int{0, 2}, 3e-2)
}

func TestGradConv2DStride2(t *testing.T) {
	rng := stats.NewRNG(12)
	x := gradInput(rng, 1, 2, 6, 6)
	layers := []Layer{
		NewConv2D("conv", 2, 2, 3, 2, 1, rng),
		NewFlatten("flat"),
		NewLinear("fc", 2*3*3, 2, rng),
	}
	checkLayerGradients(t, layers, x, []int{1}, 3e-2)
}

func TestGradReLU(t *testing.T) {
	rng := stats.NewRNG(13)
	x := tensor.New(4, 6)
	x.RandNormal(rng, 1)
	layers := []Layer{
		NewLinear("fc1", 6, 6, rng),
		NewReLU("relu"),
		NewLinear("fc2", 6, 3, rng),
	}
	checkLayerGradients(t, layers, x, []int{0, 1, 2, 0}, 3e-2)
}

func TestGradBatchNorm(t *testing.T) {
	rng := stats.NewRNG(14)
	x := gradInput(rng, 3, 2, 4, 4)
	layers := []Layer{
		NewBatchNorm2D("bn", 2),
		NewFlatten("flat"),
		NewLinear("fc", 2*4*4, 3, rng),
	}
	checkLayerGradients(t, layers, x, []int{0, 1, 2}, 5e-2)
}

func TestGradMaxPool(t *testing.T) {
	rng := stats.NewRNG(15)
	x := gradInput(rng, 2, 2, 4, 4)
	layers := []Layer{
		NewMaxPool2("pool"),
		NewFlatten("flat"),
		NewLinear("fc", 2*2*2, 2, rng),
	}
	checkLayerGradients(t, layers, x, []int{0, 1}, 3e-2)
}

func TestGradGlobalAvgPool(t *testing.T) {
	rng := stats.NewRNG(16)
	x := gradInput(rng, 2, 3, 4, 4)
	layers := []Layer{
		NewGlobalAvgPool("pool"),
		NewLinear("fc", 3, 2, rng),
	}
	checkLayerGradients(t, layers, x, []int{1, 0}, 3e-2)
}

func TestGradBasicBlockIdentity(t *testing.T) {
	rng := stats.NewRNG(17)
	x := gradInput(rng, 2, 3, 4, 4)
	layers := []Layer{
		NewBasicBlock("block", 3, 3, 1, rng),
		NewGlobalAvgPool("pool"),
		NewLinear("fc", 3, 2, rng),
	}
	checkLayerGradients(t, layers, x, []int{0, 1}, 6e-2)
}

func TestGradBasicBlockDownsample(t *testing.T) {
	rng := stats.NewRNG(18)
	x := gradInput(rng, 2, 2, 4, 4)
	layers := []Layer{
		NewBasicBlock("block", 2, 4, 2, rng),
		NewGlobalAvgPool("pool"),
		NewLinear("fc", 4, 2, rng),
	}
	checkLayerGradients(t, layers, x, []int{1, 0}, 6e-2)
}

func TestSoftmaxCrossEntropyGradientRowsSumToZero(t *testing.T) {
	rng := stats.NewRNG(19)
	logits := tensor.New(4, 5)
	logits.RandNormal(rng, 2)
	grad := tensor.New(4, 5)
	loss := SoftmaxCrossEntropyInto(grad, logits, []int{0, 4, 2, 1})
	if loss <= 0 {
		t.Fatalf("loss = %g, want > 0", loss)
	}
	for i := 0; i < 4; i++ {
		var s float64
		for j := 0; j < 5; j++ {
			s += float64(grad.Data[i*5+j])
		}
		if math.Abs(s) > 1e-5 {
			t.Fatalf("row %d gradient sums to %g, want 0", i, s)
		}
	}
}

func TestSoftmaxCrossEntropyPerfectPrediction(t *testing.T) {
	logits := tensor.FromData([]float32{30, 0, 0}, 1, 3)
	loss := SoftmaxCrossEntropyInto(tensor.New(1, 3), logits, []int{0})
	if loss > 1e-9 {
		t.Fatalf("loss = %g, want ~0 for confident correct prediction", loss)
	}
}
