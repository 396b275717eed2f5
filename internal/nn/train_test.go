package nn

import (
	"errors"
	"math"
	"testing"

	"repro/internal/stats"
	"repro/internal/tensor"
)

// toySource is a fixed in-memory BatchSource around two Gaussian blobs.
type toySource struct {
	x []float32
	y []int
	n int
}

func newToySource(n int, seed uint64) *toySource {
	rng := stats.NewRNG(seed)
	s := &toySource{n: n}
	s.x = make([]float32, n*3*8*8)
	s.y = make([]int, n)
	per := 3 * 8 * 8
	for i := 0; i < n; i++ {
		c := i % 2
		s.y[i] = c
		mean := float64(c)*2 - 1
		for j := 0; j < per; j++ {
			s.x[i*per+j] = float32(rng.Normal(mean, 0.5))
		}
	}
	return s
}

func (s *toySource) NumExamples() int { return s.n }

func (s *toySource) Slice(i, j int) Batch {
	per := 3 * 8 * 8
	return Batch{X: tensor.FromData(s.x[i*per:j*per], j-i, 3, 8, 8), Y: s.y[i:j]}
}

func TestFitReducesLossAndLearns(t *testing.T) {
	src := newToySource(64, 42)
	m := NewResNet20(2, 0.25, 9)

	cfg := DefaultTrainConfig()
	cfg.Epochs = 1
	first := Fit(m, src, cfg)
	cfg.Epochs = 4
	last := Fit(m, src, cfg)
	if last >= first {
		t.Fatalf("loss did not decrease: %g -> %g", first, last)
	}
	if acc := Evaluate(m, src, 16); acc < 0.9 {
		t.Fatalf("train accuracy %g, want >= 0.9 on a separable toy task", acc)
	}
}

// TestFitStopHookAbortsTraining: the per-epoch Stop poll ends training
// early — the cancellation path of the experiment harness.
func TestFitStopHookAbortsTraining(t *testing.T) {
	src := newToySource(32, 7)
	m := NewResNet20(2, 0.25, 9)
	cfg := DefaultTrainConfig()
	cfg.Epochs = 50
	polls := 0
	stopErr := errors.New("training cancelled")
	cfg.Stop = func() error {
		polls++
		if polls > 2 {
			return stopErr
		}
		return nil
	}
	Fit(m, src, cfg)
	if polls != 3 {
		t.Fatalf("Stop polled %d times, want 3 (two epochs then abort)", polls)
	}

	polls = 0
	FitProjected(m, src, cfg, BinaryProjection())
	if polls != 3 {
		t.Fatalf("projected: Stop polled %d times, want 3", polls)
	}
}

func TestSGDMomentumMovesFasterThanPlain(t *testing.T) {
	// One parameter, constant gradient: with momentum the cumulative step
	// after k iterations is strictly larger.
	mkParam := func() *Param {
		p := &Param{Name: "w", W: tensor.New(1), Grad: tensor.New(1)}
		p.W.Data[0] = 1
		return p
	}
	run := func(momentum float64) float32 {
		p := mkParam()
		opt := NewSGD(0.1, momentum, 0)
		for i := 0; i < 5; i++ {
			p.Grad.Data[0] = 1
			opt.Step([]*Param{p})
		}
		return p.W.Data[0]
	}
	plain := run(0)
	mom := run(0.9)
	if mom >= plain {
		t.Fatalf("momentum end %g should be below plain %g", mom, plain)
	}
}

func TestSGDWeightDecayShrinksWeights(t *testing.T) {
	p := &Param{Name: "w", W: tensor.New(1), Grad: tensor.New(1)}
	p.W.Data[0] = 1
	opt := NewSGD(0.1, 0, 0.5)
	opt.Step([]*Param{p}) // grad 0, decay pulls toward zero
	if p.W.Data[0] >= 1 {
		t.Fatalf("weight decay did not shrink weight: %g", p.W.Data[0])
	}

	nd := &Param{Name: "b", W: tensor.New(1), Grad: tensor.New(1), NoDecay: true}
	nd.W.Data[0] = 1
	opt.Step([]*Param{nd})
	if nd.W.Data[0] != 1 {
		t.Fatalf("NoDecay param must not shrink: %g", nd.W.Data[0])
	}
}

func TestEvaluateCountsCorrectly(t *testing.T) {
	src := newToySource(10, 1)
	// Model that always predicts class 0: evaluate = fraction of zeros.
	m := &Model{ModelName: "const", Layers: []Layer{
		NewGlobalAvgPool("pool"),
		&constLinear{},
	}}
	acc := Evaluate(m, src, 4)
	zeros := 0
	for _, y := range src.y {
		if y == 0 {
			zeros++
		}
	}
	want := float64(zeros) / float64(len(src.y))
	if math.Abs(acc-want) > 1e-9 {
		t.Fatalf("accuracy %g, want %g", acc, want)
	}
}

// constLinear maps any input to logits favouring class 0.
type constLinear struct{}

func (c *constLinear) Name() string     { return "const" }
func (c *constLinear) Params() []*Param { return nil }

func (c *constLinear) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	out := tensor.New(x.Shape[0], 2)
	for i := 0; i < x.Shape[0]; i++ {
		out.Data[i*2] = 1
	}
	return out
}

func (c *constLinear) Backward(grad *tensor.Tensor) *tensor.Tensor { return grad }

func TestPiecewiseClusteringRegPullsTowardMeans(t *testing.T) {
	p := &Param{Name: "w", W: tensor.New(4), Grad: tensor.New(4), Quantizable: true}
	copy(p.W.Data, []float32{1, 3, -1, -3}) // posMean 2, negMean -2
	reg := PiecewiseClusteringReg(0.5)
	reg([]*Param{p})
	// grad += 2*lambda*(w - mean): for w=1 -> 1*(1-2) = -1.
	want := []float32{-1, 1, 1, -1}
	for i, w := range want {
		if math.Abs(float64(p.Grad.Data[i]-w)) > 1e-6 {
			t.Fatalf("reg grad[%d] = %g, want %g", i, p.Grad.Data[i], w)
		}
	}

	// Non-quantizable params are untouched.
	b := &Param{Name: "b", W: tensor.New(2), Grad: tensor.New(2)}
	copy(b.W.Data, []float32{5, -5})
	reg([]*Param{b})
	if b.Grad.Data[0] != 0 || b.Grad.Data[1] != 0 {
		t.Fatal("regularizer must skip non-quantizable params")
	}
}

// TestSoftmaxLossMatchesCrossEntropy: the gradient-free loss the attack
// loops evaluate equals the loss the training path computes with its
// gradient.
func TestSoftmaxLossMatchesCrossEntropy(t *testing.T) {
	src := newToySource(8, 3)
	m := NewResNet20(2, 0.25, 5)
	b := src.Slice(0, 8)
	logits := m.Forward(b.X, false)
	loss := SoftmaxLoss(logits, b.Y)
	want := SoftmaxCrossEntropyInto(tensor.New(logits.Shape...), logits, b.Y)
	if math.Abs(loss-want) > 1e-9 {
		t.Fatalf("SoftmaxLoss %g, want %g", loss, want)
	}
}
