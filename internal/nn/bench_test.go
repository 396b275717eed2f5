package nn

import (
	"testing"

	"repro/internal/par"
	"repro/internal/stats"
	"repro/internal/tensor"
)

// serialBudget pins the worker budget to 1 for the duration of an
// alloc-gated benchmark: the zero-alloc guarantee is about the serial
// compute path, and parallel fan-out would add goroutine/closure
// allocations that are not regressions. Call the returned restore func
// via b.Cleanup.
func serialBudget(b *testing.B) {
	b.Helper()
	old := par.Budget()
	par.SetBudget(1)
	b.Cleanup(func() { par.SetBudget(old) })
}

// benchBatch builds a deterministic synthetic batch.
func benchBatch(n, classes, size int) Batch {
	rng := stats.NewRNG(99)
	x := tensor.New(n, 3, size, size)
	x.RandNormal(rng, 1)
	y := make([]int, n)
	for i := range y {
		y[i] = int(rng.Intn(classes))
	}
	return Batch{X: x, Y: y}
}

// BenchmarkTrainStepResNet20 measures one full training step — forward,
// loss, backward, SGD update — on a reused batch with serial kernels.
// allocs/op is the zero-alloc gate: after warm-up the layer-held
// buffers, pooled scratch and cached parameter lists keep the step off
// the allocator.
func BenchmarkTrainStepResNet20(b *testing.B) {
	serialBudget(b)
	m := NewResNet20(10, 0.25, 7)
	batch := benchBatch(16, 10, 16)
	opt := NewSGD(0.05, 0.9, 5e-4)
	params := m.Params()
	var grad *tensor.Tensor
	// Warm-up step so buffer growth is not billed to the measurement.
	step := func() {
		m.ZeroGrad()
		logits := m.Forward(batch.X, true)
		grad = tensor.Ensure(grad, logits.Shape...)
		SoftmaxCrossEntropyInto(grad, logits, batch.Y)
		m.Backward(grad)
		opt.Step(params)
	}
	step()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step()
	}
}

// BenchmarkTrainStepVGG11 is the same gate on the conv-heavy VGG path
// (max-pool stages, no residual blocks).
func BenchmarkTrainStepVGG11(b *testing.B) {
	serialBudget(b)
	m := NewVGG11(10, 0.25, 7)
	batch := benchBatch(8, 10, 16)
	opt := NewSGD(0.05, 0.9, 5e-4)
	params := m.Params()
	var grad *tensor.Tensor
	step := func() {
		m.ZeroGrad()
		logits := m.Forward(batch.X, true)
		grad = tensor.Ensure(grad, logits.Shape...)
		SoftmaxCrossEntropyInto(grad, logits, batch.Y)
		m.Backward(grad)
		opt.Step(params)
	}
	step()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step()
	}
}

// BenchmarkInferenceResNet20 measures the attack-side eval path: forward
// plus loss, no gradients.
func BenchmarkInferenceResNet20(b *testing.B) {
	serialBudget(b)
	m := NewResNet20(10, 0.25, 7)
	batch := benchBatch(32, 10, 16)
	SoftmaxLoss(m.Forward(batch.X, false), batch.Y) // warm buffers
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		SoftmaxLoss(m.Forward(batch.X, false), batch.Y)
	}
}

// BenchmarkBatchNormForward isolates the channel reduction under the
// ambient budget (parallel on multi-core machines).
func BenchmarkBatchNormForward(b *testing.B) {
	bn := NewBatchNorm2D("bn", 64)
	rng := stats.NewRNG(3)
	x := tensor.New(32, 64, 8, 8)
	x.RandNormal(rng, 1)
	bn.Forward(x, true)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bn.Forward(x, true)
	}
}

// layerBench times one forward plus backward of a parameter-free layer
// at VGG-11 tiny's first-stage shape (batch 32, 16 channels, 16×16) on
// normal inputs, so half the ReLU inputs are negative and the max-pool
// windows are in random order. allocs/op is pinned at 0.
func layerBench(b *testing.B, l Layer) {
	serialBudget(b)
	x := tensor.New(32, 16, 16, 16)
	x.RandNormal(stats.NewRNG(5), 1)
	out := l.Forward(x, true)
	grad := tensor.New(out.Shape...)
	grad.RandNormal(stats.NewRNG(6), 1)
	l.Backward(grad)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.Forward(x, true)
		l.Backward(grad)
	}
}

// BenchmarkReLU times the branch-free ReLU: a select per element forward
// and an integer mask of the forward's output backward.
func BenchmarkReLU(b *testing.B) { layerBench(b, NewReLU("relu")) }

// BenchmarkMaxPool2 times the 2×2 max pool: the branch-free window
// select forward and the argmax scatter backward.
func BenchmarkMaxPool2(b *testing.B) { layerBench(b, NewMaxPool2("pool")) }
