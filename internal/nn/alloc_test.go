//go:build !race

package nn

import (
	"testing"

	"repro/internal/par"
	"repro/internal/tensor"
)

// TestTrainStepDoesNotAllocate asserts the zero-alloc training step:
// after one warm-up step, a full forward/backward/update must stay off
// the allocator. The worker budget is pinned to 1 — the guarantee is
// about the serial compute path; parallel fan-out inherently spends a
// few transient allocations on goroutines and closures. Excluded under
// -race, whose instrumentation allocates.
func TestTrainStepDoesNotAllocate(t *testing.T) {
	old := par.Budget()
	par.SetBudget(1)
	defer par.SetBudget(old)

	m := NewResNet20(4, 0.25, 23)
	src := newSyntheticSource(8, 4, 8, 35)
	b := src.Slice(0, 8)
	opt := NewSGD(0.05, 0.9, 5e-4)
	params := m.Params()
	var grad *tensor.Tensor
	step := func() {
		m.ZeroGrad()
		logits := m.Forward(b.X, true)
		grad = tensor.Ensure(grad, logits.Shape...)
		SoftmaxCrossEntropyInto(grad, logits, b.Y)
		m.Backward(grad)
		opt.Step(params)
	}
	step() // warm up buffers, velocity, caches
	allocs := testing.AllocsPerRun(5, step)
	// The serial path must be allocation-free; allow a few stray ones for
	// runtime noise (testing.AllocsPerRun already averages).
	if allocs > 4 {
		t.Fatalf("training step allocates %.1f objects/op, want ~0", allocs)
	}
}

// TestInferenceDoesNotAllocate asserts the zero-alloc forward that the
// bit-flip attack runs thousands of times per search (forward and loss
// on every trial flip): after one warm-up pass, inference on ResNet-20
// and VGG-11 stays off the allocator at a worker budget of 1.
func TestInferenceDoesNotAllocate(t *testing.T) {
	old := par.Budget()
	par.SetBudget(1)
	defer par.SetBudget(old)

	for _, tc := range []struct {
		name string
		m    *Model
	}{
		{"ResNet-20", NewResNet20(4, 0.25, 24)},
		{"VGG-11", NewVGG11(4, 0.25, 25)},
	} {
		b := newSyntheticSource(8, 4, 16, 36).Slice(0, 8)
		loss := func() { SoftmaxLoss(tc.m.Forward(b.X, false), b.Y) }
		loss() // warm up buffers and scratch
		if allocs := testing.AllocsPerRun(5, loss); allocs > 0 {
			t.Errorf("%s: inference allocates %.1f objects/op, want 0", tc.name, allocs)
		}
	}
}
