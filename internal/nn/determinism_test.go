package nn

import (
	"math"
	"testing"

	"repro/internal/par"
	"repro/internal/stats"
	"repro/internal/tensor"
)

// syntheticSource is a fixed in-memory BatchSource.
type syntheticSource struct {
	x *tensor.Tensor
	y []int
}

func (s *syntheticSource) NumExamples() int { return len(s.y) }
func (s *syntheticSource) Slice(i, j int) Batch {
	per := s.x.Len() / len(s.y)
	return Batch{
		X: tensor.FromData(s.x.Data[i*per:j*per], j-i, s.x.Shape[1], s.x.Shape[2], s.x.Shape[3]),
		Y: s.y[i:j],
	}
}

func newSyntheticSource(n, classes, size int, seed uint64) *syntheticSource {
	rng := stats.NewRNG(seed)
	x := tensor.New(n, 3, size, size)
	x.RandNormal(rng, 1)
	y := make([]int, n)
	for i := range y {
		y[i] = int(rng.Intn(classes))
	}
	return &syntheticSource{x: x, y: y}
}

// trainedWeights trains a fresh ResNet-20 under the given worker budget
// and returns every parameter value.
func trainedWeights(budget int) []float32 {
	old := par.Budget()
	par.SetBudget(budget)
	defer par.SetBudget(old)

	m := NewResNet20(4, 0.25, 21)
	src := newSyntheticSource(24, 4, 8, 31)
	cfg := TrainConfig{Epochs: 2, BatchSize: 8, LR: 0.05, Momentum: 0.9, WeightDecay: 5e-4, Seed: 5}
	Fit(m, src, cfg)
	var out []float32
	for _, p := range m.Params() {
		out = append(out, p.W.Data...)
	}
	return out
}

// TestTrainingBitIdenticalAcrossBudgets is the end-to-end determinism
// gate: a full training run — every GEMM, BatchNorm reduction, im2col
// scatter and SGD update — must produce bit-identical weights whether
// the kernels run serially or fanned out across the worker budget. This
// is the property that keeps experiment reports byte-identical at any
// GOMAXPROCS.
func TestTrainingBitIdenticalAcrossBudgets(t *testing.T) {
	serial := trainedWeights(1)
	parallel := trainedWeights(8)
	if len(serial) != len(parallel) {
		t.Fatalf("weight count mismatch: %d vs %d", len(serial), len(parallel))
	}
	for i := range serial {
		if math.Float32bits(serial[i]) != math.Float32bits(parallel[i]) {
			t.Fatalf("weight %d differs: %g (0x%08x) vs %g (0x%08x)",
				i, serial[i], math.Float32bits(serial[i]),
				parallel[i], math.Float32bits(parallel[i]))
		}
	}
}

// TestFitProjectedIdentityMatchesFit pins the one training loop behind
// Fit and FitProjected: under a projection that changes nothing,
// FitProjected must take exactly Fit's steps, so every parameter's bits
// and the returned loss are equal.
func TestFitProjectedIdentityMatchesFit(t *testing.T) {
	train := func(fit func(*Model, BatchSource, TrainConfig) float64) (float64, []float32) {
		m := NewResNet20(4, 0.25, 21)
		src := newSyntheticSource(24, 4, 8, 31)
		cfg := TrainConfig{Epochs: 3, BatchSize: 8, LR: 0.05, Momentum: 0.9, WeightDecay: 5e-4,
			LRDropEvery: 2, Seed: 5, Regularizer: PiecewiseClusteringReg(1e-3)}
		loss := fit(m, src, cfg)
		var w []float32
		for _, p := range m.Params() {
			w = append(w, p.W.Data...)
		}
		return loss, w
	}
	plainLoss, plain := train(Fit)
	projections := 0
	projLoss, proj := train(func(m *Model, src BatchSource, cfg TrainConfig) float64 {
		return FitProjected(m, src, cfg, func([]*Param) func() {
			projections++
			return func() {}
		})
	})
	if projections != 9 {
		t.Fatalf("projection ran %d times, want 9 (3 epochs of 3 batches)", projections)
	}
	if math.Float64bits(plainLoss) != math.Float64bits(projLoss) {
		t.Fatalf("loss differs: Fit %v, FitProjected %v", plainLoss, projLoss)
	}
	if len(plain) != len(proj) {
		t.Fatalf("weight count mismatch: %d vs %d", len(plain), len(proj))
	}
	for i := range plain {
		if math.Float32bits(plain[i]) != math.Float32bits(proj[i]) {
			t.Fatalf("weight %d differs: Fit %g (0x%08x), FitProjected %g (0x%08x)",
				i, plain[i], math.Float32bits(plain[i]), proj[i], math.Float32bits(proj[i]))
		}
	}
}

// TestEvaluateBitIdenticalAcrossBudgets pins the inference path the
// attack loops hammer: accuracy and batch loss must not move with the
// budget.
func TestEvaluateBitIdenticalAcrossBudgets(t *testing.T) {
	m := NewResNet20(4, 0.25, 22)
	src := newSyntheticSource(32, 4, 8, 33)

	run := func(budget int) (float64, float64) {
		old := par.Budget()
		par.SetBudget(budget)
		defer par.SetBudget(old)
		b := src.Slice(0, 16)
		return Evaluate(m, src, 8), SoftmaxLoss(m.Forward(b.X, false), b.Y)
	}
	acc1, loss1 := run(1)
	acc8, loss8 := run(8)
	if acc1 != acc8 || loss1 != loss8 {
		t.Fatalf("eval differs across budgets: acc %v vs %v, loss %v vs %v",
			acc1, acc8, loss1, loss8)
	}
}
