package nn

import (
	"fmt"
	"math"

	"repro/internal/stats"
	"repro/internal/tensor"
)

// SoftmaxCrossEntropyInto computes the mean cross-entropy loss over a
// batch of logits (N, C) against integer labels and writes the gradient
// dL/dlogits into a caller-owned tensor of the same shape as logits — the
// trainer reuses one across every step.
func SoftmaxCrossEntropyInto(grad, logits *tensor.Tensor, labels []int) float64 {
	if len(logits.Shape) != 2 || logits.Shape[0] != len(labels) {
		panic(fmt.Sprintf("nn: loss shape %v vs %d labels", logits.Shape, len(labels)))
	}
	if !tensor.SameShape(grad, logits) {
		panic(fmt.Sprintf("nn: loss gradient shape %v vs logits %v", grad.Shape, logits.Shape))
	}
	n, c := logits.Shape[0], logits.Shape[1]
	var loss float64
	inv := 1 / float64(n)
	for i := 0; i < n; i++ {
		row := logits.Data[i*c : (i+1)*c]
		maxv, sum := softmaxRowStats(row)
		logSum := math.Log(sum)
		y := labels[i]
		if y < 0 || y >= c {
			panic(fmt.Sprintf("nn: label %d out of range %d", y, c))
		}
		loss += float64((logSum - float64(row[y]-maxv)) * inv)
		grow := grad.Data[i*c : (i+1)*c]
		for j := range grow {
			p := math.Exp(float64(row[j]-maxv)) / sum
			grow[j] = float32(p * inv)
		}
		grow[y] -= float32(inv)
	}
	return loss
}

// SoftmaxLoss computes the mean cross-entropy without materialising the
// gradient — the attack's candidate-evaluation hot path calls this
// thousands of times per run.
func SoftmaxLoss(logits *tensor.Tensor, labels []int) float64 {
	if len(logits.Shape) != 2 || logits.Shape[0] != len(labels) {
		panic(fmt.Sprintf("nn: loss shape %v vs %d labels", logits.Shape, len(labels)))
	}
	n, c := logits.Shape[0], logits.Shape[1]
	var loss float64
	inv := 1 / float64(n)
	for i := 0; i < n; i++ {
		row := logits.Data[i*c : (i+1)*c]
		maxv, sum := softmaxRowStats(row)
		y := labels[i]
		if y < 0 || y >= c {
			panic(fmt.Sprintf("nn: label %d out of range %d", y, c))
		}
		loss += float64((math.Log(sum) - float64(row[y]-maxv)) * inv)
	}
	return loss
}

// softmaxRowStats returns the row max and the sum of exp(v - max), the
// shared numerically stable softmax reduction.
func softmaxRowStats(row []float32) (float32, float64) {
	maxv := row[0]
	for _, v := range row {
		if v > maxv {
			maxv = v
		}
	}
	var sum float64
	for _, v := range row {
		sum += math.Exp(float64(v - maxv))
	}
	return maxv, sum
}

// SGD is stochastic gradient descent with momentum and weight decay.
type SGD struct {
	LR          float64
	Momentum    float64
	WeightDecay float64
	velocity    map[*Param][]float32
}

// NewSGD constructs the optimiser.
func NewSGD(lr, momentum, weightDecay float64) *SGD {
	return &SGD{LR: lr, Momentum: momentum, WeightDecay: weightDecay,
		velocity: make(map[*Param][]float32)}
}

// Step applies one update to all parameters from their gradients.
func (s *SGD) Step(params []*Param) {
	for _, p := range params {
		v := s.velocity[p]
		if v == nil {
			v = make([]float32, p.W.Len())
			s.velocity[p] = v
		}
		wd := float32(s.WeightDecay)
		if p.NoDecay {
			wd = 0
		}
		mu := float32(s.Momentum)
		lr := float32(s.LR)
		for i := range p.W.Data {
			g := p.Grad.Data[i] + float32(wd*p.W.Data[i])
			v[i] = float32(mu*v[i]) + g
			p.W.Data[i] -= float32(lr * v[i])
		}
	}
}

// TrainConfig parameterises Fit.
type TrainConfig struct {
	Epochs      int
	BatchSize   int
	LR          float64
	Momentum    float64
	WeightDecay float64
	// LRDropEvery halves the learning rate every this many epochs
	// (0 disables).
	LRDropEvery int
	Seed        uint64
	// Regularizer, if non-nil, adds extra gradient terms after each
	// backward pass (e.g. PiecewiseClusteringReg for the Table II
	// defense).
	Regularizer func(params []*Param)
	// Stop, if non-nil, is polled before every epoch; a non-nil return
	// aborts training early (the model keeps the weights learned so
	// far). The experiment harness wires it to the run's cancellation
	// context so Ctrl-C interrupts an in-flight victim training.
	Stop func() error
	// OnEpoch, if non-nil, is called after each completed epoch with
	// (done, total) — the experiment harness wires it to the engine's
	// progress stream so remote schedulers see live epoch heartbeats.
	OnEpoch func(done, total int)
}

// PiecewiseClusteringReg returns the piece-wise clustering regularizer of
// He et al. CVPR'20: for each quantizable weight tensor, positive weights
// are pulled toward their mean and negative weights toward theirs, making
// the distribution bimodal and the model markedly more resistant to
// bit-flips. lambda is the penalty strength.
func PiecewiseClusteringReg(lambda float64) func(params []*Param) {
	return func(params []*Param) {
		for _, p := range params {
			if !p.Quantizable {
				continue
			}
			var posSum, negSum float64
			var posN, negN int
			for _, w := range p.W.Data {
				if w >= 0 {
					posSum += float64(w)
					posN++
				} else {
					negSum += float64(w)
					negN++
				}
			}
			var posMean, negMean float32
			if posN > 0 {
				posMean = float32(posSum / float64(posN))
			}
			if negN > 0 {
				negMean = float32(negSum / float64(negN))
			}
			l := float32(2 * lambda)
			for i, w := range p.W.Data {
				if w >= 0 {
					p.Grad.Data[i] += float32(l * (w - posMean))
				} else {
					p.Grad.Data[i] += float32(l * (w - negMean))
				}
			}
		}
	}
}

// DefaultTrainConfig returns a configuration suitable for the synthetic
// CIFAR-like datasets.
func DefaultTrainConfig() TrainConfig {
	return TrainConfig{
		Epochs:      6,
		BatchSize:   32,
		LR:          0.05,
		Momentum:    0.9,
		WeightDecay: 5e-4,
		LRDropEvery: 3,
		Seed:        7,
	}
}

// Batch is one minibatch of images and labels.
type Batch struct {
	X *tensor.Tensor // (N, C, H, W)
	Y []int
}

// BatchSource yields minibatches; internal/dataset implements it.
type BatchSource interface {
	// NumExamples is the dataset size.
	NumExamples() int
	// Slice materialises examples [i, j) as one batch.
	Slice(i, j int) Batch
}

// Fit trains the model on train data with SGD, returning the final
// training loss.
func Fit(m *Model, train BatchSource, cfg TrainConfig) float64 {
	return fit(m, train, cfg, nil)
}

// FitProjected trains with projected forward passes (straight-through
// estimator): before each forward+backward, project replaces quantizable
// weights with their projected image (e.g. binarized values) and returns a
// restore closure; gradients computed against the projected weights are
// then applied to the float master weights. This is how binary-weight
// networks (and RA-BNN) are actually trained — post-hoc binarization of a
// float model destroys it.
func FitProjected(m *Model, train BatchSource, cfg TrainConfig, project func(params []*Param) (restore func())) float64 {
	if project == nil {
		panic("nn: FitProjected needs a projection")
	}
	return fit(m, train, cfg, project)
}

// fit is the one training loop behind Fit and FitProjected. A nil
// project trains the weights as they are.
func fit(m *Model, train BatchSource, cfg TrainConfig, project func(params []*Param) (restore func())) float64 {
	if cfg.BatchSize <= 0 || cfg.Epochs <= 0 {
		panic("nn: TrainConfig needs positive Epochs and BatchSize")
	}
	opt := NewSGD(cfg.LR, cfg.Momentum, cfg.WeightDecay)
	rng := stats.NewRNG(cfg.Seed)
	n := train.NumExamples()
	params := m.Params()
	var grad *tensor.Tensor // loss-gradient buffer, reused every step
	var starts []int
	var lastLoss float64
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		if cfg.Stop != nil && cfg.Stop() != nil {
			break
		}
		if cfg.LRDropEvery > 0 && epoch > 0 && epoch%cfg.LRDropEvery == 0 {
			opt.LR /= 2
		}
		// Shuffled batch order (the source slices sequentially; we shuffle
		// the starting offsets of the batches).
		starts = starts[:0]
		for i := 0; i < n; i += cfg.BatchSize {
			starts = append(starts, i)
		}
		rng.Shuffle(len(starts), func(i, j int) { starts[i], starts[j] = starts[j], starts[i] })
		var epochLoss float64
		for _, st := range starts {
			end := st + cfg.BatchSize
			if end > n {
				end = n
			}
			b := train.Slice(st, end)
			m.ZeroGrad()
			var restore func()
			if project != nil {
				restore = project(params)
			}
			logits := m.Forward(b.X, true)
			grad = tensor.Ensure(grad, logits.Shape...)
			loss := SoftmaxCrossEntropyInto(grad, logits, b.Y)
			m.Backward(grad)
			if restore != nil {
				restore()
			}
			if cfg.Regularizer != nil {
				cfg.Regularizer(params)
			}
			opt.Step(params)
			epochLoss += float64(loss * float64(end-st))
		}
		lastLoss = epochLoss / float64(n)
		if cfg.OnEpoch != nil {
			cfg.OnEpoch(epoch+1, cfg.Epochs)
		}
	}
	return lastLoss
}

// BinaryProjection returns a FitProjected projection that binarizes
// quantizable weights to sign(w) * mean|w| per tensor.
func BinaryProjection() func(params []*Param) (restore func()) {
	var saved [][]float32
	return func(params []*Param) func() {
		if saved == nil {
			saved = make([][]float32, len(params))
			for i, p := range params {
				if p.Quantizable {
					saved[i] = make([]float32, p.W.Len())
				}
			}
		}
		for i, p := range params {
			if !p.Quantizable {
				continue
			}
			copy(saved[i], p.W.Data)
			var sum float64
			for _, w := range p.W.Data {
				if w < 0 {
					sum -= float64(w)
				} else {
					sum += float64(w)
				}
			}
			scale := float32(sum / float64(p.W.Len()))
			for j, w := range p.W.Data {
				if w < 0 {
					p.W.Data[j] = -scale
				} else {
					p.W.Data[j] = scale
				}
			}
		}
		return func() {
			for i, p := range params {
				if p.Quantizable {
					copy(p.W.Data, saved[i])
				}
			}
		}
	}
}

// Evaluate returns the classification accuracy of the model on a source,
// processing batchSize examples at a time in inference mode.
func Evaluate(m *Model, data BatchSource, batchSize int) float64 {
	n := data.NumExamples()
	if n == 0 {
		return 0
	}
	if batchSize <= 0 {
		batchSize = 64
	}
	correct := 0
	var pred []int // reused across batches
	for i := 0; i < n; i += batchSize {
		end := i + batchSize
		if end > n {
			end = n
		}
		b := data.Slice(i, end)
		logits := m.Forward(b.X, false)
		pred = tensor.ArgMaxRowInto(pred, logits)
		for j, p := range pred {
			if p == b.Y[j] {
				correct++
			}
		}
	}
	return float64(correct) / float64(n)
}

// BatchLoss computes the mean cross-entropy of the model on one batch in
// inference mode (used by the attack's candidate evaluation). It does
// not materialise the loss gradient and does not allocate.
func BatchLoss(m *Model, b Batch) float64 {
	logits := m.Forward(b.X, false)
	return SoftmaxLoss(logits, b.Y)
}

// GradientPass runs one forward+backward over the batch and leaves dL/dW
// in the parameter gradients. BatchNorm running statistics are frozen for
// the duration so that probing the model does not perturb its inference
// behaviour. The attacker calls this once per bit-search iteration, so
// the loss gradient comes from the scratch pool instead of the
// allocator.
func GradientPass(m *Model, b Batch) float64 {
	bns := m.BatchNorms()
	m.bnFreeze = m.bnFreeze[:0]
	for _, bn := range bns {
		m.bnFreeze = append(m.bnFreeze, bn.FreezeStats)
		bn.FreezeStats = true
	}
	defer func() {
		for i, bn := range bns {
			bn.FreezeStats = m.bnFreeze[i]
		}
	}()
	m.ZeroGrad()
	logits := m.Forward(b.X, true)
	grad := tensor.GetScratch(logits.Shape[0], logits.Shape[1])
	loss := SoftmaxCrossEntropyInto(grad, logits, b.Y)
	m.Backward(grad)
	tensor.PutScratch(grad)
	return loss
}
