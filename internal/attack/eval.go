package attack

import (
	"math"

	"repro/internal/nn"
	"repro/internal/quant"
	"repro/internal/tensor"
)

// evalBatchSize is the batch size the attack loops evaluate accuracy
// at, and the slicing the evaluator keeps for the eval set.
const evalBatchSize = 64

// evaluator answers what the attack loops ask after every attempt — the
// attack batch's loss and the eval set's accuracy — by recomputing only
// what changed. For every batch it keeps the input of each restart
// layer: layer 0 (the batch itself) and every top-level layer where a
// quantizable parameter starts (ResNet-20's stem, nine blocks and fc;
// VGG-11's convolutions and classifier). sync compares everything the
// inference forward reads — each Param.W and each BatchNorm's running
// statistics — with the copy it took at the last sync, so whatever an
// executor writes, a batch reruns from the last restart layer at or
// before the first layer that differs, and an unchanged model reuses
// every answer. Results are bit-identical to full forwards: the layers
// before a restart point saw the same weights and the same input.
//
// Like the Searcher that owns one, an evaluator is not safe for
// concurrent use, and once bound its steady state allocates nothing.
type evaluator struct {
	qm *quant.Model
	// restart[l] is the latest restart layer at or before layer l.
	restart []int
	// flipLayer[pi] is the top-level layer holding qm.Params[pi].
	flipLayer []int
	// params[l] and bns[l] are what inference reads in top-level
	// layer l.
	params [][]*nn.Param
	bns    [][]*nn.BatchNorm2D
	// w and stats copy every Param.W and every running mean and
	// variance, in layer order, as of the last sync.
	w     []float32
	stats []float64

	attack     cachedBatch
	eval       []cachedBatch
	evalN      int
	attackLoss float64
	pred       []int
}

// cachedBatch is one batch the evaluator answers for.
type cachedBatch struct {
	nn.Batch
	// keep[l] holds the input of restart layer l > 0; nil for other
	// layers. Those up to from match the weights of the last sync.
	keep []*tensor.Tensor
	// from is the restart layer the batch's next forward starts at: 0
	// before its first forward, len(keep) when it is up to date.
	from int
	// correct is the batch's count of right predictions (eval batches).
	correct int
}

// newEvaluator maps the network's layers for qm's attack surface.
func newEvaluator(qm *quant.Model) *evaluator {
	net := qm.Net
	n := len(net.Layers)
	e := &evaluator{
		qm:        qm,
		restart:   make([]int, n),
		flipLayer: make([]int, len(qm.Params)),
		params:    make([][]*nn.Param, n),
		bns:       make([][]*nn.BatchNorm2D, n),
	}
	layerOf := make(map[*nn.Param]int)
	words, stats := 0, 0
	for l := range net.Layers {
		sub := nn.Model{Layers: net.Layers[l : l+1]}
		e.params[l] = sub.Params()
		e.bns[l] = sub.BatchNorms()
		for _, p := range e.params[l] {
			layerOf[p] = l
			words += p.W.Len()
		}
		for _, bn := range e.bns[l] {
			stats += len(bn.RunningMean) + len(bn.RunningVar)
		}
	}
	e.w = make([]float32, words)
	e.stats = make([]float64, stats)
	starts := make([]bool, n)
	starts[0] = true
	for pi, qp := range qm.Params {
		e.flipLayer[pi] = layerOf[qp.Param]
		starts[e.flipLayer[pi]] = true
	}
	r := 0
	for l := range e.restart {
		if starts[l] {
			r = l
		}
		e.restart[l] = r
	}
	return e
}

// bind points the evaluator at the attack batch (none when attack.X is
// nil) and the eval set (none when nil), sliced as nn.Evaluate slices
// it, with nothing cached, and takes the weight copy.
func (e *evaluator) bind(attack nn.Batch, eval nn.BatchSource) {
	e.attack = e.newCachedBatch(attack)
	e.eval, e.evalN = e.eval[:0], 0
	if eval != nil {
		e.evalN = eval.NumExamples()
		for lo := 0; lo < e.evalN; lo += evalBatchSize {
			e.eval = append(e.eval, e.newCachedBatch(eval.Slice(lo, min(lo+evalBatchSize, e.evalN))))
		}
	}
	e.sync()
}

// newCachedBatch returns b with an empty input slot for every restart
// layer after layer 0.
func (e *evaluator) newCachedBatch(b nn.Batch) cachedBatch {
	keep := make([]*tensor.Tensor, len(e.restart))
	for l, r := range e.restart {
		if l > 0 && r == l {
			keep[l] = new(tensor.Tensor)
		}
	}
	return cachedBatch{Batch: b, keep: keep}
}

// sync compares what inference reads with the copy taken at the last
// sync and refreshes the copy from the first top-level layer that
// differs. Every batch's cached inputs from that layer's restart point
// on become stale. It reports whether anything differed.
func (e *evaluator) sync() bool {
	n := len(e.qm.Net.Layers)
	first := n
	w, st := e.w, e.stats
	for l := 0; l < n; l++ {
		for _, p := range e.params[l] {
			d := p.W.Data
			if first == n && !sameFloat32s(d, w) {
				first = l
			}
			if first < n {
				copy(w, d)
			}
			w = w[len(d):]
		}
		for _, bn := range e.bns[l] {
			for _, d := range [2][]float64{bn.RunningMean, bn.RunningVar} {
				if first == n && !sameFloat64s(d, st) {
					first = l
				}
				if first < n {
					copy(st, d)
				}
				st = st[len(d):]
			}
		}
	}
	if first == n {
		return false
	}
	r := e.restart[first]
	e.attack.from = min(e.attack.from, r)
	for i := range e.eval {
		e.eval[i].from = min(e.eval[i].from, r)
	}
	return true
}

// record is the step every attack takes after an attempt: it counts
// out into res, syncs, and returns the record of res's next iteration,
// which the caller appends. Loss is the attack batch's, 0 when none is
// bound; Accuracy is the eval set's. changed is sync's answer.
func (e *evaluator) record(res *Result, out FlipOutcome) (rec IterationRecord, changed bool) {
	if out.Succeeded {
		res.TotalFlips++
	}
	if out.Denied {
		res.TotalDenied++
	}
	changed = e.sync()
	rec = IterationRecord{
		Iteration: len(res.Records) + 1,
		Flips:     res.TotalFlips,
		Denied:    res.TotalDenied,
	}
	if e.attack.X != nil {
		rec.Loss = e.loss()
	}
	rec.Accuracy = e.accuracy()
	return rec, changed
}

// refresh reruns c's inference forward from its first stale layer,
// recaching the inputs after it, and returns the logits; nil when c is
// up to date.
func (e *evaluator) refresh(c *cachedBatch) *tensor.Tensor {
	if c.from == len(c.keep) {
		return nil
	}
	logits := e.qm.Net.ForwardFrom(c.from, c.input(c.from), false, c.keep)
	c.from = len(c.keep)
	return logits
}

// input returns restart layer l's input.
func (c *cachedBatch) input(l int) *tensor.Tensor {
	if l == 0 {
		return c.X
	}
	return c.keep[l]
}

// loss returns the attack batch's mean cross-entropy for the weights of
// the last sync.
func (e *evaluator) loss() float64 {
	if logits := e.refresh(&e.attack); logits != nil {
		e.attackLoss = nn.SoftmaxLoss(logits, e.attack.Y)
	}
	return e.attackLoss
}

// accuracy returns the eval set's accuracy for the weights of the last
// sync, bit-identical to nn.Evaluate(net, eval, evalBatchSize).
func (e *evaluator) accuracy() float64 {
	if e.evalN == 0 {
		return 0
	}
	correct := 0
	for i := range e.eval {
		c := &e.eval[i]
		if logits := e.refresh(c); logits != nil {
			e.pred = tensor.ArgMaxRowInto(e.pred, logits)
			c.correct = 0
			for j, p := range e.pred {
				if p == c.Y[j] {
					c.correct++
				}
			}
		}
		correct += c.correct
	}
	return float64(correct) / float64(e.evalN)
}

// trialLoss returns the attack batch's loss with bit k of global weight
// gw flipped, running the forward from that weight's layer, and leaves
// the weight as it was.
func (e *evaluator) trialLoss(gw, k int) float64 {
	e.loss() // brings the attack batch's cached inputs up to date
	pi, li := e.qm.Locate(gw)
	l := e.flipLayer[pi]
	qp := e.qm.Params[pi]
	qp.Flip(li, k)
	loss := nn.SoftmaxLoss(e.qm.Net.ForwardFrom(l, e.attack.input(l), false, nil), e.attack.Y)
	qp.Flip(li, k) // undo the trial flip
	return loss
}

// sameFloat32s reports whether a and the first len(a) values of b are
// bit for bit the same.
func sameFloat32s(a, b []float32) bool {
	b = b[:len(a)]
	for i, v := range a {
		if math.Float32bits(v) != math.Float32bits(b[i]) {
			return false
		}
	}
	return true
}

// sameFloat64s is sameFloat32s for float64 values.
func sameFloat64s(a, b []float64) bool {
	b = b[:len(a)]
	for i, v := range a {
		if math.Float64bits(v) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}
