package attack

import (
	"math"
	"slices"

	"repro/internal/nn"
	"repro/internal/quant"
)

// better is the total order the bit search selects under: higher score
// first, ties broken on (GlobalW, Bit) so the top-k set — and therefore
// the committed flip sequence — is a pure function of the candidate set,
// independent of the order the scan offers candidates in.
func better(a, b Candidate) bool {
	if a.Score != b.Score {
		return a.Score > b.Score
	}
	if a.GlobalW != b.GlobalW {
		return a.GlobalW < b.GlobalW
	}
	return a.Bit < b.Bit
}

// topK is a bounded selector: a fixed-capacity min-heap under the better
// order whose root is the worst kept candidate, so a full heap admits a
// new candidate with one comparison against the root and no allocation.
type topK struct {
	items []Candidate // heap-ordered: items[0] loses to every other kept item
	k     int
}

func (h *topK) reset(k int) {
	if cap(h.items) < k {
		h.items = make([]Candidate, 0, k)
	}
	h.items = h.items[:0]
	h.k = k
}

// full reports whether the heap holds k candidates, in which case
// items[0] is the admission bar.
func (h *topK) full() bool { return len(h.items) == h.k }

// push admits c, which the caller has already checked beats the bar.
func (h *topK) push(c Candidate) {
	if len(h.items) < h.k {
		h.items = append(h.items, c)
		// Sift up: a child must beat its parent (parent is worse).
		i := len(h.items) - 1
		for i > 0 {
			p := (i - 1) / 2
			if !better(h.items[p], h.items[i]) {
				break
			}
			h.items[p], h.items[i] = h.items[i], h.items[p]
			i = p
		}
		return
	}
	// Replace the worst kept candidate and sift down.
	h.items[0] = c
	i := 0
	n := len(h.items)
	for {
		l, r := 2*i+1, 2*i+2
		worst := i
		if l < n && better(h.items[worst], h.items[l]) {
			worst = l
		}
		if r < n && better(h.items[worst], h.items[r]) {
			worst = r
		}
		if worst == i {
			return
		}
		h.items[i], h.items[worst] = h.items[worst], h.items[i]
		i = worst
	}
}

// Searcher runs the progressive bit search with all scratch state held
// for reuse, so steady-state iterations are allocation-free.
//
// Each iteration recomputes only what the last attempt changed. The
// Searcher's evaluator keeps the attack batch's and the eval set's
// inputs to every layer where a quantizable parameter starts, so a
// trial flip reruns the forward from the flipped weight's layer only.
// After each executor call the evaluator compares every weight and
// BatchNorm statistic with its copy from the previous call: the
// iteration's loss and accuracy rerun from the first layer that
// differs. When nothing differs (a denied flip), the previous loss and
// accuracy, the gradients the last gradient pass left in Param.Grad and
// the trial losses of the candidates still in the top k are reused, so
// such an iteration costs one candidate scan and one new trial forward.
// Every reuse is exact: records match full forwards bit for bit.
//
// Reuse contract: a Searcher is bound to one quantized model and one
// configuration. Run may be called any number of times (each call starts
// a fresh attack and clears the tried-bit set), but the Searcher must
// not be shared between goroutines. Scratch holds CandidatesPerIter
// candidates and is never released.
type Searcher struct {
	qm  *quant.Model
	cfg BFAConfig
	ev  *evaluator

	// tried records (globalW, bit) pairs already committed or denied so
	// the search never proposes the same flip twice.
	tried map[[2]int]bool

	// heap is the scan's bounded selector; sel its ranking, best first.
	heap topK
	sel  []Candidate
	// stale says the model changed since the last step, so the
	// gradients in Param.Grad and the memoised trial losses are out of
	// date.
	stale bool
	// trials holds the last step's candidates with their trial losses;
	// next is the step's scratch for the following set. Both hold at
	// most CandidatesPerIter.
	trials, next []trial
}

// trial is one candidate's trial-flip loss on the attack batch.
type trial struct {
	c    Candidate
	loss float64
}

// NewSearcher validates the configuration and builds a Searcher over the
// quantized model.
func NewSearcher(qm *quant.Model, cfg BFAConfig) (*Searcher, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Searcher{
		qm:     qm,
		cfg:    cfg,
		ev:     newEvaluator(qm),
		tried:  make(map[[2]int]bool, cfg.Iterations),
		sel:    make([]Candidate, 0, cfg.CandidatesPerIter),
		trials: make([]trial, 0, cfg.CandidatesPerIter),
		next:   make([]trial, 0, cfg.CandidatesPerIter),
	}, nil
}

// reset clears per-attack state, keeping scratch capacity.
func (s *Searcher) reset() {
	clear(s.tried)
	s.stale = true
}

// offer funnels one scored (weight, bit) into the scan's selector. The
// admission test runs before the tried-set lookup so the map is only
// consulted for candidates that would actually be kept (at most k per
// scan, instead of once per scored bit).
func (s *Searcher) offer(globalW, bit int, score float64) {
	h := &s.heap
	c := Candidate{GlobalW: globalW, Bit: bit, Score: score}
	if h.full() && !better(c, h.items[0]) {
		return
	}
	if s.tried[[2]int{globalW, bit}] {
		return
	}
	h.push(c)
}

// score scans every untried (weight, bit) by the first-order loss
// increase grad*deltaW, keeping the best in s.heap. A flip whose
// estimate is <= 0 would reduce the loss and is never a candidate.
//
// Once the selector is full, a weight is skipped when
// |grad|*maxDelta*scale is below the bar, the worst kept score: no bit
// of it could be admitted. The skip is exact. grad*deltaW is exact in
// float64 (a float32 times an integer of at most 8 bits), and the one
// rounding, the multiply by the positive scale, is monotonic, so no
// bit's score exceeds its weight's bound. The test is a strict <, as a
// score equal to the bar ties it and a tie is (GlobalW, Bit)'s to
// decide; a NaN bound or bar compares false and skips nothing.
func (s *Searcher) score() {
	base := 0 // global index of the current param's first weight
	for _, qp := range s.qm.Params {
		// The largest |BitDelta|: the sign-bit flip of an int8 weight,
		// or the negation of a binary one (Q is ±1).
		maxDelta := 128.0
		if qp.Bits == 1 {
			maxDelta = 2
		}
		grads := qp.Param.Grad.Data[:qp.NumWeights()]
		scale := float64(qp.Scale)
		for i, g32 := range grads {
			if g32 == 0 {
				continue
			}
			g := float64(g32)
			if s.heap.full() && math.Abs(g)*maxDelta*scale < s.heap.items[0].Score {
				continue
			}
			for k := 0; k < qp.Bits; k++ {
				score := g * float64(qp.BitDelta(i, k)) * scale
				if score <= 0 {
					continue
				}
				s.offer(base+i, k, score)
			}
		}
		base += qp.NumWeights()
	}
}

// selectTopK scans the gradient-scored attack surface and returns its
// top CandidatesPerIter untried candidates, best first. The returned
// slice is Searcher-owned scratch, valid until the next call.
func (s *Searcher) selectTopK() []Candidate {
	s.heap.reset(s.cfg.CandidatesPerIter)
	s.score()
	s.sel = append(s.sel[:0], s.heap.items...)
	slices.SortFunc(s.sel, func(a, b Candidate) int {
		switch {
		case better(a, b):
			return -1
		case better(b, a):
			return 1
		}
		return 0
	})
	return s.sel
}

// step runs one search step: a gradient pass on the attack batch, top-k
// candidate selection, and a trial forward of each candidate. It returns
// the candidate whose trial flip raised the batch loss most, or ok=false
// when the surface is exhausted. The model is left unmodified —
// committing the flip is the caller's call to make through a
// FlipExecutor. Unless the model changed since the last step, the
// gradients in Param.Grad and the trial losses of candidates that were
// already in the last top k are reused.
func (s *Searcher) step() (Candidate, bool) {
	if s.stale {
		nn.GradientPass(s.qm.Net, s.ev.attack.Batch)
		s.trials = s.trials[:0]
		s.stale = false
	}
	cands := s.selectTopK()
	if len(cands) == 0 {
		return Candidate{}, false
	}
	best := -1
	bestLoss := -1.0
	s.next = s.next[:0]
	for i, c := range cands {
		loss, ok := s.memoised(c)
		if !ok {
			loss = s.ev.trialLoss(c.GlobalW, c.Bit)
		}
		s.next = append(s.next, trial{c: c, loss: loss})
		if loss > bestLoss {
			bestLoss = loss
			best = i
		}
	}
	s.trials, s.next = s.next, s.trials
	return cands[best], true
}

// memoised returns the trial loss of c from the last step, if it was a
// candidate there.
func (s *Searcher) memoised(c Candidate) (float64, bool) {
	for _, t := range s.trials {
		if t.c.GlobalW == c.GlobalW && t.c.Bit == c.Bit {
			return t.loss, true
		}
	}
	return 0, false
}

// Run executes the progressive bit search against the model, committing
// flips through the executor and evaluating accuracy on eval after every
// iteration. It starts a fresh attack: the tried-bit set is cleared.
func (s *Searcher) Run(attackBatch nn.Batch, eval nn.BatchSource, exec FlipExecutor) (Result, error) {
	return s.run(attackBatch, eval, exec, nil)
}

// run is Run that also ends the attack after the first iteration whose
// record done accepts (done may be nil).
func (s *Searcher) run(attackBatch nn.Batch, eval nn.BatchSource, exec FlipExecutor, done func(IterationRecord) bool) (Result, error) {
	s.reset()
	s.ev.bind(attackBatch, eval)
	res := Result{Records: make([]IterationRecord, 0, s.cfg.Iterations)}
	for iter := 0; iter < s.cfg.Iterations; iter++ {
		if s.cfg.Stop != nil {
			if err := s.cfg.Stop(); err != nil {
				return res, err
			}
		}
		rec, ok, err := s.iterate(exec, &res)
		if err != nil {
			return res, err
		}
		if !ok {
			break
		}
		res.Records = append(res.Records, rec)
		if done != nil && done(rec) {
			break
		}
	}
	if len(res.Records) == 0 {
		// Match the pre-Searcher trace exactly: a run that never found a
		// candidate reports nil (JSON null), not an empty array.
		res.Records = nil
	}
	return res, nil
}

// iterate runs the next iteration of the attack res traces: a search
// step, the chosen flip committed through exec, and the record of the
// loss and accuracy after it, which the caller appends to res. ok is
// false when the attack surface is exhausted.
func (s *Searcher) iterate(exec FlipExecutor, res *Result) (rec IterationRecord, ok bool, err error) {
	chosen, ok := s.step()
	if !ok {
		return rec, false, nil
	}
	s.tried[[2]int{chosen.GlobalW, chosen.Bit}] = true
	out, err := exec.TryFlip(chosen.GlobalW, chosen.Bit)
	if err != nil {
		return rec, false, err
	}
	rec, s.stale = s.ev.record(res, out)
	return rec, true, nil
}
