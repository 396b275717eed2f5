package attack

import (
	"sync"

	"repro/internal/nn"
	"repro/internal/par"
	"repro/internal/quant"
)

// searchMinChunk is the minimum number of weights one scoring worker
// takes; below that the fan-out bookkeeping costs more than the scan.
const searchMinChunk = 4096

// better is the total order the bit search selects under: higher score
// first, ties broken on (GlobalW, Bit) so the top-k set — and therefore
// the committed flip sequence — is a pure function of the candidate set,
// independent of scan partitioning or worker count.
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
// Reuse contract: a Searcher is bound to one quantized model and one
// configuration. Run may be called any number of times (each call starts
// a fresh attack and clears the tried-bit set), but the Searcher must
// not be shared between goroutines — the scoring fan-out inside one call
// is the only concurrency it manages. Scratch grows to the high-water
// mark of CandidatesPerIter and the worker budget and is never released.
type Searcher struct {
	qm  *quant.Model
	cfg BFAConfig

	// tried records (globalW, bit) pairs already committed or denied so
	// the search never proposes the same flip twice.
	tried map[[2]int]bool

	// heaps[w] is scoring worker w's bounded selector; heaps[0] belongs
	// to the calling goroutine and is the only one used serially.
	heaps []topK
	// sel is the merged selection, reused every iteration.
	sel []Candidate
}

// NewSearcher validates the configuration and builds a Searcher over the
// quantized model.
func NewSearcher(qm *quant.Model, cfg BFAConfig) (*Searcher, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Searcher{
		qm:    qm,
		cfg:   cfg,
		tried: make(map[[2]int]bool, cfg.Iterations),
		sel:   make([]Candidate, 0, cfg.CandidatesPerIter),
	}, nil
}

// reset clears per-attack state, keeping scratch capacity.
func (s *Searcher) reset() {
	clear(s.tried)
}

// offer funnels one scored (weight, bit) into a worker's selector. The
// admission test runs before the tried-set lookup so the map is only
// consulted for candidates that would actually be kept (at most k per
// worker per scan, instead of once per scored bit).
func (s *Searcher) offer(h *topK, globalW, bit int, score float64) {
	c := Candidate{GlobalW: globalW, Bit: bit, Score: score}
	if h.full() && !better(c, h.items[0]) {
		return
	}
	if s.tried[[2]int{globalW, bit}] {
		return
	}
	h.push(c)
}

// scoreRange scores every untried (weight, bit) with global weight index
// in [glo, ghi) by the first-order loss increase grad*deltaW, keeping the
// best in h. A flip whose estimate is <= 0 would reduce the loss and is
// never a candidate.
func (s *Searcher) scoreRange(glo, ghi int, h *topK) {
	pi, li := s.qm.Locate(glo)
	base := glo - li // global index of Params[pi].Q[0]
	for base < ghi && pi < len(s.qm.Params) {
		qp := s.qm.Params[pi]
		end := qp.NumWeights()
		if base+end > ghi {
			end = ghi - base
		}
		grads := qp.Param.Grad.Data
		scale := float64(qp.Scale)
		for i := li; i < end; i++ {
			g := float64(grads[i])
			if g == 0 {
				continue
			}
			for k := 0; k < qp.Bits; k++ {
				score := g * float64(qp.BitDelta(i, k)) * scale
				if score <= 0 {
					continue
				}
				s.offer(h, base+i, k, score)
			}
		}
		base += qp.NumWeights()
		li = 0
		pi++
	}
}

// selectTopK scans the gradient-scored attack surface and returns the
// top CandidatesPerIter untried candidates, best first. The scan fans
// out over the weight range under the par token budget; each worker
// keeps its own bounded selector and the merge re-ranks the union under
// the same total order, so the result is bit-identical at any
// parallelism. The returned slice is Searcher-owned scratch, valid until
// the next call.
func (s *Searcher) selectTopK() []Candidate {
	k := s.cfg.CandidatesPerIter
	total := s.qm.TotalWeights()
	workers := 1
	if maxW := total / searchMinChunk; maxW > 1 {
		if cap := par.Budget(); maxW > cap {
			maxW = cap
		}
		if maxW > 1 {
			workers = 1 + par.TryAcquire(maxW-1)
		}
	}
	for len(s.heaps) < workers {
		s.heaps = append(s.heaps, topK{})
	}
	if workers == 1 {
		s.heaps[0].reset(k)
		s.scoreRange(0, total, &s.heaps[0])
	} else {
		s.scoreParallel(total, workers, k)
	}
	// Merge: the union of per-worker keeps is at most workers*k
	// candidates; insertion-sort it under the total order and keep k.
	s.sel = s.sel[:0]
	for w := 0; w < workers; w++ {
		for _, c := range s.heaps[w].items {
			s.sel = append(s.sel, c)
		}
	}
	for i := 1; i < len(s.sel); i++ {
		c := s.sel[i]
		j := i - 1
		for j >= 0 && better(c, s.sel[j]) {
			s.sel[j+1] = s.sel[j]
			j--
		}
		s.sel[j+1] = c
	}
	if len(s.sel) > k {
		s.sel = s.sel[:k]
	}
	return s.sel
}

// scoreParallel fans the scoring scan out over workers contiguous chunks
// (the calling goroutine takes chunk 0 and the tokens are returned when
// every worker finishes). Chunk boundaries only decide which heap a
// candidate lands in; the merge erases that.
func (s *Searcher) scoreParallel(total, workers, k int) {
	defer par.ReleaseN(workers - 1)
	chunk := (total + workers - 1) / workers
	var wg sync.WaitGroup
	defer wg.Wait()
	for w := 1; w < workers; w++ {
		lo := w * chunk
		hi := lo + chunk
		if hi > total {
			hi = total
		}
		h := &s.heaps[w]
		h.reset(k)
		if lo >= hi {
			continue
		}
		wg.Add(1)
		go func(lo, hi int, h *topK) {
			defer wg.Done()
			s.scoreRange(lo, hi, h)
		}(lo, hi, h)
	}
	s.heaps[0].reset(k)
	s.scoreRange(0, chunk, &s.heaps[0])
}

// step runs one search iteration: a gradient pass on the attacker's
// batch, top-k candidate selection, and a real-forward-pass trial of
// each candidate. It returns the candidate whose trial flip raised the
// batch loss most, or ok=false when the surface is exhausted. The model
// is left unmodified — committing the flip is the caller's call to make
// through a FlipExecutor.
func (s *Searcher) step(batch nn.Batch) (Candidate, bool) {
	nn.GradientPass(s.qm.Net, batch)
	cands := s.selectTopK()
	if len(cands) == 0 {
		return Candidate{}, false
	}
	best := -1
	bestLoss := -1.0
	for i := range cands {
		c := cands[i]
		s.qm.FlipGlobal(c.GlobalW, c.Bit)
		loss := nn.BatchLoss(s.qm.Net, batch)
		s.qm.FlipGlobal(c.GlobalW, c.Bit) // undo the trial flip
		if loss > bestLoss {
			bestLoss = loss
			best = i
		}
	}
	return cands[best], true
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
	res := Result{Records: make([]IterationRecord, 0, s.cfg.Iterations)}
	for iter := 0; iter < s.cfg.Iterations; iter++ {
		if s.cfg.Stop != nil {
			if err := s.cfg.Stop(); err != nil {
				return res, err
			}
		}
		chosen, ok := s.step(attackBatch)
		if !ok {
			break
		}
		s.tried[[2]int{chosen.GlobalW, chosen.Bit}] = true
		out, err := exec.TryFlip(chosen.GlobalW, chosen.Bit)
		if err != nil {
			return res, err
		}
		if out.Succeeded {
			res.TotalFlips++
		}
		if out.Denied {
			res.TotalDenied++
		}
		rec := IterationRecord{
			Iteration: iter + 1,
			Flips:     res.TotalFlips,
			Denied:    res.TotalDenied,
			Loss:      nn.BatchLoss(s.qm.Net, attackBatch),
		}
		if eval != nil {
			rec.Accuracy = nn.Evaluate(s.qm.Net, eval, 64)
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
