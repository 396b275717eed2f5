// Package attack implements the adversarial DNN weight attacks of the
// paper's threat model (§III): the gradient-guided Bit-Flip Attack (BFA,
// Rakin et al. ICCV'19 progressive bit search), the random bit-flip
// baseline of Fig. 1(a), and the Page Table Attack (PTA, after PT-Guard).
//
// Attacks commit flips through a FlipExecutor, which is where the DRAM
// substrate and the defense come in: the executor may hammer real
// simulated rows (and be denied by the lock-table) rather than mutate the
// model directly.
//
// The BFA hot path is built around Searcher, which owns every piece of
// per-iteration scratch (the bounded top-k selector, the kept candidate
// ranking, the tried-bit set, the cached layer inputs) so steady-state
// search iterations allocate nothing. Candidate scoring is one serial
// scan that skips every weight whose score bound cannot reach the
// selector's bar. See the Searcher type for what an iteration reuses
// and for the reuse contract.
package attack

import (
	"fmt"

	"repro/internal/nn"
	"repro/internal/quant"
	"repro/internal/stats"
)

// FlipOutcome reports one committed flip attempt.
type FlipOutcome struct {
	// Succeeded is true when the target bit actually changed in the
	// victim's weights.
	Succeeded bool
	// Denied is true when a defense blocked the hammering.
	Denied bool
}

// FlipExecutor commits a bit flip on the victim. Implementations range
// from direct model mutation (no defense) to full DRAM RowHammer with a
// lock-table in the way.
type FlipExecutor interface {
	// TryFlip attempts to flip bit k of the global weight index.
	TryFlip(globalW, k int) (FlipOutcome, error)
}

// DirectExecutor mutates the quantized model immediately: the undefended
// upper bound used by Fig. 1(a) and the software-defense rows of Table II.
type DirectExecutor struct{ QM *quant.Model }

// TryFlip implements FlipExecutor.
func (e *DirectExecutor) TryFlip(globalW, k int) (FlipOutcome, error) {
	e.QM.FlipGlobal(globalW, k)
	return FlipOutcome{Succeeded: true}, nil
}

// Candidate is one ranked flip option.
type Candidate struct {
	GlobalW int
	Bit     int
	// Score is the first-order loss increase estimate grad * deltaW.
	Score float64
}

// BFAConfig parameterises the progressive bit search.
type BFAConfig struct {
	// Iterations is the number of attack iterations (each commits at most
	// one flip).
	Iterations int
	// CandidatesPerIter is how many top-ranked bits are evaluated with a
	// real forward pass before committing the best. Every bit of every
	// weight is scored.
	CandidatesPerIter int
	// Stop, if non-nil, is polled before every iteration; a non-nil
	// return aborts the attack, surfacing that error with the partial
	// trace. The experiment harness wires it to the run's cancellation
	// context.
	Stop func() error
}

// DefaultBFAConfig returns the paper's attack setup scaled to the
// simulator (100 iterations, 5 trial candidates each).
func DefaultBFAConfig() BFAConfig {
	return BFAConfig{
		Iterations:        100,
		CandidatesPerIter: 5,
	}
}

// Validate checks the configuration.
func (c BFAConfig) Validate() error {
	if c.Iterations <= 0 || c.CandidatesPerIter <= 0 {
		return fmt.Errorf("attack: BFAConfig fields must be positive: %+v", c)
	}
	return nil
}

// IterationRecord tracks one attack iteration for the Fig. 8 curves.
type IterationRecord struct {
	Iteration int
	// Flips is the cumulative number of successful bit flips.
	Flips int
	// Denied is the cumulative number of defense denials.
	Denied int
	// Loss is the attacker's batch loss after the iteration.
	Loss float64
	// Accuracy is the victim's accuracy after the iteration (evaluated on
	// the provided eval source; NaN if not evaluated).
	Accuracy float64
}

// Result is a full attack trace.
type Result struct {
	Records []IterationRecord
	// TotalFlips is the number of bits actually flipped.
	TotalFlips int
	// TotalDenied counts denied attempts.
	TotalDenied int
}

// FinalAccuracy returns the accuracy after the last iteration.
func (r Result) FinalAccuracy() float64 {
	if len(r.Records) == 0 {
		return 0
	}
	return r.Records[len(r.Records)-1].Accuracy
}

// BFA runs the progressive bit search against the quantized model,
// committing flips through the executor, and evaluating accuracy on eval
// after every iteration.
//
// Each iteration: (1) one gradient pass on the attacker's batch ranks all
// bits by the first-order loss increase of flipping them; (2) the top
// CandidatesPerIter candidates are each trial-flipped in place and scored
// with a real forward pass; (3) the best candidate is committed through
// the executor — which a defense may deny.
//
// BFA is a convenience wrapper that builds a one-shot Searcher; callers
// that attack repeatedly (the Table II sweeps, the benchmarks) should
// hold a Searcher and call Run to reuse its scratch.
func BFA(qm *quant.Model, attackBatch nn.Batch, eval nn.BatchSource, exec FlipExecutor, cfg BFAConfig) (Result, error) {
	s, err := NewSearcher(qm, cfg)
	if err != nil {
		return Result{}, err
	}
	return s.Run(attackBatch, eval, exec)
}

// RandomAttack flips one uniformly random bit per iteration through the
// executor — the Fig. 1(a) baseline showing targeted flips are what makes
// BFA dangerous. Accuracy after each flip reruns only from the first
// layer the flip changed.
func RandomAttack(qm *quant.Model, eval nn.BatchSource, exec FlipExecutor, iterations int, seed uint64) (Result, error) {
	if iterations <= 0 {
		return Result{}, fmt.Errorf("attack: iterations must be positive, got %d", iterations)
	}
	rng := stats.NewRNG(seed)
	ev := newEvaluator(qm)
	ev.bind(nn.Batch{}, eval)
	var res Result
	for iter := 0; iter < iterations; iter++ {
		gw := rng.Intn(qm.TotalWeights())
		k := rng.Intn(qm.Bits)
		out, err := exec.TryFlip(gw, k)
		if err != nil {
			return res, err
		}
		if out.Succeeded {
			res.TotalFlips++
		}
		if out.Denied {
			res.TotalDenied++
		}
		ev.sync()
		res.Records = append(res.Records, IterationRecord{
			Iteration: iter + 1,
			Flips:     res.TotalFlips,
			Denied:    res.TotalDenied,
			Accuracy:  ev.accuracy(),
		})
	}
	return res, nil
}

// BFAUntilCollapse runs BFA until accuracy falls to the threshold or the
// flip budget is exhausted, returning the number of flips used (the
// "Bit-Flips #" column of Table II) and the accuracy at that point. The
// attack stops at the first iteration that reaches the threshold.
func BFAUntilCollapse(qm *quant.Model, attackBatch nn.Batch, eval nn.BatchSource, exec FlipExecutor, cfg BFAConfig, accThreshold float64, maxFlips int) (int, float64, error) {
	cfg.Iterations = maxFlips
	s, err := NewSearcher(qm, cfg)
	if err != nil {
		return 0, 0, err
	}
	collapsed := func(rec IterationRecord) bool { return rec.Accuracy <= accThreshold }
	res, err := s.run(attackBatch, eval, exec, collapsed)
	if err != nil {
		return 0, 0, err
	}
	return res.TotalFlips, res.FinalAccuracy(), nil
}
