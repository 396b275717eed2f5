package attack

import (
	"math"
	"sort"
	"testing"

	"repro/internal/nn"
	"repro/internal/par"
	"repro/internal/quant"
)

// referenceRankCandidates is the pre-optimization scalar ranker kept as
// the golden model: score every (weight, bit) by grad*deltaW, sort the
// whole surface, take the top CandidatesPerIter untried candidates.
func referenceRankCandidates(qm *quant.Model, cfg BFAConfig, tried map[[2]int]bool) []Candidate {
	var cands []Candidate
	for pi, qp := range qm.Params {
		grads := qp.Param.Grad.Data
		for li := range qp.Q {
			g := float64(grads[li])
			if g == 0 {
				continue
			}
			for k := 0; k < qp.Bits; k++ {
				delta := float64(qp.BitDelta(li, k)) * float64(qp.Scale)
				score := g * delta
				if score <= 0 {
					continue
				}
				gw := qm.GlobalIndex(pi, li)
				if tried[[2]int{gw, k}] {
					continue
				}
				cands = append(cands, Candidate{GlobalW: gw, Bit: k, Score: score})
			}
		}
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i].Score > cands[j].Score })
	if len(cands) > cfg.CandidatesPerIter {
		cands = cands[:cfg.CandidatesPerIter]
	}
	return cands
}

// referenceBFA is the pre-optimization scalar attack loop, preserved
// verbatim so the optimized Searcher can be checked against the exact
// flip sequence and trace the original produced.
func referenceBFA(qm *quant.Model, attackBatch nn.Batch, eval nn.BatchSource, exec FlipExecutor, cfg BFAConfig) (Result, error) {
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	var res Result
	tried := make(map[[2]int]bool)
	for iter := 0; iter < cfg.Iterations; iter++ {
		nn.GradientPass(qm.Net, attackBatch)
		cands := referenceRankCandidates(qm, cfg, tried)
		if len(cands) == 0 {
			break
		}
		best := -1
		bestLoss := -1.0
		for i, c := range cands {
			qm.FlipGlobal(c.GlobalW, c.Bit)
			loss := nn.BatchLoss(qm.Net, attackBatch)
			qm.FlipGlobal(c.GlobalW, c.Bit)
			if loss > bestLoss {
				bestLoss = loss
				best = i
			}
		}
		chosen := cands[best]
		tried[[2]int{chosen.GlobalW, chosen.Bit}] = true
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
			Loss:      nn.BatchLoss(qm.Net, attackBatch),
		}
		if eval != nil {
			rec.Accuracy = nn.Evaluate(qm.Net, eval, 64)
		}
		res.Records = append(res.Records, rec)
	}
	return res, nil
}

// recordingExecutor commits through the direct executor while logging the
// flip sequence, which is the attack's externally visible behavior.
type recordingExecutor struct {
	qm    *quant.Model
	flips [][2]int
}

func (e *recordingExecutor) TryFlip(globalW, k int) (FlipOutcome, error) {
	e.flips = append(e.flips, [2]int{globalW, k})
	e.qm.FlipGlobal(globalW, k)
	return FlipOutcome{Succeeded: true}, nil
}

// TestSearcherMatchesScalarReference is the determinism suite for the
// optimized BFA: at par budgets 1 and 4 the Searcher must produce the
// identical flip sequence and Result trace (bit-for-bit losses and
// accuracies) as the pre-optimization scalar path at a fixed seed.
func TestSearcherMatchesScalarReference(t *testing.T) {
	qm, ab, eval := trainedVictim(t)
	snap := qm.Snapshot()
	cfg := DefaultBFAConfig()
	cfg.Iterations = 6
	cfg.CandidatesPerIter = 3

	golden := &recordingExecutor{qm: qm}
	want, err := referenceBFA(qm, ab, eval, golden, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(golden.flips) != cfg.Iterations {
		t.Fatalf("reference committed %d flips, want %d", len(golden.flips), cfg.Iterations)
	}

	origBudget := par.Budget()
	defer par.SetBudget(origBudget)
	for _, budget := range []int{1, 4} {
		par.SetBudget(budget)
		qm.Restore(snap)
		rec := &recordingExecutor{qm: qm}
		got, err := BFA(qm, ab, eval, rec, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if len(rec.flips) != len(golden.flips) {
			t.Fatalf("budget %d: %d flips vs reference %d", budget, len(rec.flips), len(golden.flips))
		}
		for i := range rec.flips {
			if rec.flips[i] != golden.flips[i] {
				t.Fatalf("budget %d: flip %d = %v, reference %v", budget, i, rec.flips[i], golden.flips[i])
			}
		}
		if len(got.Records) != len(want.Records) {
			t.Fatalf("budget %d: %d records vs reference %d", budget, len(got.Records), len(want.Records))
		}
		for i := range got.Records {
			g, w := got.Records[i], want.Records[i]
			if g.Iteration != w.Iteration || g.Flips != w.Flips || g.Denied != w.Denied {
				t.Fatalf("budget %d: record %d = %+v, reference %+v", budget, i, g, w)
			}
			if math.Float64bits(g.Loss) != math.Float64bits(w.Loss) ||
				math.Float64bits(g.Accuracy) != math.Float64bits(w.Accuracy) {
				t.Fatalf("budget %d: record %d loss/acc (%v, %v) != reference (%v, %v)",
					budget, i, g.Loss, g.Accuracy, w.Loss, w.Accuracy)
			}
		}
		if got.TotalFlips != want.TotalFlips || got.TotalDenied != want.TotalDenied {
			t.Fatalf("budget %d: totals (%d, %d) != reference (%d, %d)",
				budget, got.TotalFlips, got.TotalDenied, want.TotalFlips, want.TotalDenied)
		}
	}
}

// TestSelectTopKMatchesReferenceRanking checks the bounded selector
// against the full-sort reference on a fresh gradient landscape, with
// and without an exclusion set.
func TestSelectTopKMatchesReferenceRanking(t *testing.T) {
	qm, ab, _ := trainedVictim(t)
	cfg := DefaultBFAConfig()
	cfg.CandidatesPerIter = 5
	nn.GradientPass(qm.Net, ab)

	tried := map[[2]int]bool{}
	for round := 0; round < 3; round++ {
		want := referenceRankCandidates(qm, cfg, tried)
		s, err := NewSearcher(qm, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for k := range tried {
			s.tried[k] = true
		}
		got := s.selectTopK()
		if len(got) != len(want) {
			t.Fatalf("round %d: %d candidates, want %d", round, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("round %d: candidate %d = %+v, want %+v", round, i, got[i], want[i])
			}
		}
		// Exclude this round's winners so the next round exercises the
		// tried-set filter at the selection frontier.
		for _, c := range want {
			tried[[2]int{c.GlobalW, c.Bit}] = true
		}
	}
}
