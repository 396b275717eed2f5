package attack

import (
	"fmt"
	"math"
	"sort"
	"testing"

	"repro/internal/dram"
	"repro/internal/nn"
	"repro/internal/pagetable"
	"repro/internal/par"
	"repro/internal/quant"
	"repro/internal/stats"
)

// referenceRankCandidates is the pre-optimization scalar ranker kept as
// the golden model: score every (weight, bit) by grad*deltaW, sort the
// whole surface under the better order, take the top n untried
// candidates.
func referenceRankCandidates(qm *quant.Model, n int, tried map[[2]int]bool) []Candidate {
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
	sort.Slice(cands, func(i, j int) bool { return better(cands[i], cands[j]) })
	if len(cands) > n {
		cands = cands[:n]
	}
	return cands
}

// referenceBFA is the pre-optimization scalar attack loop, preserved
// so the optimized Searcher can be checked against the exact flip
// sequence and trace the original produced. Every loss and accuracy is
// a full forward of the whole network after every attempt.
func referenceBFA(qm *quant.Model, attackBatch nn.Batch, eval nn.BatchSource, exec FlipExecutor, cfg BFAConfig) (Result, error) {
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	var res Result
	tried := make(map[[2]int]bool)
	for iter := 0; iter < cfg.Iterations; iter++ {
		nn.GradientPass(qm.Net, attackBatch)
		cands := referenceRankCandidates(qm, cfg.CandidatesPerIter, tried)
		if len(cands) == 0 {
			break
		}
		best := -1
		bestLoss := -1.0
		for i, c := range cands {
			qm.FlipGlobal(c.GlobalW, c.Bit)
			loss := nn.SoftmaxLoss(qm.Net.Forward(attackBatch.X, false), attackBatch.Y)
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
			Loss:      nn.SoftmaxLoss(qm.Net.Forward(attackBatch.X, false), attackBatch.Y),
		}
		if eval != nil {
			rec.Accuracy = nn.Evaluate(qm.Net, eval, 64)
		}
		res.Records = append(res.Records, rec)
	}
	return res, nil
}

// referenceRandomAttack is RandomAttack with nn.Evaluate, a full
// forward of the eval set, after every attempt.
func referenceRandomAttack(qm *quant.Model, eval nn.BatchSource, exec FlipExecutor, iterations int, seed uint64) (Result, error) {
	rng := stats.NewRNG(seed)
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
		rec := IterationRecord{Iteration: iter + 1, Flips: res.TotalFlips, Denied: res.TotalDenied}
		if eval != nil {
			rec.Accuracy = nn.Evaluate(qm.Net, eval, 64)
		}
		res.Records = append(res.Records, rec)
	}
	return res, nil
}

// referencePTA is PTA.Run with nn.Evaluate after every round.
func referencePTA(p *PTA, eval nn.BatchSource) (Result, error) {
	var res Result
	targets := p.layout.WeightRows()
	geom := p.ctl.Device().Geometry()
	for iter := 0; iter < p.cfg.Iterations; iter++ {
		ok, denied, err := p.round(targets[iter%len(targets)], geom)
		if err != nil {
			return res, err
		}
		if ok {
			res.TotalFlips++
		}
		if denied {
			res.TotalDenied++
		}
		rec := IterationRecord{Iteration: iter + 1, Flips: res.TotalFlips, Denied: res.TotalDenied}
		if eval != nil {
			rec.Accuracy = nn.Evaluate(p.layout.QM.Net, eval, 64)
		}
		res.Records = append(res.Records, rec)
	}
	return res, nil
}

// loggingExecutor records every attempted flip before handing it to the
// executor under test, the attack's externally visible behavior.
type loggingExecutor struct {
	next     FlipExecutor
	attempts [][2]int
}

func (e *loggingExecutor) TryFlip(globalW, k int) (FlipOutcome, error) {
	e.attempts = append(e.attempts, [2]int{globalW, k})
	return e.next.TryFlip(globalW, k)
}

// repairingExecutor lands every flip, then repairs a weight the flip
// moved by 64 or more to 8 steps from its old value, writing qp.Q and
// Param.W.Data itself, as table2's weight-reconstruction executor does.
type repairingExecutor struct{ qm *quant.Model }

func (r *repairingExecutor) TryFlip(globalW, k int) (FlipOutcome, error) {
	pi, li := r.qm.Locate(globalW)
	qp := r.qm.Params[pi]
	before := qp.Get(li)
	qp.Flip(li, k)
	if d := int(qp.Get(li)) - int(before); d >= 64 || d <= -64 {
		repaired := before + 8
		if d < 0 {
			repaired = before - 8
		}
		qp.Q[li] = repaired
		qp.Param.W.Data[li] = quant.Dequantize(repaired, qp.Scale)
	}
	return FlipOutcome{Succeeded: true}, nil
}

// executorCases are the executors the attack loops run under, each
// built fresh over the model as it is. landed and denied say whether a
// BFA run must see landed and denied attempts, so each case exercises
// the path it names.
var executorCases = []struct {
	name           string
	build          func(*testing.T, *quant.Model) FlipExecutor
	landed, denied bool
}{
	{"direct", func(_ *testing.T, qm *quant.Model) FlipExecutor { return &DirectExecutor{QM: qm} }, true, false},
	{"dram-unprotected", dramExecutor(false, 0), true, false},
	{"dramlocker-leak", dramExecutor(true, 0.096), true, true},
	{"dramlocker-no-leak", dramExecutor(true, 0), false, true},
	{"repairing", func(_ *testing.T, qm *quant.Model) FlipExecutor { return &repairingExecutor{qm: qm} }, true, false},
}

// dramExecutor builds a DRAMExecutor over a fresh DRAM stack.
func dramExecutor(protect bool, leak float64) func(*testing.T, *quant.Model) FlipExecutor {
	return func(t *testing.T, qm *quant.Model) FlipExecutor {
		_, _, exec := buildStack(t, qm, protect, leak)
		return exec
	}
}

// checkSameResult fails unless got matches want bit for bit: every
// record's counts, loss and accuracy, and the totals.
func checkSameResult(t *testing.T, label string, got, want Result) {
	t.Helper()
	if len(got.Records) != len(want.Records) {
		t.Fatalf("%s: %d records vs reference %d", label, len(got.Records), len(want.Records))
	}
	for i := range got.Records {
		g, w := got.Records[i], want.Records[i]
		if g.Iteration != w.Iteration || g.Flips != w.Flips || g.Denied != w.Denied {
			t.Fatalf("%s: record %d = %+v, reference %+v", label, i, g, w)
		}
		if math.Float64bits(g.Loss) != math.Float64bits(w.Loss) ||
			math.Float64bits(g.Accuracy) != math.Float64bits(w.Accuracy) {
			t.Fatalf("%s: record %d loss/acc (%v, %v) != reference (%v, %v)",
				label, i, g.Loss, g.Accuracy, w.Loss, w.Accuracy)
		}
	}
	if got.TotalFlips != want.TotalFlips || got.TotalDenied != want.TotalDenied {
		t.Fatalf("%s: totals (%d, %d) != reference (%d, %d)",
			label, got.TotalFlips, got.TotalDenied, want.TotalFlips, want.TotalDenied)
	}
}

// checkSameAttempts fails unless two runs attempted the same flips.
func checkSameAttempts(t *testing.T, label string, got, want [][2]int) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d attempts vs reference %d", label, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: attempt %d = %v, reference %v", label, i, got[i], want[i])
		}
	}
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

	golden := &loggingExecutor{next: &DirectExecutor{QM: qm}}
	want, err := referenceBFA(qm, ab, eval, golden, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(golden.attempts) != cfg.Iterations {
		t.Fatalf("reference committed %d flips, want %d", len(golden.attempts), cfg.Iterations)
	}

	origBudget := par.Budget()
	defer par.SetBudget(origBudget)
	for _, budget := range []int{1, 4} {
		par.SetBudget(budget)
		qm.Restore(snap)
		rec := &loggingExecutor{next: &DirectExecutor{QM: qm}}
		got, err := BFA(qm, ab, eval, rec, cfg)
		if err != nil {
			t.Fatal(err)
		}
		label := fmt.Sprintf("budget %d", budget)
		checkSameAttempts(t, label, rec.attempts, golden.attempts)
		checkSameResult(t, label, got, want)
	}
}

// TestBFAMatchesReferenceUnderEveryExecutor: whatever the executor does
// with an attempt — lands it through hammering, denies it, leaks it, or
// lands it and then rewrites the weight itself — BFA's attempts, Result
// and final weights match the full-forward reference bit for bit at par
// budgets 1 and 4. BFAUntilCollapse reports the flips and accuracy of
// the reference's first record at or below the threshold, or of its
// last record when the budget runs out first.
func TestBFAMatchesReferenceUnderEveryExecutor(t *testing.T) {
	const threshold = 0.45
	cfg := DefaultBFAConfig()
	cfg.Iterations = 8 // the tiny preset's attack length
	cfg.CandidatesPerIter = 3
	origBudget := par.Budget()
	defer par.SetBudget(origBudget)
	for _, ec := range executorCases {
		t.Run(ec.name, func(t *testing.T) {
			par.SetBudget(origBudget)
			qm, ab, eval := trainedVictim(t)
			golden := &loggingExecutor{next: ec.build(t, qm)}
			want, err := referenceBFA(qm, ab, eval, golden, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if (want.TotalFlips > 0) != ec.landed || (want.TotalDenied > 0) != ec.denied {
				t.Fatalf("reference landed %d and denied %d attempts: not the %s path", want.TotalFlips, want.TotalDenied, ec.name)
			}
			wantW := qm.Snapshot()
			for _, budget := range []int{1, 4} {
				par.SetBudget(budget)
				qm, ab, eval := trainedVictim(t)
				exec := &loggingExecutor{next: ec.build(t, qm)}
				got, err := BFA(qm, ab, eval, exec, cfg)
				if err != nil {
					t.Fatal(err)
				}
				label := fmt.Sprintf("budget %d", budget)
				checkSameAttempts(t, label, exec.attempts, golden.attempts)
				checkSameResult(t, label, got, want)
				if d := qm.HammingDistance(wantW); d != 0 {
					t.Fatalf("%s: final weights differ from the reference's in %d bits", label, d)
				}
			}

			collapse := want.Records[len(want.Records)-1]
			for _, rec := range want.Records {
				if rec.Accuracy <= threshold {
					collapse = rec
					break
				}
			}
			qm, ab, eval = trainedVictim(t)
			flips, acc, err := BFAUntilCollapse(qm, ab, eval, ec.build(t, qm), cfg, threshold, cfg.Iterations)
			if err != nil {
				t.Fatal(err)
			}
			if flips != collapse.Flips || math.Float64bits(acc) != math.Float64bits(collapse.Accuracy) {
				t.Fatalf("BFAUntilCollapse stopped at (%d flips, %v), reference record %d has (%d, %v)",
					flips, acc, collapse.Iteration, collapse.Flips, collapse.Accuracy)
			}
		})
	}
}

// TestRandomAttackMatchesReference: RandomAttack's Result and final
// weights match a loop that evaluates the whole eval set after every
// attempt, under every executor.
func TestRandomAttackMatchesReference(t *testing.T) {
	const iterations, seed = 12, 5
	for _, ec := range executorCases {
		t.Run(ec.name, func(t *testing.T) {
			qm, _, eval := trainedVictim(t)
			want, err := referenceRandomAttack(qm, eval, ec.build(t, qm), iterations, seed)
			if err != nil {
				t.Fatal(err)
			}
			wantW := qm.Snapshot()
			qm, _, eval = trainedVictim(t)
			got, err := RandomAttack(qm, eval, ec.build(t, qm), iterations, seed)
			if err != nil {
				t.Fatal(err)
			}
			checkSameResult(t, "random", got, want)
			if d := qm.HammingDistance(wantW); d != 0 {
				t.Fatalf("final weights differ from the reference's in %d bits", d)
			}
		})
	}
}

// buildPTA wires a page-table attack over a fresh DRAM stack, with the
// page table placed as experiments.Fig8PTA places it and, if protect,
// locked by DRAM-Locker.
func buildPTA(t *testing.T, qm *quant.Model, protect bool, iterations int) *PTA {
	t.Helper()
	sys, layout, _ := buildStack(t, qm, false, 0)
	geom := sys.Device().Geometry()
	pages := len(layout.WeightRows()) + 8
	per := geom.RowBytes / pagetable.PTESize
	need := (pages + per - 1) / per
	var ptRows []dram.RowAddr
	for r := 2; len(ptRows) < need && r < geom.RowsPerBank(); r += 2 {
		a := dram.RowAddr{Bank: geom.Banks() - 1, Row: r}
		if sys.Controller().IsReserved(a) || layout.IsWeightRow(a) {
			continue
		}
		ptRows = append(ptRows, a)
	}
	table, err := pagetable.New(sys.Device(), ptRows, pages)
	if err != nil {
		t.Fatal(err)
	}
	if protect {
		if _, err := sys.ProtectPageTable(table); err != nil {
			t.Fatal(err)
		}
	}
	cfg := DefaultPTAConfig()
	cfg.Iterations = iterations
	p, err := NewPTA(table, layout, sys.Controller(), sys.Hammer(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestPTAMatchesReference: PTA.Run's Result and final weights match a
// loop that evaluates the whole eval set after every round, with rounds
// that land (unprotected) and rounds DRAM-Locker denies.
func TestPTAMatchesReference(t *testing.T) {
	const iterations = 8
	for _, protect := range []bool{false, true} {
		t.Run(fmt.Sprintf("protect=%v", protect), func(t *testing.T) {
			qm, _, eval := trainedVictim(t)
			want, err := referencePTA(buildPTA(t, qm, protect, iterations), eval)
			if err != nil {
				t.Fatal(err)
			}
			if (want.TotalFlips > 0) == protect || (want.TotalDenied > 0) != protect {
				t.Fatalf("reference landed %d and denied %d rounds with protect=%v", want.TotalFlips, want.TotalDenied, protect)
			}
			wantW := qm.Snapshot()
			qm, _, eval = trainedVictim(t)
			got, err := buildPTA(t, qm, protect, iterations).Run(eval)
			if err != nil {
				t.Fatal(err)
			}
			checkSameResult(t, "pta", got, want)
			if d := qm.HammingDistance(wantW); d != 0 {
				t.Fatalf("final weights differ from the reference's in %d bits", d)
			}
		})
	}
}

// rankLandscapes are the gradient landscapes the selector is checked
// on, each left in Param.Grad by build. "trained" is the attack batch's
// gradient on the trained victim. "snapped" zeroes 15 of every 16 of
// those gradients and snaps the rest to ±2⁻¹⁰, so within a parameter
// whole groups of (weight, bit) score the same and the bar falls inside
// a tie, which only (GlobalW, Bit) breaks. "binary" is a binary-weight
// model, one bit per weight. tie says the first scan's bar must fall
// inside a tie.
var rankLandscapes = []struct {
	name  string
	tie   bool
	build func(*testing.T) *quant.Model
}{
	{"trained", false, func(t *testing.T) *quant.Model {
		qm, ab, _ := trainedVictim(t)
		nn.GradientPass(qm.Net, ab)
		return qm
	}},
	{"snapped", true, func(t *testing.T) *quant.Model {
		qm, ab, _ := trainedVictim(t)
		nn.GradientPass(qm.Net, ab)
		for _, qp := range qm.Params {
			for i, g := range qp.Param.Grad.Data {
				if i%16 != 0 || g == 0 {
					qp.Param.Grad.Data[i] = 0
					continue
				}
				qp.Param.Grad.Data[i] = float32(math.Copysign(math.Ldexp(1, -10), float64(g)))
			}
		}
		return qm
	}},
	{"binary", false, func(t *testing.T) *quant.Model {
		_, ab, _ := trainedVictim(t)
		qm := quant.NewModelBits(nn.NewResNet20(4, 0.25, 21), 1)
		nn.GradientPass(qm.Net, ab)
		return qm
	}},
}

// TestSelectTopKMatchesReferenceRanking checks the bounded selector
// against the full-sort reference on every rank landscape, with and
// without an exclusion set, on a fresh Searcher and on one reused
// across rounds. Then a selection of n candidates, n around the number
// of untried positive ones, keeps the reference's first n.
func TestSelectTopKMatchesReferenceRanking(t *testing.T) {
	for _, ls := range rankLandscapes {
		t.Run(ls.name, func(t *testing.T) {
			qm := ls.build(t)
			if ls.tie {
				bar := DefaultBFAConfig().CandidatesPerIter
				first := referenceRankCandidates(qm, bar+1, nil)
				if first[bar-1].Score != first[bar].Score {
					t.Fatalf("the bar %v is not tied: the next score is %v", first[bar-1].Score, first[bar].Score)
				}
			}
			tried := checkSelectTopK(t, qm)
			all := referenceRankCandidates(qm, math.MaxInt, tried)
			s, err := NewSearcher(qm, DefaultBFAConfig())
			if err != nil {
				t.Fatal(err)
			}
			for k := range tried {
				s.tried[k] = true
			}
			for _, n := range []int{len(all) / 2, len(all) - 1, len(all), len(all) + 1} {
				s.cfg.CandidatesPerIter = n
				checkSameCandidates(t, fmt.Sprintf("top %d of %d", n, len(all)), s.selectTopK(), all[:min(n, len(all))])
			}
		})
	}
}

// checkSelectTopK runs ten rounds of selection on qm's gradients, each
// excluding the winners of the rounds before it, and returns the
// excluded set.
func checkSelectTopK(t *testing.T, qm *quant.Model) map[[2]int]bool {
	t.Helper()
	cfg := DefaultBFAConfig()
	cfg.CandidatesPerIter = 5
	reused, err := NewSearcher(qm, cfg)
	if err != nil {
		t.Fatal(err)
	}
	tried := map[[2]int]bool{}
	for round := 0; round < 10; round++ {
		want := referenceRankCandidates(qm, cfg.CandidatesPerIter, tried)
		s, err := NewSearcher(qm, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for k := range tried {
			s.tried[k] = true
		}
		for name, got := range map[string][]Candidate{"fresh": s.selectTopK(), "reused": reused.selectTopK()} {
			checkSameCandidates(t, fmt.Sprintf("round %d, %s", round, name), got, want)
		}
		// Exclude this round's winners so the next round exercises the
		// tried-set filter at the selection frontier.
		for _, c := range want {
			tried[[2]int{c.GlobalW, c.Bit}] = true
			reused.tried[[2]int{c.GlobalW, c.Bit}] = true
		}
	}
	return tried
}

// checkSameCandidates fails unless got lists want's candidates in
// want's order.
func checkSameCandidates(t *testing.T, label string, got, want []Candidate) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d candidates, want %d", label, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: candidate %d = %+v, want %+v", label, i, got[i], want[i])
		}
	}
}
