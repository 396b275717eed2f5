package attack

import (
	"errors"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/memmap"
	"repro/internal/nn"
	"repro/internal/quant"
)

// The victim is trained once and restored from a pristine snapshot for
// each test, since training dominates test time on one core.
var (
	victimOnce sync.Once
	victimQM   *quant.Model
	victimSnap [][]int8
	victimAB   nn.Batch
	victimEval nn.BatchSource
)

// trainedVictim returns a small trained, quantized model with its data,
// with weights reset to their post-training state.
func trainedVictim(t *testing.T) (*quant.Model, nn.Batch, nn.BatchSource) {
	t.Helper()
	victimOnce.Do(func() {
		cfg := dataset.Tiny(4)
		cfg.Train = 160
		ds, err := dataset.Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		net := nn.NewResNet20(4, 0.25, 21)
		tc := nn.DefaultTrainConfig()
		tc.Epochs = 5
		nn.Fit(net, &ds.TrainSplit, tc)
		victimQM = quant.NewModel(net)
		victimSnap = victimQM.Snapshot()
		victimEval = dataset.Subset(&ds.TestSplit, 60)
		victimAB = ds.TestSplit.Slice(0, 16)
	})
	victimQM.Restore(victimSnap)
	return victimQM, victimAB, victimEval
}

func TestBFADegradesAccuracy(t *testing.T) {
	qm, ab, eval := trainedVictim(t)
	clean := nn.Evaluate(qm.Net, eval, 32)
	if clean < 0.7 {
		t.Fatalf("victim too weak to attack: clean acc %.2f", clean)
	}
	cfg := DefaultBFAConfig()
	cfg.Iterations = 10
	cfg.CandidatesPerIter = 3
	res, err := BFA(qm, ab, eval, &DirectExecutor{QM: qm}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalFlips != 10 {
		t.Fatalf("flips = %d, want 10 (direct executor always lands)", res.TotalFlips)
	}
	if res.FinalAccuracy() >= clean {
		t.Fatalf("BFA did not degrade accuracy: %.3f -> %.3f", clean, res.FinalAccuracy())
	}
	// Records must be cumulative and monotone in flips.
	for i := 1; i < len(res.Records); i++ {
		if res.Records[i].Flips < res.Records[i-1].Flips {
			t.Fatal("flip count must be cumulative")
		}
	}
}

func TestBFABeatsRandomAttack(t *testing.T) {
	qm, ab, eval := trainedVictim(t)
	snap := qm.Snapshot()
	cfg := DefaultBFAConfig()
	cfg.Iterations = 10
	cfg.CandidatesPerIter = 3
	bfa, err := BFA(qm, ab, eval, &DirectExecutor{QM: qm}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	qm.Restore(snap)
	rnd, err := RandomAttack(qm, eval, &DirectExecutor{QM: qm}, 10, 5)
	if err != nil {
		t.Fatal(err)
	}
	qm.Restore(snap)
	// The paper's Fig. 1(a): same flip budget, targeted must hurt much more.
	if bfa.FinalAccuracy() >= rnd.FinalAccuracy() {
		t.Fatalf("targeted BFA (%.3f) must beat random (%.3f)",
			bfa.FinalAccuracy(), rnd.FinalAccuracy())
	}
}

func TestBFAUntilCollapse(t *testing.T) {
	qm, ab, eval := trainedVictim(t)
	cfg := DefaultBFAConfig()
	cfg.CandidatesPerIter = 3
	flips, acc, err := BFAUntilCollapse(qm, ab, eval, &DirectExecutor{QM: qm}, cfg, 0.45, 25)
	if err != nil {
		t.Fatal(err)
	}
	if acc > 0.45 && flips < 25 {
		t.Fatalf("stopped early without collapse: flips=%d acc=%.3f", flips, acc)
	}
	if flips == 0 {
		t.Fatal("no flips committed")
	}
}

// countingExecutor counts the flips the attack commits on its way to the
// direct executor.
type countingExecutor struct {
	DirectExecutor
	calls int
}

func (e *countingExecutor) TryFlip(globalW, k int) (FlipOutcome, error) {
	e.calls++
	return e.DirectExecutor.TryFlip(globalW, k)
}

// TestBFAUntilCollapseStopsAtCollapse: the attack commits no flip after
// the first iteration that reaches the threshold, and reports that
// iteration's flips and accuracy, as read off a full BFA run.
func TestBFAUntilCollapseStopsAtCollapse(t *testing.T) {
	const threshold, budget = 0.45, 25
	qm, ab, eval := trainedVictim(t)
	cfg := DefaultBFAConfig()
	cfg.Iterations = budget
	cfg.CandidatesPerIter = 3
	full, err := BFA(qm, ab, eval, &DirectExecutor{QM: qm}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	first := -1
	for i, rec := range full.Records {
		if rec.Accuracy <= threshold {
			first = i
			break
		}
	}
	if first < 0 || first == len(full.Records)-1 {
		t.Fatalf("victim must collapse before the budget: first collapsed record %d of %d", first, len(full.Records))
	}

	qm, ab, eval = trainedVictim(t)
	exec := &countingExecutor{DirectExecutor: DirectExecutor{QM: qm}}
	flips, acc, err := BFAUntilCollapse(qm, ab, eval, exec, cfg, threshold, budget)
	if err != nil {
		t.Fatal(err)
	}
	if exec.calls != flips {
		t.Fatalf("committed %d flips, reported %d: the attack ran past the collapse", exec.calls, flips)
	}
	if want := full.Records[first]; flips != want.Flips || acc != want.Accuracy {
		t.Fatalf("collapse at (%d flips, %.3f), want the full run's first collapsed record (%d, %.3f)",
			flips, acc, want.Flips, want.Accuracy)
	}
}

// TestBFAStopHookAbortsAttack: a tripped Stop surfaces its error with
// the partial trace — how Ctrl-C interrupts an in-flight attack.
func TestBFAStopHookAbortsAttack(t *testing.T) {
	qm, ab, eval := trainedVictim(t)
	cfg := DefaultBFAConfig()
	cfg.Iterations = 10
	cfg.CandidatesPerIter = 2
	iters := 0
	stopErr := errors.New("attack cancelled")
	cfg.Stop = func() error {
		iters++
		if iters > 3 {
			return stopErr
		}
		return nil
	}
	res, err := BFA(qm, ab, eval, &DirectExecutor{QM: qm}, cfg)
	if err != stopErr {
		t.Fatalf("err = %v, want the stop error", err)
	}
	if len(res.Records) != 3 {
		t.Fatalf("partial trace has %d records, want 3", len(res.Records))
	}
}

func TestBFAConfigValidation(t *testing.T) {
	qm, ab, eval := trainedVictim(t)
	bad := BFAConfig{}
	if _, err := BFA(qm, ab, eval, &DirectExecutor{QM: qm}, bad); err == nil {
		t.Fatal("zero config must fail")
	}
	if _, err := RandomAttack(qm, eval, &DirectExecutor{QM: qm}, 0, 1); err == nil {
		t.Fatal("zero iterations must fail")
	}
}

// buildStack assembles the full DRAM substrate around a quantized model.
func buildStack(t *testing.T, qm *quant.Model, protect bool, leak float64) (*core.System, *memmap.Layout, *DRAMExecutor) {
	t.Helper()
	ccfg := core.DefaultConfig()
	ccfg.TRH = 30
	sys, err := core.NewSystem(ccfg)
	if err != nil {
		t.Fatal(err)
	}
	layout, err := memmap.New(qm, sys.Device(), sys.Controller().IsReserved)
	if err != nil {
		t.Fatal(err)
	}
	if protect {
		if _, err := sys.ProtectWeights(layout); err != nil {
			t.Fatal(err)
		}
	}
	exec, err := NewDRAMExecutor(layout, sys.Controller(), sys.Hammer(), leak, 77)
	if err != nil {
		t.Fatal(err)
	}
	return sys, layout, exec
}

func TestDRAMExecutorFlipsThroughHammering(t *testing.T) {
	qm, _, _ := trainedVictim(t)
	sys, _, exec := buildStack(t, qm, false, 0)
	pi, li := qm.Locate(3)
	before := qm.Params[pi].Get(li)
	out, err := exec.TryFlip(3, 7)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Succeeded || out.Denied {
		t.Fatalf("undefended flip outcome: %+v", out)
	}
	after := qm.Params[pi].Get(li)
	if after == before {
		t.Fatal("weight unchanged after hammering flip")
	}
	if sys.Hammer().TotalFlips() == 0 {
		t.Fatal("the flip did not come from a threshold crossing")
	}
}

func TestDRAMExecutorDeniedUnderProtection(t *testing.T) {
	qm, _, _ := trainedVictim(t)
	sys, _, exec := buildStack(t, qm, true, 0)
	snap := qm.Snapshot()
	for w := 0; w < 5; w++ {
		out, err := exec.TryFlip(w*3, 7)
		if err != nil {
			t.Fatal(err)
		}
		if out.Succeeded || !out.Denied {
			t.Fatalf("defended flip outcome: %+v", out)
		}
	}
	if qm.HammingDistance(snap) != 0 {
		t.Fatal("weights changed despite full denial")
	}
	if sys.Controller().Stats().Denied == 0 {
		t.Fatal("denials not recorded")
	}
}

func TestDRAMExecutorLeakLandsFlips(t *testing.T) {
	qm, _, _ := trainedVictim(t)
	sys, _, exec := buildStack(t, qm, true, 1.0) // always leak
	pi, li := qm.Locate(2)
	before := qm.Params[pi].Get(li)
	out, err := exec.TryFlip(2, 7)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Succeeded || out.Denied {
		t.Fatalf("leak=1 must land the flip: %+v", out)
	}
	if sys.Controller().Stats().Denied == 0 {
		t.Fatal("the hammering was not denied, so the flip did not come from the leak")
	}
	if got, want := qm.Params[pi].Get(li), quant.FlipBit(before, 7); got != want {
		t.Fatalf("weight after the leaked flip = %d, want %d (bit 7 of %d flipped)", got, want, before)
	}
}

func TestDRAMExecutorLeakValidation(t *testing.T) {
	qm, _, _ := trainedVictim(t)
	sys, layout, _ := buildStack(t, qm, false, 0)
	if _, err := NewDRAMExecutor(layout, sys.Controller(), sys.Hammer(), 1.5, 1); err == nil {
		t.Fatal("leak > 1 must be rejected")
	}
}

// TestHammerRowActivationCounts pins what one RowHammer attempt costs,
// counted by the fault model and the controller: T_RH+1 activations on
// each neighbour hammered in full, one denied instruction and no
// activation on a locked one, and nothing after the neighbour whose
// crossing lands the flip. Each case attempts the same bit twice: the
// fresh refresh window of the second keeps the first's activations out
// of its counts.
func TestHammerRowActivationCounts(t *testing.T) {
	const w, k = 3, 7
	cases := []struct {
		name string
		lock [2]bool // locks the victim row's first and second neighbour
		// neverLands drives hammerRow with a landed that never reports
		// the flip; otherwise the attempt is a DRAMExecutor.TryFlip.
		neverLands bool
		// full says which neighbours take T_RH+1 activations; the
		// others take none.
		full   [2]bool
		denied int64 // denied instructions per attempt
		want   FlipOutcome
	}{
		{"unlocked", [2]bool{}, false, [2]bool{true, false}, 0, FlipOutcome{Succeeded: true}},
		{"first-locked", [2]bool{true, false}, false, [2]bool{false, true}, 1, FlipOutcome{Succeeded: true}},
		{"both-locked", [2]bool{true, true}, false, [2]bool{}, 2, FlipOutcome{Denied: true}},
		{"never-lands", [2]bool{}, true, [2]bool{true, true}, 0, FlipOutcome{}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			qm := quant.NewModel(nn.NewResNet20(4, 0.125, 5))
			sys, layout, exec := buildStack(t, qm, false, 0)
			victim, bit, err := layout.LocationOfBit(w, k)
			if err != nil {
				t.Fatal(err)
			}
			aggs := sys.Device().Geometry().Neighbors(victim, 1)
			if len(aggs) != 2 {
				t.Fatalf("victim %v has %d neighbours, want 2", victim, len(aggs))
			}
			for i, agg := range aggs {
				if c.lock[i] {
					if err := sys.Controller().LockRow(agg); err != nil {
						t.Fatal(err)
					}
				}
			}
			trh := sys.Hammer().TRH()
			acts := int64(0)
			for attempt := 1; attempt <= 2; attempt++ {
				var got FlipOutcome
				if c.neverLands {
					calls := 0
					ok, deniedAll, err := hammerRow(sys.Controller(), sys.Hammer(), victim, bit, func() (bool, error) {
						calls++
						return false, nil
					})
					if err != nil {
						t.Fatal(err)
					}
					if ok || deniedAll || calls != 2 {
						t.Fatalf("attempt %d: hammerRow = (ok %v, deniedAll %v) after %d landed calls, want (false, false) after 2", attempt, ok, deniedAll, calls)
					}
				} else if got, err = exec.TryFlip(w, k); err != nil {
					t.Fatal(err)
				}
				if got != c.want {
					t.Fatalf("attempt %d: outcome %+v, want %+v", attempt, got, c.want)
				}
				for i, agg := range aggs {
					want := 0
					if c.full[i] {
						want = trh + 1
					}
					if n := sys.Hammer().Count(agg); n != want {
						t.Errorf("attempt %d: neighbour %d (%v) took %d activations, want %d", attempt, i, agg, n, want)
					}
					acts += int64(want)
				}
				st := sys.Controller().Stats()
				if denied := int64(attempt) * c.denied; st.Denied != denied || st.Instructions != acts+denied {
					t.Errorf("attempt %d: controller saw %d instructions, %d denied; want %d, %d denied", attempt, st.Instructions, st.Denied, acts+denied, denied)
				}
			}
		})
	}
}
