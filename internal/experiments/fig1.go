package experiments

import (
	"context"
	"fmt"

	"repro/internal/attack"
	"repro/internal/rowhammer"
)

// Fig1aResult reproduces Fig. 1(a): targeted BFA vs random bit flipping on
// an 8-bit quantized VGG-11 trained on CIFAR-100-like data.
type Fig1aResult struct {
	CleanAcc float64
	Targeted attack.Result
	Random   attack.Result
}

// Fig1a runs both attacks with direct (undefended) flip execution — the
// figure's point is that *targeted* flips collapse the model while the
// same number of random flips barely moves it. ctx is polled per
// training epoch and per BFA iteration.
func Fig1a(ctx context.Context, p Preset) (*Fig1aResult, error) {
	v, err := victimFor(ctx, p, standardVictim(ArchVGG11, 100))
	if err != nil {
		return nil, err
	}
	res := &Fig1aResult{CleanAcc: v.CleanAcc}

	// Targeted BFA.
	bcfg := attack.DefaultBFAConfig()
	bcfg.Iterations = p.AttackIters
	bcfg.CandidatesPerIter = p.Candidates
	bcfg.Stop = ctx.Err
	snap := v.QM.Snapshot()
	res.Targeted, err = attack.BFA(v.QM, v.AttackBatch, v.Eval, &attack.DirectExecutor{QM: v.QM}, bcfg)
	if err != nil {
		return nil, err
	}

	// Restore and run the random baseline on the same victim.
	v.QM.Restore(snap)
	res.Random, err = attack.RandomAttack(v.QM, v.Eval, &attack.DirectExecutor{QM: v.QM}, p.AttackIters, p.Seed+77)
	if err != nil {
		return nil, err
	}
	return res, nil
}

// Fig1bRow is one row of the Fig. 1(b) threshold table, annotated with a
// functional validation from the fault model: hammering exactly TRH
// activations induces no flip, TRH+1 does.
type Fig1bRow struct {
	Generation  string
	TRH         int
	FlipAtTRH   bool // must be false
	FlipPastTRH bool // must be true
}

// Fig1b returns the published thresholds and validates the fault model's
// threshold semantics at each of them on the defense comparison's rig.
func Fig1b() ([]Fig1bRow, error) {
	var rows []Fig1bRow
	for _, th := range rowhammer.PublishedThresholds() {
		atTRH, pastTRH, err := validateThreshold(th.TRH)
		if err != nil {
			return nil, err
		}
		rows = append(rows, Fig1bRow{
			Generation:  th.Generation,
			TRH:         th.TRH,
			FlipAtTRH:   atTRH,
			FlipPastTRH: pastTRH,
		})
	}
	return rows, nil
}

// validateThreshold hammers the defense comparison's aggressor TRH and
// TRH+1 times, each on a fresh rig, and reports whether the victim
// flipped in each case.
func validateThreshold(trh int) (flipAtTRH, flipPastTRH bool, err error) {
	run := func(activations int) (bool, error) {
		dev, _, agg, victim, err := defenseRig(trh)
		if err != nil {
			return false, err
		}
		for i := 0; i < activations; i++ {
			if _, err := dev.Activate(agg); err != nil {
				return false, err
			}
			if _, err := dev.Precharge(agg.Bank); err != nil {
				return false, err
			}
		}
		return dev.PeekBit(victim, 0)
	}
	if flipAtTRH, err = run(trh); err != nil {
		return false, false, err
	}
	if flipPastTRH, err = run(trh + 1); err != nil {
		return false, false, err
	}
	if flipAtTRH || !flipPastTRH {
		return flipAtTRH, flipPastTRH,
			fmt.Errorf("experiments: threshold semantics violated at TRH=%d (at=%v past=%v)",
				trh, flipAtTRH, flipPastTRH)
	}
	return flipAtTRH, flipPastTRH, nil
}
