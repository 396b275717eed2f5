package attack

import (
	"fmt"

	"repro/internal/controller"
	"repro/internal/memmap"
	"repro/internal/rowhammer"
	"repro/internal/stats"
)

// hammerBudget bounds one aggressor's hammering per attempt to
// hammerBudget·T_RH activations (the attacker stops once the flip should
// have landed).
const hammerBudget = 2

// DRAMExecutor commits flips the way a real attacker must: by hammering an
// aggressor row adjacent to the DRAM row holding the target bit, through
// the memory controller — where the lock-table can deny the activations.
//
// The executor registers the intended victim bit with the RowHammer engine
// (the threat model grants the attacker data-pattern control, §III
// assumptions 4-5), hammers until the threshold is crossed or the defense
// denies, then syncs the victim model from DRAM. Each aggressor gets at
// most hammerBudget·T_RH activations per attempt.
type DRAMExecutor struct {
	Layout *memmap.Layout
	Ctl    *controller.Controller
	Engine *rowhammer.Engine
	// Leak is the probability that a denied flip lands anyway, modelling
	// the erroneous-SWAP exposure of §IV.D (0.096 at ±20% variation).
	// Zero models an ideal, error-free DRAM-Locker.
	Leak float64
	RNG  *stats.RNG
}

// NewDRAMExecutor wires an executor over the full substrate.
func NewDRAMExecutor(layout *memmap.Layout, ctl *controller.Controller, eng *rowhammer.Engine, leak float64, seed uint64) (*DRAMExecutor, error) {
	if leak < 0 || leak > 1 {
		return nil, fmt.Errorf("attack: leak must be in [0,1], got %g", leak)
	}
	return &DRAMExecutor{
		Layout: layout,
		Ctl:    ctl,
		Engine: eng,
		Leak:   leak,
		RNG:    stats.NewRNG(seed),
	}, nil
}

// TryFlip implements FlipExecutor.
func (e *DRAMExecutor) TryFlip(globalW, k int) (FlipOutcome, error) {
	victim, bitInRow, err := e.Layout.LocationOfBit(globalW, k)
	if err != nil {
		return FlipOutcome{}, err
	}
	geom := e.Ctl.Device().Geometry()
	aggressors := geom.Neighbors(victim, 1)
	if len(aggressors) == 0 {
		return FlipOutcome{}, fmt.Errorf("attack: victim %v has no aggressor rows", victim)
	}
	if err := e.Engine.RegisterTarget(victim, bitInRow); err != nil {
		return FlipOutcome{}, err
	}
	defer e.Engine.ClearTargets()

	// Each attack iteration spans at least one refresh interval in real
	// time (hammering T_RH rows takes ~T_RH*tRC); start a fresh window so
	// prior iterations' residual counts do not mask the crossing.
	e.Engine.ResetWindow(e.Ctl.Device().Now())

	trh := e.Engine.TRH()
	budget := hammerBudget * trh
	flipped := false
	deniedAll := true
	for _, agg := range aggressors {
		already := e.Engine.Count(agg)
		needed := trh + 1 - already
		if needed < 1 {
			needed = 1
		}
		if needed > budget {
			needed = budget
		}
		denied := false
		for i := 0; i < needed; i++ {
			activated, _, err := e.Ctl.HammerAttempt(agg)
			if err != nil {
				return FlipOutcome{}, err
			}
			if !activated {
				denied = true
				break
			}
		}
		if denied {
			continue
		}
		deniedAll = false
		// The threshold crossing (if any) has injected the flip; sync the
		// victim model from DRAM and see whether any weight changed.
		if changed, err := e.Layout.SyncFromDRAM(); err != nil {
			return FlipOutcome{}, err
		} else if changed > 0 {
			flipped = true
			break
		}
	}
	if flipped {
		return FlipOutcome{Succeeded: true}, nil
	}
	if deniedAll {
		// Defense blocked every aggressor. Model the erroneous-SWAP
		// exposure window: with probability Leak the row was silently
		// left unprotected and the flip lands.
		if e.RNG != nil && e.RNG.Bernoulli(e.Leak) {
			if err := e.Ctl.Device().FlipBit(victim, bitInRow); err != nil {
				return FlipOutcome{}, err
			}
			if _, err := e.Layout.SyncFromDRAM(); err != nil {
				return FlipOutcome{}, err
			}
			return FlipOutcome{Succeeded: true, Denied: false}, nil
		}
		return FlipOutcome{Denied: true}, nil
	}
	return FlipOutcome{}, nil
}
